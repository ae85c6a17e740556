"""End-to-end band reconstruction pipelines.

Take a finite chain matrix, eigendecompose it, recover a quasiperiodicity
for every eigenvector from its projection masses, and assemble the
reconstructed band diagram together with gap and localization reports.
SCENARIOS declares the parameters each named scenario reads, with their
defaults, and PARAMS the type of each (the CLI's flags come from it);
run_scenario refuses a key its scenario does not read and converts each
value once, so summary.json records exactly the parameters used.
Closed-form eigenpair oracles for the two nearest-neighbour families are
included for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrices, symbols
from .matrices import FiniteMatrix, PerturbedPair
from .spectra import EigenDecomposition, hermitian_eigen, localization_metrics, ipr_localized_flags
from .transform import discrete_quasiperiodicity, zero_pad

DEFAULT_GRID = 512
EDGE_EXCLUSION_BINS = 4


@dataclass
class Points:
    """Per-eigenpair results as columns; row i is eigenpair i, ascending in lam.

    alpha_est is the recovered quasiperiodicity, sup_ratio and ipr the
    localization measures, and band_error stays None until compare_to_symbol
    fills it.
    """

    alpha_est: np.ndarray
    lam: np.ndarray
    sup_ratio: np.ndarray
    ipr: np.ndarray
    localized: np.ndarray  # bool
    band_error: np.ndarray | None = None

    def __len__(self) -> int:
        return self.lam.size


def reconstruct_bands(M, k: int) -> Points:
    """Recover (quasiperiodicity, eigenvalue) pairs for every eigenvector of M.

    M is a Hermitian FiniteMatrix or a PerturbedPair, in which case the
    Hermitian companion is diagonalised and eigenvectors are mapped back to
    the product form before analysis.  Eigenvectors whose length is not a
    multiple of k are zero-padded.  Points are ordered by eigenvalue, and
    the localized flag here reflects the inverse-participation rule alone
    (scenario runs refine it with gap membership).
    """
    if k < 1:
        raise ValueError(f"block size must be positive, got {k}")
    if isinstance(M, PerturbedPair):
        eig = hermitian_eigen(M.symmetrized)
        V = M.bc_eigenvectors(eig.vectors)
    else:
        eig = hermitian_eigen(M)
        V = eig.vectors
    alpha = np.array([discrete_quasiperiodicity(zero_pad(V[:, i], k), k) for i in range(eig.n)])
    sup, ipr = localization_metrics(V)
    return Points(alpha_est=alpha, lam=eig.values, sup_ratio=sup, ipr=ipr,
                  localized=ipr_localized_flags(ipr))


@dataclass(frozen=True)
class ErrorStats:
    """Band-error statistics split into bulk (delocalised) and localized points."""

    bulk_max: float
    bulk_mean: float
    bulk_q90: float
    bulk_count: int
    localized_max: float
    localized_mean: float
    localized_count: int
    edge_margin: float = 0.0

    def as_dict(self) -> dict:
        return {
            "bulk": {"max": self.bulk_max, "mean": self.bulk_mean,
                     "q90": self.bulk_q90, "count": self.bulk_count},
            "localized": {"max": self.localized_max, "mean": self.localized_mean,
                          "count": self.localized_count},
            "edge_margin": self.edge_margin,
        }


def compare_to_symbol(points: Points, bs: symbols.BandStructure,
                      edge_margin: float = 0.0) -> ErrorStats:
    """Fill in band_error = min_p |lam - lambda_p(alpha_est)| and summarise.

    Bulk statistics run over non-localized points whose alpha_est is at
    least edge_margin away from both 0 and pi; localized statistics run
    over all localized points.
    """
    if not len(points):
        raise ValueError("no points to compare")
    band_vals = bs.values_at(points.alpha_est)          # (k, npts)
    points.band_error = np.min(np.abs(band_vals - points.lam[None, :]), axis=0)
    a = points.alpha_est
    bulk = points.band_error[~points.localized & (edge_margin <= a) & (a <= np.pi - edge_margin)]
    loc = points.band_error[points.localized]
    return ErrorStats(
        bulk_max=float(np.max(bulk)) if bulk.size else 0.0,
        bulk_mean=float(np.mean(bulk)) if bulk.size else 0.0,
        bulk_q90=float(np.quantile(bulk, 0.9)) if bulk.size else 0.0,
        bulk_count=bulk.size,
        localized_max=float(np.max(loc)) if loc.size else 0.0,
        localized_mean=float(np.mean(loc)) if loc.size else 0.0,
        localized_count=loc.size,
        edge_margin=edge_margin)


@dataclass(frozen=True)
class GapMode:
    index: int
    lam: float
    alpha_est: float


@dataclass(frozen=True)
class GapReport:
    """Open intervals between consecutive band ranges and the eigenvalues inside."""

    gaps: list[tuple[float, float]]
    gap_modes: list[GapMode]
    margin: float = 0.0

    def as_dict(self) -> dict:
        return {
            "gaps": [[lo, hi] for lo, hi in self.gaps],
            "gap_modes": [{"index": g.index, "lambda": g.lam, "alpha_est": g.alpha_est}
                          for g in self.gap_modes],
            "margin": self.margin,
        }


def default_gap_margin(bs: symbols.BandStructure) -> float:
    span = float(bs.values.max() - bs.values.min())
    return 1e-6 * span


def detect_gaps(bs: symbols.BandStructure, values, margin: float = 0.0,
                alphas=None) -> GapReport:
    """Find band gaps (shrunk by margin on each side) and the eigenvalues inside.

    values is an eigenvalue array; when the matching recovered
    quasiperiodicities are supplied, gap modes carry their alpha_est.
    """
    if not 0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and nonnegative, got {margin}")
    ranges = bs.band_ranges()
    gaps = []
    for p in range(len(ranges) - 1):
        lo, hi = ranges[p][1] + margin, ranges[p + 1][0] - margin
        if lo < hi:
            gaps.append((lo, hi))
    values = np.asarray(values, dtype=float)
    bounds = np.array(gaps, dtype=float).reshape(-1, 2)
    inside = np.any((bounds[:, 0] < values[:, None]) & (values[:, None] < bounds[:, 1]), axis=1)
    modes = [GapMode(index=int(i), lam=float(values[i]),
                     alpha_est=float(alphas[i]) if alphas is not None else float("nan"))
             for i in np.flatnonzero(inside)]
    return GapReport(gaps=gaps, gap_modes=modes, margin=margin)


# ---------------------------------------------------------------------------
# closed-form oracles for the two nearest-neighbour families

def tridiagonal_eigenpairs_oracle(a0: float, a1: float, m: int) -> EigenDecomposition:
    """Eigenpairs of the symmetric tridiagonal Toeplitz section (a1 on both sides).

    lambda_s = a0 + 2 a1 cos(s pi / (m+1)) with sine eigenvectors
    u_s^(q) = kappa sin(q s pi / (m+1)), returned sorted ascending.
    """
    if m < 1:
        raise ValueError(f"size must be positive, got {m}")
    s = np.arange(1, m + 1)
    theta = s * np.pi / (m + 1)
    vals = a0 + 2.0 * a1 * np.cos(theta)
    q = np.arange(1, m + 1)
    vecs = np.sin(np.outer(q, theta)) * np.sqrt(2.0 / (m + 1))
    order = np.argsort(vals, kind="stable")
    return EigenDecomposition(values=vals[order], vectors=vecs[:, order])


def capacitance_eigenpairs_oracle(a0: float, a1: float, m: int) -> EigenDecomposition:
    """Eigenpairs of the corner-corrected chain capacitance_1d(a0, a1, a1, m).

    lambda_s = a0 + 2 a1 cos(s pi / m), s = 0..m-1, with cosine eigenvectors
    u_s^(q) = kappa_s cos((q - 1/2) s pi / m); here the even-index vectors
    are exactly resolved by the m-point bin grid.
    """
    if m < 1:
        raise ValueError(f"size must be positive, got {m}")
    s = np.arange(m)
    vals = a0 + 2.0 * a1 * np.cos(s * np.pi / m)
    q = np.arange(1, m + 1)
    vecs = np.cos(np.outer(q - 0.5, s * np.pi / m))
    vecs /= np.linalg.norm(vecs, axis=0)
    order = np.argsort(vals, kind="stable")
    return EigenDecomposition(values=vals[order], vectors=vecs[:, order])


# ---------------------------------------------------------------------------
# scenarios

# None marks a parameter derived from others (index), optional (symbol) or
# required (matrix).  grid and margin are run-level keys every scenario takes.
SCENARIOS = {
    "periodic_nn": {"a0": 2.0, "a1": -1.0, "m": 80},
    "periodic_symbol": {"m": 30, "symbol": None},
    "ssh": {"s1": 1.0, "s2": 2.0, "dimers_per_side": 20},
    "dislocated": {"s1": 1.0, "s2": 2.0, "d": 4.0, "dimers_per_side": 10},
    "compact_defect": {"s1": 1.0, "s2": 2.0, "n": 80, "delta": 0.5, "index": None},
    "external_matrix": {"matrix": None, "k": 1, "symbol": None},
}
# name -> (type, help) of every scenario parameter and of margin, in CLI flag order.
PARAMS = {
    "m": (int, "system size in blocks/sites"),
    "n": (int, "site count (compact_defect)"),
    "dimers_per_side": (int, None),
    "index": (int, "1-based defect site"),
    "k": (int, "block size (external_matrix)"),
    "a0": (float, None), "a1": (float, None), "s1": (float, None), "s2": (float, None),
    "d": (float, "dislocated spacing"),
    "delta": (float, "compact defect strength"),
    "margin": (float, "gap detection margin"),
    "matrix": (str, "matrix CSV/JSON path (external_matrix)"),
    "symbol": (str, "reference symbol JSON file, inline JSON, or builtin name"),
}


def _number(name, value, kind):
    """An int or float from a flag or a config file (any JSON value); no bools, no fractional ints."""
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}") from exc


def _text(name, value, inline=False):
    """A string from a flag or a config file (any JSON value); with inline=True also an object."""
    if isinstance(value, str) or (inline and isinstance(value, dict)):
        return value
    raise ValueError(f"{name} must be a string{' or an object' if inline else ''}, got {value!r}")


@dataclass
class ScenarioResult:
    """Everything a reconstruction run produces, ready for serialization."""

    scenario: str
    params: dict
    k: int
    matrix: FiniteMatrix
    points: Points
    bands: symbols.BandStructure | None
    gap_report: GapReport | None
    stats: ErrorStats | None

    def summary(self) -> dict:
        out = {
            "scenario": self.scenario,
            "params": self.params,
            "k": self.k,
            "matrix_size": self.matrix.n,
            "matrix_kind": self.matrix.kind,
            "n_points": len(self.points),
            "n_localized": int(np.count_nonzero(self.points.localized)),
        }
        if self.gap_report is not None:
            out["n_gaps"] = len(self.gap_report.gaps)
            out["n_gap_modes"] = len(self.gap_report.gap_modes)
            out["gaps"] = [[lo, hi] for lo, hi in self.gap_report.gaps]
        if self.stats is not None:
            out["errors"] = self.stats.as_dict()
        return out


def _scenario_setup(name: str, p: dict):
    """Build (matrix-or-pair, reference symbol, k) from the scenario's parameters p, adding the derived ones.

    Each matrix is built before its symbol, so a bad spacing is refused by the matrix's own check.
    """
    if name == "periodic_nn":
        mat = matrices.capacitance_1d(p["a0"], p["a1"], p["a1"], p["m"])
        return mat, symbols.nearest_neighbour_symbol(p["a0"], p["a1"]), 1
    if name == "periodic_symbol":
        sym = symbols.symbol_from_source(p.get("symbol", "exponential"))
        if sym.tail_model is not None:
            p["truncation_tail_bound"] = sym.tail_model.tail_bound(sym.r_max)
        return matrices.toeplitz_matrix(sym, p["m"]), sym, sym.k
    if name == "ssh":
        mat = matrices.ssh_matrix(m=p["dimers_per_side"], **matrices.ssh_params_from_spacings(p["s1"], p["s2"]))
    elif name == "dislocated":
        mat = matrices.dislocated_chain(p["s1"], p["s2"], p["d"], p["dimers_per_side"])
    elif name == "compact_defect":
        base = matrices.chain_capacitance(matrices.dimer_alternation(p["s1"], p["s2"], p["n"] - 1))
        p.setdefault("index", matrices.center_index(p["n"]))
        mat = matrices.compact_perturbation(base, p["index"], p["delta"])
    else:  # external_matrix
        if "matrix" not in p:
            raise ValueError("external_matrix scenario needs a 'matrix' path")
        mat = matrices.load_matrix(p["matrix"], k=p["k"])
        return mat, symbols.symbol_from_source(p["symbol"]) if p.get("symbol") else None, p["k"]
    return mat, symbols.dimer_symbol(p["s1"], p["s2"]), 2


def run_scenario(config: dict) -> ScenarioResult:
    """Build the scenario matrix, reconstruct, and attach gap and error reports.

    config holds at least {"scenario": name}; scenario parameters may sit
    either at the top level or under "params".  A key the scenario does not
    read (see SCENARIOS) is refused, and each value is converted once to its
    type in PARAMS, so the recorded params are the ones used.  The reference
    bands come from the scenario's underlying periodic symbol where one
    exists; bands that are not even in alpha are refused, since only |alpha|
    is recovered.  So is a grid that is odd or below MIN_CHECK_GRID: the gap
    edges come from the band samples, and an odd grid never samples alpha =
    pi, where every band that is even in alpha has a critical point.
    """
    cfg = dict(config)
    name = cfg.pop("scenario", None)
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ValueError(f"scenario must be one of {', '.join(SCENARIOS)}, got {name!r}")
    nested = cfg.pop("params", {})
    if not isinstance(nested, dict):
        raise ValueError(f"params must be an object, got {nested!r}")
    given = {**nested, **cfg}
    grid = _number("grid", given.pop("grid", DEFAULT_GRID), int)
    if grid < symbols.MIN_CHECK_GRID or grid % 2:
        raise ValueError(f"grid must be an even number of at least {symbols.MIN_CHECK_GRID}, got {grid}")
    reads = SCENARIOS[name]
    unread = [key for key in given if key not in reads and key != "margin"]
    if unread:
        raise ValueError(f"scenario {name!r} does not read {', '.join(map(str, unread))}; "
                         f"it takes {', '.join(reads)}")
    params = {key: value for key, value in reads.items() if value is not None}
    for key, value in given.items():
        kind = PARAMS[key][0]
        if value is not None:  # null counts as not given, as an unset flag does
            params[key] = _text(key, value, inline=(key == "symbol")) if kind is str else _number(key, value, kind)
    margin = params.pop("margin", None)

    built, sym, k = _scenario_setup(name, params)
    points = reconstruct_bands(built, k)
    matrix = built.bc if isinstance(built, PerturbedPair) else built

    bands = gap_report = stats = None
    if sym is not None:
        bands = symbols.band_functions(sym, grid)
        odd, even = symbols.evenness(bands)
        if not even:
            raise ValueError(f"the reference bands are not even in alpha: max|lambda(alpha) - "
                             f"lambda(-alpha)| = {odd:g}, and only |alpha| is recovered")
        m_dft = math.ceil(matrix.n / k)  # DFT length after zero padding
        edge = 2.0 * np.pi * EDGE_EXCLUSION_BINS / m_dft
        if margin is None:
            margin = default_gap_margin(bands)
        gap_report = detect_gaps(bands, points.lam, margin=margin, alphas=points.alpha_est)
        points.localized[[g.index for g in gap_report.gap_modes]] = True
        stats = compare_to_symbol(points, bands, edge_margin=edge)
    return ScenarioResult(scenario=name, params=params, k=k, matrix=matrix,
                          points=points, bands=bands, gap_report=gap_report, stats=stats)
