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
class ReconstructionPoint:
    """One eigenpair's recovered quasiperiodicity plus localization diagnostics."""

    index: int
    alpha_est: float
    lam: float
    sup_ratio: float
    ipr: float
    localized: bool
    band_error: float | None = None


def reconstruct_bands(M, k: int) -> list[ReconstructionPoint]:
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
        vectors = [M.bc_eigenvector(eig.vectors[:, i]) for i in range(eig.n)]
    else:
        eig = hermitian_eigen(M)
        vectors = [eig.vectors[:, i] for i in range(eig.n)]

    results = []
    for v in vectors:
        alpha = discrete_quasiperiodicity(zero_pad(v, k), k)
        results.append((alpha, *localization_metrics(v)))
    iprs = [r[2] for r in results]
    flags = ipr_localized_flags(iprs)
    return [ReconstructionPoint(index=i, alpha_est=results[i][0], lam=float(eig.values[i]),
                                sup_ratio=results[i][1], ipr=results[i][2],
                                localized=bool(flags[i]))
            for i in range(eig.n)]


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


def compare_to_symbol(points: list[ReconstructionPoint], bs: symbols.BandStructure,
                      edge_margin: float = 0.0) -> ErrorStats:
    """Fill in band_error = min_p |lam - lambda_p(alpha_est)| and summarise.

    Bulk statistics run over non-localized points whose alpha_est is at
    least edge_margin away from both 0 and pi; localized statistics run
    over all localized points.
    """
    if not points:
        raise ValueError("no points to compare")
    alphas = np.array([p.alpha_est for p in points])
    band_vals = bs.values_at(alphas)          # (k, npts)
    errors = np.min(np.abs(band_vals - np.array([p.lam for p in points])[None, :]), axis=0)
    for p, e in zip(points, errors):
        p.band_error = float(e)
    bulk = [p.band_error for p in points
            if not p.localized and edge_margin <= p.alpha_est <= np.pi - edge_margin]
    loc = [p.band_error for p in points if p.localized]
    return ErrorStats(
        bulk_max=float(np.max(bulk)) if bulk else 0.0,
        bulk_mean=float(np.mean(bulk)) if bulk else 0.0,
        bulk_q90=float(np.quantile(bulk, 0.9)) if bulk else 0.0,
        bulk_count=len(bulk),
        localized_max=float(np.max(loc)) if loc else 0.0,
        localized_mean=float(np.mean(loc)) if loc else 0.0,
        localized_count=len(loc),
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


def detect_gaps(bs: symbols.BandStructure, eig, margin: float = 0.0,
                points: list[ReconstructionPoint] | None = None) -> GapReport:
    """Find band gaps (shrunk by margin on each side) and the eigenvalues inside.

    eig may be an EigenDecomposition or a plain eigenvalue array; when the
    reconstruction points are supplied, gap modes carry their alpha_est.
    """
    if not 0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and nonnegative, got {margin}")
    ranges = bs.band_ranges()
    gaps = []
    for p in range(len(ranges) - 1):
        lo, hi = ranges[p][1] + margin, ranges[p + 1][0] - margin
        if lo < hi:
            gaps.append((lo, hi))
    values = eig.values if isinstance(eig, EigenDecomposition) else np.asarray(eig, dtype=float)
    modes = []
    for i, v in enumerate(values):
        if any(lo < v < hi for lo, hi in gaps):
            alpha = points[i].alpha_est if points is not None else float("nan")
            modes.append(GapMode(index=i, lam=float(v), alpha_est=alpha))
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

# None marks a parameter derived from others (am1, index), optional (symbol) or
# required (matrix).  grid and margin are run-level keys every scenario takes.
SCENARIOS = {
    "periodic_nn": {"a0": 2.0, "a1": -1.0, "am1": None, "m": 80},
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
    "a0": (float, None), "a1": (float, None), "am1": (float, None), "s1": (float, None), "s2": (float, None),
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
    points: list[ReconstructionPoint]
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
            "n_localized": sum(p.localized for p in self.points),
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
        p.setdefault("am1", p["a1"])
        mat = matrices.capacitance_1d(p["a0"], p["a1"], p["am1"], p["m"])
        return mat, symbols.nearest_neighbour_symbol(p["a0"], p["a1"], p["am1"]), 1
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
    is recovered.
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
        values = np.array([p.lam for p in points])
        gap_report = detect_gaps(bands, values, margin=margin, points=points)
        in_gap = {g.index for g in gap_report.gap_modes}
        for p in points:
            p.localized = p.localized or (p.index in in_gap)
        stats = compare_to_symbol(points, bands, edge_margin=edge)
    return ScenarioResult(scenario=name, params=params, k=k, matrix=matrix,
                          points=points, bands=bands, gap_report=gap_report, stats=stats)
