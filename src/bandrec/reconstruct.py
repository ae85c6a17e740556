"""End-to-end band reconstruction pipelines.

Take a finite chain matrix, eigendecompose it, fit the Bloch recurrence to
every eigenvector's cells for its quasiperiodicity and localized flag, and
assemble the reconstructed band diagram with gap and localization reports.
Each report is the JSON object the run writes, built where it is
computed: compare_to_symbol scores the points against the reference
symbol itself and returns the errors block of summary.json (the
statistics of an empty set are None, JSON null; bulk points lie at least
EDGE_EXCLUSION_BINS DFT bins from alpha = 0 and pi) and detect_gaps
the gaps.json object, its gaps shrunk by GAP_MARGIN of the band span.
SCENARIOS declares the parameters each named scenario reads, with their
defaults, and PARAMS the type of each (the CLI's flags come from it);
run_scenario refuses a key its scenario leaves unread and converts each
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
from .spectra import EigenDecomposition, hermitian_eigen, localization_metrics
from .symbols import _refuse_unread, _text
from .transform import _count, _number, discrete_quasiperiodicity

DEFAULT_GRID = 512
EDGE_EXCLUSION_BINS = 4
GAP_MARGIN = 1e-6  # each gap edge moves in by this fraction of the band span before eigenvalues are tested
TIE_SLACK = 1e-9  # relative widening of the bulk bounds, so exact ties at edge_margin count as bulk


@dataclass
class Points:
    """Per-eigenpair results as columns; row i is eigenpair i, ascending in lam.

    alpha_est is the recovered quasiperiodicity, localized (see
    reconstruct_bands), sup_ratio and ipr the localization measures, and
    band_error stays None until compare_to_symbol fills it.
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
    the product form before analysis.  Each eigenvector is read as its
    ceil(n/k) cells, zero-padded, so k must be at most the matrix size n.
    Points are ordered by eigenvalue, and localized is the evanescent flag
    of discrete_quasiperiodicity alone (scenario runs add gap membership).
    """
    hermitian = M.symmetrized if isinstance(M, PerturbedPair) else M
    k = _count("block size", k, most=hermitian.n)  # before the eigensolve
    eig = hermitian_eigen(hermitian)
    V = M.bc_eigenvectors(eig.vectors) if hermitian is not M else eig.vectors
    alpha, localized = map(np.array, zip(*[discrete_quasiperiodicity(V[:, i], k) for i in range(eig.n)]))
    sup, ipr = localization_metrics(V)
    return Points(alpha_est=alpha, lam=eig.values, sup_ratio=sup, ipr=ipr, localized=localized)


def _statistics(errors: np.ndarray, **stats) -> dict:
    """{"count": errors.size} and each named statistic of errors; a statistic of an empty set is None."""
    return {"count": errors.size, **{name: float(f(errors)) if errors.size else None for name, f in stats.items()}}


def compare_to_symbol(points: Points, sym: symbols.Symbol) -> dict:
    """Fill in band_error = min_p |lam - lambda_p(alpha_est)| and return the errors block of summary.json.

    lambda_p(alpha_est) are the eigenvalues of the symbol itself at each
    point, f(e^{i alpha_est}) as symbols.evaluate_symbol_at stacks them, in
    one eigvalsh, equal to per-point eigvalsh bit for bit.  alpha_est is
    |alpha|, which reads the band at alpha as well as at -alpha because
    run_scenario refuses bands that are not even.  A BandStructure's
    interpolant would floor an exact alpha_est's error at its own,
    h^2/8 |lambda''|, 3e-5 at grid 512.
    The block is {"bulk": {count, max, mean, q90}, "localized": {count, max,
    mean}, "edge_margin"}: bulk statistics run over non-localized points
    whose alpha_est is at least edge_margin away from both 0 and pi,
    localized statistics over all localized points.  edge_margin is
    EDGE_EXCLUSION_BINS bins of the points' DFT, of length ceil(n / k).
    Exactly resolved modes sit on the edge_margin bounds, so the bounds
    are widened by TIE_SLACK * edge_margin, far above rounding and far
    below a bin: a tie counts as at least edge_margin away, whatever the
    rounding of alpha_est.
    """
    if not len(points):
        raise ValueError("no points to compare")
    edge_margin = 2.0 * np.pi * EDGE_EXCLUSION_BINS / math.ceil(len(points) / sym.k)
    a = points.alpha_est
    bands = np.linalg.eigvalsh(symbols.evaluate_symbol_at(sym, a))  # (n, k): lambda_p(alpha_est) per point
    points.band_error = np.min(np.abs(bands - points.lam[:, None]), axis=1)
    lo, hi = edge_margin * (1.0 - TIE_SLACK), np.pi - edge_margin * (1.0 - TIE_SLACK)
    bulk = points.band_error[~points.localized & (lo <= a) & (a <= hi)]
    return {"bulk": _statistics(bulk, max=np.max, mean=np.mean, q90=lambda e: np.quantile(e, 0.9)),
            "localized": _statistics(points.band_error[points.localized], max=np.max, mean=np.mean),
            "edge_margin": edge_margin}


def detect_gaps(bs: symbols.BandStructure, values, alphas) -> dict:
    """Find band gaps and the eigenvalues inside; return gaps.json.

    That is {"gaps": [[lo, hi], ...], "gap_modes": [{index, lambda,
    alpha_est}, ...], "margin"}, gaps in ascending order, each shrunk on
    both sides by margin = GAP_MARGIN times the band span.  values are
    eigenvalues and alphas their recovered quasiperiodicities.
    """
    margin = GAP_MARGIN * float(bs.values.max() - bs.values.min())
    ranges = bs.band_ranges()
    gaps = []
    for p in range(len(ranges) - 1):
        lo, hi = ranges[p][1] + margin, ranges[p + 1][0] - margin
        if lo < hi:
            gaps.append([lo, hi])
    values = np.asarray(values, dtype=float)
    bounds = np.array(gaps, dtype=float).reshape(-1, 2)
    inside = np.any((bounds[:, 0] < values[:, None]) & (values[:, None] < bounds[:, 1]), axis=1)
    modes = [{"index": int(i), "lambda": float(values[i]), "alpha_est": float(alphas[i])}
             for i in np.flatnonzero(inside)]
    return {"gaps": gaps, "gap_modes": modes, "margin": margin}


# ---------------------------------------------------------------------------
# closed-form oracles for the two nearest-neighbour families

def tridiagonal_eigenpairs_oracle(a0: float, a1: float, m: int) -> EigenDecomposition:
    """Eigenpairs of the symmetric tridiagonal Toeplitz section (a1 on both sides).

    lambda_s = a0 + 2 a1 cos(s pi / (m+1)) with sine eigenvectors
    u_s^(q) = kappa sin(q s pi / (m+1)), returned sorted ascending.
    """
    m = _count("size", m)
    s = np.arange(1, m + 1)
    theta = s * np.pi / (m + 1)
    vals = a0 + 2.0 * a1 * np.cos(theta)
    q = np.arange(1, m + 1)
    vecs = np.sin(np.outer(q, theta)) * np.sqrt(2.0 / (m + 1))
    order = np.argsort(vals, kind="stable")
    return EigenDecomposition(values=vals[order], vectors=vecs[:, order])


def capacitance_eigenpairs_oracle(a0: float, a1: float, m: int) -> EigenDecomposition:
    """Eigenpairs of the corner-corrected chain capacitance_1d(a0, a1, m).

    lambda_s = a0 + 2 a1 cos(s pi / m), s = 0..m-1, with cosine eigenvectors
    u_s^(q) = kappa_s cos((q - 1/2) s pi / m); here the even-index vectors
    are exactly resolved by the m-point bin grid.
    """
    m = _count("size", m)
    s = np.arange(m)
    vals = a0 + 2.0 * a1 * np.cos(s * np.pi / m)
    q = np.arange(1, m + 1)
    vecs = np.cos(np.outer(q - 0.5, s * np.pi / m))
    vecs /= np.linalg.norm(vecs, axis=0)
    order = np.argsort(vals, kind="stable")
    return EigenDecomposition(values=vals[order], vectors=vecs[:, order])


# ---------------------------------------------------------------------------
# scenarios

# None marks a parameter derived from others (index; k, from the symbol), optional (external_matrix's
# symbol) or required (matrix).  grid is a run-level key every scenario takes.
SCENARIOS = {
    "periodic_nn": {"a0": 2.0, "a1": -1.0, "m": 80},
    "periodic_symbol": {"m": 30, "symbol": "exponential"},
    "ssh": {"s1": 1.0, "s2": 2.0, "dimers_per_side": 20},
    "dislocated": {"s1": 1.0, "s2": 2.0, "d": 4.0, "dimers_per_side": 10},
    "compact_defect": {"s1": 1.0, "s2": 2.0, "n": 80, "delta": 0.5, "index": None},
    "external_matrix": {"matrix": None, "k": None, "symbol": None},
}
# name -> (type, help) of every scenario parameter, in CLI flag order.
PARAMS = {
    "m": (int, "system size in blocks/sites"),
    "n": (int, "site count (compact_defect)"),
    "dimers_per_side": (int, None),
    "index": (int, "1-based defect site"),
    "k": (int, "block size (external_matrix; default: the symbol's, or 1 without one)"),
    "a0": (float, None), "a1": (float, None), "s1": (float, None), "s2": (float, None),
    "d": (float, "dislocated spacing"),
    "delta": (float, "compact defect strength"),
    "matrix": (str, "matrix CSV/JSON path (external_matrix)"),
    "symbol": (str, "reference symbol JSON file, inline JSON, or builtin name"),
}


@dataclass
class ScenarioResult:
    """Everything a reconstruction run produces, ready for serialization.

    gap_report is what detect_gaps returns and stats what compare_to_symbol
    returns; both are None without a reference symbol.
    """

    scenario: str
    params: dict
    k: int
    matrix: FiniteMatrix
    points: Points
    bands: symbols.BandStructure | None
    gap_report: dict | None
    stats: dict | None

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
            out["n_gaps"] = len(self.gap_report["gaps"])
            out["n_gap_modes"] = len(self.gap_report["gap_modes"])
            out["gaps"] = self.gap_report["gaps"]
        if self.stats is not None:
            out["errors"] = self.stats
        return out


def _scenario_setup(name: str, p: dict):
    """Build (matrix-or-pair, reference symbol, k) from the scenario's parameters p, adding the derived ones."""
    if name == "periodic_nn":
        mat = matrices.capacitance_1d(p["a0"], p["a1"], p["m"])
        return mat, symbols.nearest_neighbour_symbol(p["a0"], p["a1"]), 1
    if name == "periodic_symbol":
        sym = symbols.symbol_from_source(p["symbol"])
        if sym.tail_bound is not None:
            p["truncation_tail_bound"] = sym.tail_bound
        return matrices.toeplitz_matrix(sym, p["m"]), sym, sym.k
    if name == "ssh":
        mat = matrices.ssh_matrix(p["s1"], p["s2"], p["dimers_per_side"])
    elif name == "dislocated":
        mat = matrices.dislocated_chain(p["s1"], p["s2"], p["d"], p["dimers_per_side"])
    elif name == "compact_defect":
        spacings = matrices.dimer_alternation(p["s1"], p["s2"], _count("chain sites", p["n"], least=2) - 1)
        base = matrices.chain_capacitance(spacings)
        p.setdefault("index", matrices.center_index(p["n"]))
        mat = matrices.compact_perturbation(base, p["index"], p["delta"])
    else:  # external_matrix: read through the symbol's block size, or 1 without a symbol
        if "matrix" not in p:
            raise ValueError("external_matrix scenario needs a 'matrix' path")
        mat = matrices.load_matrix(p["matrix"])
        sym = symbols.symbol_from_source(p["symbol"]) if "symbol" in p else None  # "" and {} too
        k = p.setdefault("k", sym.k if sym is not None else 1)
        if sym is not None and k != sym.k:
            raise ValueError(f"k = {k} differs from the block size {sym.k} of the reference symbol")
        return mat, sym, k
    return mat, symbols.dimer_symbol(p["s1"], p["s2"]), 2


def run_scenario(config: dict) -> ScenarioResult:
    """Build the scenario matrix, reconstruct, and attach gap and error reports.

    config holds {"scenario": name} and the scenario's parameters.  A key
    the scenario leaves unread (see SCENARIOS) is refused, and each value is
    converted once to its type in PARAMS, so the recorded params are the
    ones used, derived ones included.  The reference bands come from the
    scenario's underlying periodic symbol where one exists and are sampled
    before the eigensolve; bands that symbols.check_assumptions finds not
    even in alpha or not monotone in |alpha|, or whose ranges overlap by
    more than CROSSING_TOL * max|lambda|, are refused there, with its
    failure notes, since one |alpha| is recovered per eigenvector.  The
    gaps come from those sampled bands, the errors from the symbol itself
    (compare_to_symbol).  A grid that fails symbols.checked_grid is refused
    first, before any file is read.
    """
    cfg = dict(config)
    name = cfg.pop("scenario", None)
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ValueError(f"scenario must be one of {', '.join(SCENARIOS)}, got {name!r}")
    grid = symbols.checked_grid(cfg.pop("grid", DEFAULT_GRID))
    _refuse_unread(cfg, SCENARIOS[name], f"scenario {name!r}")
    params = {key: value for key, value in SCENARIOS[name].items() if value is not None}
    for key, value in cfg.items():
        kind = PARAMS[key][0]
        if value is not None:  # null counts as not given, as an unset flag does
            params[key] = _text(key, value, inline=(key == "symbol")) if kind is str else _number(key, value, kind)

    built, sym, k = _scenario_setup(name, params)
    bands = None
    if sym is not None:  # before the eigensolve, so a new memo entry is not allocated above its n^2 buffers
        bands = symbols.band_functions(sym, grid)
        report = symbols.check_assumptions(bands)
        sep = report["min_band_separation"]  # None for one band; 0 for touching bands, which still run
        overlap = sep is not None and sep < -symbols.CROSSING_TOL * float(np.abs(bands.values).max())
        if not (report["even"] and report["monotone"]) or overlap:
            raise ValueError("the reference bands cannot be reconstructed, as one |alpha| is recovered per "
                             f"eigenvector: {'; '.join(report['failures'])}")
    points = reconstruct_bands(built, k)
    matrix = built.bc if isinstance(built, PerturbedPair) else built

    gap_report = stats = None
    if bands is not None:
        gap_report = detect_gaps(bands, points.lam, points.alpha_est)
        # a gap mode of a chain too short for the trimmed fit (ssh dimers_per_side 2) reads no evanescent fit
        points.localized[[g["index"] for g in gap_report["gap_modes"]]] = True
        stats = compare_to_symbol(points, sym)
    return ScenarioResult(scenario=name, params=params, k=k, matrix=matrix,
                          points=points, bands=bands, gap_report=gap_report, stats=stats)
