"""End-to-end band reconstruction pipelines.

Take a finite chain matrix, eigendecompose it, recover a quasiperiodicity
for every eigenvector from its projection masses, and assemble the
reconstructed band diagram together with gap and localization reports.
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
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
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

SCENARIOS = ("periodic_nn", "periodic_symbol", "ssh", "dislocated",
             "compact_defect", "external_matrix")


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


def _scenario_setup(name: str, params: dict):
    """Build (matrix-or-pair, reference symbol, k) for a named scenario."""
    p = dict(params)
    if name == "periodic_nn":
        a0 = float(p.setdefault("a0", 2.0))
        a1 = float(p.setdefault("a1", -1.0))
        am1 = float(p.setdefault("am1", a1))
        m = int(p.setdefault("m", 80))
        mat = matrices.capacitance_1d(a0, a1, am1, m)
        sym = symbols.nearest_neighbour_symbol(a0, a1, am1)
        return mat, sym, 1, p
    if name == "periodic_symbol":
        m = int(p.setdefault("m", 30))
        sym = symbols.symbol_from_source(p.get("symbol", "exponential"))
        if sym.tail_model is not None:
            p["truncation_tail_bound"] = sym.tail_model.tail_bound(sym.r_max)
        mat = matrices.toeplitz_matrix(sym, m)
        return mat, sym, sym.k, p
    if name == "ssh":
        s1 = float(p.setdefault("s1", 1.0))
        s2 = float(p.setdefault("s2", 2.0))
        m = int(p.setdefault("dimers_per_side", 20))
        if "alpha" in p:
            mat = matrices.ssh_matrix(float(p["alpha"]), float(p["alpha_tilde"]), float(p["eta"]),
                                      float(p["beta1"]), float(p["beta2"]), m)
        else:
            mat = matrices.ssh_matrix(m=m, **matrices.ssh_params_from_spacings(s1, s2))
        return mat, symbols.dimer_symbol(s1, s2), 2, p
    if name == "dislocated":
        s1 = float(p.setdefault("s1", 1.0))
        s2 = float(p.setdefault("s2", 2.0))
        d = float(p.setdefault("d", 4.0))
        dps = int(p.setdefault("dimers_per_side", 10))
        return matrices.dislocated_chain(s1, s2, d, dps), symbols.dimer_symbol(s1, s2), 2, p
    if name == "compact_defect":
        s1 = float(p.setdefault("s1", 1.0))
        s2 = float(p.setdefault("s2", 2.0))
        n = int(p.setdefault("n", 80))
        delta = float(p.setdefault("delta", 0.5))
        base = matrices.chain_capacitance(matrices.dimer_alternation(s1, s2, n - 1))
        index = int(p.setdefault("index", matrices.center_index(n)))
        pair = matrices.compact_perturbation(base, index, delta)
        return pair, symbols.dimer_symbol(s1, s2), 2, p
    if name == "external_matrix":
        if "matrix" not in p:
            raise ValueError("external_matrix scenario needs a 'matrix' path")
        k = int(p.setdefault("k", 1))
        mat = matrices.load_matrix(p["matrix"], k=k)
        sym = symbols.symbol_from_source(p["symbol"]) if p.get("symbol") else None
        return mat, sym, k, p
    raise ValueError(f"unknown scenario {name!r}; choose one of {SCENARIOS}")


def run_scenario(config: dict) -> ScenarioResult:
    """Build the scenario matrix, reconstruct, and attach gap and error reports.

    config holds at least {"scenario": name}; scenario parameters may sit
    either at the top level or under "params".  The reference bands come
    from the scenario's underlying periodic symbol where one exists; bands
    that are not even in alpha are refused, since only |alpha| is recovered.
    """
    cfg = dict(config)
    name = cfg.pop("scenario", None)
    if name is None:
        raise ValueError("config needs a 'scenario' field")
    params = dict(cfg.pop("params", {}))
    grid = int(cfg.pop("grid", DEFAULT_GRID))
    margin = cfg.pop("margin", None)
    params.update(cfg)

    built, sym, k, resolved = _scenario_setup(name, params)
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
        gap_report = detect_gaps(bands, values, margin=float(margin), points=points)
        in_gap = {g.index for g in gap_report.gap_modes}
        for p in points:
            p.localized = p.localized or (p.index in in_gap)
        stats = compare_to_symbol(points, bands, edge_margin=edge)
    return ScenarioResult(scenario=name, params=resolved, k=k, matrix=matrix,
                          points=points, bands=bands, gap_report=gap_report, stats=stats)
