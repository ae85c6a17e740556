"""Matrix symbols on the unit circle and their band functions.

A symbol is a finitely supported family of k x k Fourier coefficient blocks
a_s; evaluating sum_s a_s e^{i alpha s} at each point of a quasiperiodicity
grid and diagonalising gives the band functions lambda_1 <= ... <= lambda_k.
Only Hermitian symbols (a_{-s} equal to the conjugate transpose of a_s) are
accepted; everything downstream relies on real, sorted bands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .transform import brillouin_sample, polarize

HERMITIAN_TOL = 1e-12
CROSSING_TOL = 1e-8
EVENNESS_TOL = 1e-8
VAN_DER_HOVE_TOL = 1e-6
MIN_CHECK_GRID = 16  # smallest grid check_assumptions (and a scenario run) accepts


@dataclass(frozen=True)
class TailModel:
    """Decay descriptor for symbols truncated from an infinite series.

    Power-law coefficients use (exponent, constant); geometric decay sets
    geometric_ratio, which gives the exact dropped-tail sum.
    """

    exponent: float
    constant: float
    geometric_ratio: float | None = None

    def tail_bound(self, r: int) -> float:
        """Upper bound on sum_{|s|>r} ||a_s|| implied by the decay model."""
        if self.geometric_ratio is not None:
            q = self.geometric_ratio
            return 2.0 * self.constant * q ** (r + 1) / (1.0 - q)
        if self.exponent <= 1.0:
            return float("inf")
        return 2.0 * self.constant * (r ** (1.0 - self.exponent)) / (self.exponent - 1.0)


@dataclass(frozen=True)
class Symbol:
    k: int
    coeffs: dict[int, np.ndarray]
    tail_model: TailModel | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"block size must be positive, got {self.k}")
        clean = {}
        for s, block in self.coeffs.items():
            block = np.asarray(block, dtype=complex)
            if block.shape != (self.k, self.k):
                raise ValueError(f"coefficient block at offset {s} has shape {block.shape}, expected {(self.k, self.k)}")
            if not np.all(np.isfinite(block)):
                raise ValueError(f"coefficient block at offset {s} has non-finite (NaN or inf) entries")
            block.setflags(write=False)
            clean[int(s)] = block
        scale = max((float(np.max(np.abs(b))) for b in clean.values()), default=0.0)
        for s, block in clean.items():
            if -s not in clean:
                raise ValueError(f"support is not symmetric: offset {s} present but {-s} missing")
            defect = float(np.max(np.abs(clean[-s] - block.conj().T))) / max(1.0, scale)
            if defect > HERMITIAN_TOL:
                raise ValueError(f"non-Hermitian symbol: a_{-s} != a_{s}^* with relative defect "
                                 f"{defect:g} (tolerance {HERMITIAN_TOL:g})")
        object.__setattr__(self, "coeffs", clean)

    @property
    def r_max(self) -> int:
        return max((abs(s) for s in self.coeffs), default=0)

    @property
    def support(self) -> list[int]:
        return sorted(self.coeffs)


def evaluate_symbol(sym: Symbol, alpha: float) -> np.ndarray:
    """f(e^{i alpha}) = sum_s a_s e^{i alpha s}; Hermitian for valid symbols."""
    out = np.zeros((sym.k, sym.k), dtype=complex)
    for s, block in sym.coeffs.items():
        out += block * np.exp(1j * alpha * s)
    return out


@dataclass(frozen=True)
class BandStructure:
    """Sampled bands: values[p, j] = lambda_{p+1}(alpha_j), ascending in p."""

    alphas: np.ndarray        # (m,) grid, ascending from -pi
    values: np.ndarray        # (k, m) real
    vectors: np.ndarray       # (m, k, k) complex, column p is u_{p+1}(alpha_j)
    derivatives: np.ndarray   # (k, m) finite-difference lambda'
    hermitian_defect: float = 0.0  # max|f - f^H| / max(1, max|f|) over the grid

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.alphas.size

    def band_ranges(self) -> list[tuple[float, float]]:
        return [(float(v.min()), float(v.max())) for v in self.values]

    def values_at(self, alpha) -> np.ndarray:
        """Piecewise-linear interpolation of every band at |alpha| in [0, pi].

        Uses lambda_p(alpha) = lambda_p(-alpha) and closes the grid at pi with
        the value at alphas[0] (-pi for even m, -(m-1)pi/m for odd m): either
        way this is the 2 pi-periodic linear interpolant of the grid at |alpha|.
        """
        a = np.abs(np.atleast_1d(np.asarray(alpha, dtype=float)))
        nonneg = self.alphas >= 0.0
        grid = np.concatenate([self.alphas[nonneg], [np.pi]])
        out = np.empty((self.k, a.size))
        for p in range(self.k):
            vals = np.concatenate([self.values[p, nonneg], [self.values[p, 0]]])
            out[p] = np.interp(a, grid, vals)
        return out


def band_functions(sym: Symbol, m: int) -> BandStructure:
    """Diagonalise the symbol on the m-point quasiperiodicity grid.

    Eigenvalues are sorted ascending per grid point, eigenvectors are unit
    and phase-polarized, and derivatives come from central differences
    (one-sided at the grid ends).  Evaluations must be Hermitian to 1e-10
    relative to max(1, max|f|).
    """
    if m < 2:
        raise ValueError(f"grid size must be at least 2, got {m}")
    alphas = brillouin_sample(m)
    k = sym.k
    values = np.empty((k, m))
    vectors = np.empty((m, k, k), dtype=complex)
    evaluations = np.empty((m, k, k), dtype=complex)
    for j, a in enumerate(alphas):
        evaluations[j] = f = evaluate_symbol(sym, a)
        vals, vecs = np.linalg.eigh(f)
        values[:, j] = vals
        for p in range(k):
            vectors[j, :, p] = polarize(vecs[:, p])
    asym = np.max(np.abs(evaluations - evaluations.conj().transpose(0, 2, 1)))
    defect = float(asym) / max(1.0, float(np.max(np.abs(evaluations))))
    if defect > 1e-10:
        raise ValueError(f"symbol evaluation departs from Hermitian by {defect:g} relative to max(1, max|f|)")
    return BandStructure(alphas=alphas, values=values, vectors=vectors,
                         derivatives=np.gradient(values, 2.0 * np.pi / m, axis=1),
                         hermitian_defect=defect)


@dataclass(frozen=True)
class AssumptionReport:
    """Structured pass/fail for the band-structure regularity conditions."""

    bands_disjoint: bool
    no_van_der_hove: bool
    hermitian: bool
    even: bool
    min_band_separation: float
    min_interior_slope: float
    evenness_defect: float
    details: str = ""

    @property
    def passed(self) -> bool:
        return self.bands_disjoint and self.no_van_der_hove and self.hermitian and self.even


def evenness(bs: BandStructure) -> tuple[float, bool]:
    """(max_p max_j |lambda_p(alpha_j) - lambda_p(-alpha_j)|, whether it is within tolerance).

    The tolerance is EVENNESS_TOL * max(1, max|lambda|).  The transform
    recovers |alpha| only, so bands that are not even in alpha cannot be
    reconstructed.  -alpha_j is grid point (2 (m // 2) - j) mod m.
    """
    mirror = (2 * (bs.m // 2) - np.arange(bs.m)) % bs.m
    defect = float(np.max(np.abs(bs.values - bs.values[:, mirror])))
    return defect, defect <= EVENNESS_TOL * max(1.0, float(np.max(np.abs(bs.values))))


def check_assumptions(bs: BandStructure, tol: float = VAN_DER_HOVE_TOL) -> AssumptionReport:
    """Check band-range disjointness, nonvanishing interior slopes, Hermitianness and evenness.

    Slopes are checked on interior grid points only, excluding the symmetry
    points alpha in {0, -pi} where the derivative vanishes for any even band.
    """
    if bs.m < MIN_CHECK_GRID:
        raise ValueError(f"assumption checks need a grid of size >= {MIN_CHECK_GRID}, got {bs.m}")
    ranges = bs.band_ranges()
    separations = [ranges[p + 1][0] - ranges[p][1] for p in range(len(ranges) - 1)]
    min_sep = min(separations) if separations else float("inf")
    bands_disjoint = min_sep > CROSSING_TOL

    interior = ~(np.isclose(bs.alphas, 0.0) | np.isclose(bs.alphas, -np.pi) | np.isclose(bs.alphas, np.pi))
    min_slope = float(np.min(np.abs(bs.derivatives[:, interior])))
    no_vdh = min_slope > tol

    hermitian = bs.hermitian_defect <= HERMITIAN_TOL
    even_defect, even = evenness(bs)
    notes = []
    if not bands_disjoint:
        notes.append(f"band ranges separated by only {min_sep:g}")
    if not no_vdh:
        notes.append(f"interior slope as small as {min_slope:g}")
    if not hermitian:
        notes.append(f"hermitian defect {bs.hermitian_defect:g}")
    if not even:
        notes.append(f"bands not even in alpha, max|lambda(alpha) - lambda(-alpha)| = {even_defect:g}")
    return AssumptionReport(bands_disjoint=bands_disjoint, no_van_der_hove=no_vdh,
                            hermitian=hermitian, even=even, min_band_separation=min_sep,
                            min_interior_slope=min_slope, evenness_defect=even_defect,
                            details="; ".join(notes))


def banded_truncation(sym: Symbol, r: int) -> Symbol:
    """Drop every coefficient block with |s| > r; block size is unchanged."""
    if r < 0:
        raise ValueError(f"band radius must be nonnegative, got {r}")
    kept = {s: b for s, b in sym.coeffs.items() if abs(s) <= r}
    return Symbol(k=sym.k, coeffs=kept, tail_model=sym.tail_model)


def symbol_sup_norm(sym: Symbol, samples: int = 4096) -> float:
    """Max spectral norm of f(e^{i alpha}) over a uniform grid of quasiperiodicities.

    A lower bound that converges to the true sup norm as samples grow; the
    grid always contains alpha = 0.
    """
    if samples < 64:
        raise ValueError(f"need at least 64 samples, got {samples}")
    best = 0.0
    for a in brillouin_sample(samples):
        best = max(best, float(np.linalg.norm(evaluate_symbol(sym, a), 2)))
    return best


def symbol_difference_sup_norm(sym_a: Symbol, sym_b: Symbol, samples: int = 4096) -> float:
    """Sampled sup norm of f_a - f_b; used for truncation error measurements."""
    if sym_a.k != sym_b.k:
        raise ValueError("symbols must share the block size")
    diff = dict(sym_a.coeffs)
    zero = np.zeros((sym_a.k, sym_a.k), dtype=complex)
    for s, b in sym_b.coeffs.items():
        diff[s] = diff.get(s, zero) - b
    return symbol_sup_norm(Symbol(k=sym_a.k, coeffs=diff), samples)


# ---------------------------------------------------------------------------
# builders

def nearest_neighbour_symbol(a0: float, a1: float, am1: float | None = None) -> Symbol:
    """Scalar symbol a_0 + a_1 z + a_{-1} z^{-1} of a monomer chain."""
    if am1 is None:
        am1 = a1
    return Symbol(k=1, coeffs={0: [[a0]], 1: [[a1]], -1: [[am1]]})


def cell_chain_symbol(spacings) -> Symbol:
    """k-band symbol of the periodic chain whose unit cell has the given spacings.

    spacings[i] separates cell sites i+1 and i+2 for i < k-1; the last entry
    wraps to the first site of the next cell.  Couplings follow the
    nearest-neighbour capacitance rule (-1/spacing off the diagonal, with
    the diagonal collecting 1/s from both neighbours).
    """
    s = [float(x) for x in spacings]
    if not s or any(x <= 0 for x in s):
        raise ValueError("need a nonempty list of positive spacings")
    k, inv = len(s), 1.0 / np.array(s)
    a0 = np.diag(np.roll(inv, 1) + inv) - np.diag(inv[:-1], 1) - np.diag(inv[:-1], -1)
    am1 = np.zeros((k, k))
    am1[k - 1, 0] = -1.0 / s[-1]  # last cell site couples into the next cell
    return Symbol(k=k, coeffs={0: a0, 1: am1.T.copy(), -1: am1})


def dimer_symbol(s1: float, s2: float) -> Symbol:
    """Two-band symbol of the infinite dimer chain with spacings (s1, s2)."""
    return cell_chain_symbol([s1, s2])


def exponential_symbol(r_max: int = 40) -> Symbol:
    """Scalar long-range symbol with coefficients -2^{-|p|}, truncated at r_max.

    The dropped tail is bounded by 2^{1-r_max} (< 1e-10 for the default),
    recorded in the tail model.
    """
    coeffs = {p: [[-(2.0 ** -abs(p))]] for p in range(-r_max, r_max + 1)}
    tail = TailModel(exponent=float("inf"), constant=1.0, geometric_ratio=0.5)
    return Symbol(k=1, coeffs=coeffs, tail_model=tail)


# ---------------------------------------------------------------------------
# serialization

def symbol_to_dict(sym: Symbol) -> dict:
    entries = []
    for s in sym.support:
        block = sym.coeffs[s]
        entries.append({"s": s, "re": block.real.tolist(), "im": block.imag.tolist()})
    return {"k": sym.k, "coeffs": entries}


def complex_from_parts(obj, where: str) -> np.ndarray:
    """re + 1j im from a {"re": ..., "im": ...} object; im defaults to zero, else must match re."""
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValueError(f"{where}: expected an object with an 're' array")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
    if im.shape != re.shape:
        raise ValueError(f"{where}: 'im' has shape {im.shape} but 're' has shape {re.shape}")
    return re + 1j * im


def symbol_from_dict(data: dict) -> Symbol:
    try:
        k = int(data["k"])
        coeffs = {}
        for entry in data["coeffs"]:
            s = int(entry["s"])
            coeffs[s] = complex_from_parts(entry, f"coefficient block at offset {s}")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed symbol description: {exc}") from exc
    if not coeffs:  # k alone would size every later array
        raise ValueError("malformed symbol description: no coefficient blocks")
    return Symbol(k=k, coeffs=coeffs)


def save_symbol(sym: Symbol, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(symbol_to_dict(sym), fh, indent=1)
        fh.write("\n")


def load_symbol(path) -> Symbol:
    with open(path, encoding="utf-8") as fh:
        return symbol_from_dict(json.load(fh))


def symbol_from_source(source) -> Symbol:
    """A builtin name (monomer, dimer, exponential), a symbol object or its JSON text, or a JSON path."""
    builtin = {"monomer": lambda: nearest_neighbour_symbol(2.0, -1.0),
               "dimer": lambda: dimer_symbol(1.0, 2.0), "exponential": exponential_symbol}
    if isinstance(source, dict):
        return symbol_from_dict(source)
    if source in builtin:
        return builtin[source]()
    if source.lstrip().startswith("{"):
        return symbol_from_dict(json.loads(source))
    return load_symbol(source)
