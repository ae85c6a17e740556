"""Matrix symbols on the unit circle and their band functions.

A symbol is a finitely supported family of k x k Fourier coefficient blocks
a_s; evaluating sum_s a_s e^{i alpha s} at each point of a quasiperiodicity
grid and diagonalising gives the band functions lambda_1 <= ... <= lambda_k.
Only Hermitian symbols (a_{-s} equal to the conjugate transpose of a_s) are
accepted; everything downstream relies on real, sorted bands.

band_functions keeps the bands it sampled in a least-recently-used table of
at most BAND_MEMO_SIZE entries per process, keyed by exactly what it reads:
(m, k, offsets bytes, blocks bytes), and returns the stored read-only
BandStructure for a repeated symbol and grid; a refused input is never stored.
This is the one eviction rule: the bands.csv bytes outputs keeps go with it.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .transform import _count, _number, brillouin_sample, polarize

HERMITIAN_TOL = 1e-12
CROSSING_TOL = 1e-8
EVENNESS_TOL = 1e-8
VAN_DER_HOVE_TOL = 1e-6
MIN_CHECK_GRID = 16  # smallest grid band_functions, hence every BandStructure, and a scenario run accept
BAND_MEMO_SIZE = 8  # band structures band_functions keeps, least recently used dropped first
OFFSET_MAX = np.iinfo(np.int64).max  # largest |s| of a symbol offset; offsets and -offsets are int64
HERMITIAN_RULE = f"max|A - A^H| <= {HERMITIAN_TOL:g} * max|A|"  # FiniteMatrix.hermitian, quoted by its refusals


def relative_defect(difference, scale: float) -> float:
    """max|difference| / scale, scale the largest |entry| tested, 0 for a zero difference: no floor, no units."""
    worst = float(np.max(np.abs(difference), initial=0.0))
    return worst / scale if worst else 0.0


def checked_grid(grid: int) -> int:
    """grid as an int by _number's rule when even and at least MIN_CHECK_GRID, else ValueError; band_functions' rule.

    Gap edges come from the band samples, and an odd grid never samples
    alpha = pi, where every band that is even in alpha has a critical point.
    """
    grid = _number("grid", grid, int)
    if grid < MIN_CHECK_GRID or grid % 2:
        raise ValueError(f"grid must be an even number of at least {MIN_CHECK_GRID}, got {grid}")
    return grid


def checked_spacings(spacings) -> np.ndarray:
    """spacings as a 1-d float array when there is at least one and all are finite and positive, else ValueError."""
    s = np.asarray(spacings, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("need at least one spacing")
    if not np.all(np.isfinite(s)):
        raise ValueError("spacings must be finite")
    if np.any(s <= 0):
        raise ValueError("spacings must be positive")
    return s


@dataclass(frozen=True, eq=False)
class Symbol:
    """Blocks a_s by offset s; tail_bound, where known, bounds the sup norm of blocks a longer series dropped.

    k, at least 1, and each offset s are ints and tail_bound a float by transform._number's rule (2.0 is
    read as 2).  offsets and blocks stack the coefficients in ascending offset order, (S,) and (S, k, k),
    for evaluate_symbol; two symbols are equal when their k, tail_bound, offsets and blocks are.
    """

    k: int
    coeffs: dict[int, np.ndarray]
    tail_bound: float | None = None
    offsets: np.ndarray = field(init=False, repr=False)
    blocks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "k", _count("block size", self.k))
        if self.tail_bound is not None:
            object.__setattr__(self, "tail_bound", _number("tail_bound", self.tail_bound, float))
            if not 0.0 <= self.tail_bound < math.inf:
                raise ValueError(f"tail bound must be finite and nonnegative, got {self.tail_bound}")
        clean = {}
        for s, block in self.coeffs.items():
            s = _number("offset s", s, int)
            if abs(s) > OFFSET_MAX:
                raise ValueError(f"offset s must be a 64-bit integer, got {s}")
            block = np.array(block, dtype=complex)  # a copy: freezing it leaves the caller's array writable
            if block.shape != (self.k, self.k):
                raise ValueError(f"coefficient block at offset {s} has shape {block.shape}, expected {(self.k, self.k)}")
            if not np.all(np.isfinite(block)):
                raise ValueError(f"coefficient block at offset {s} has non-finite (NaN or inf) entries")
            block.setflags(write=False)
            clean[s] = block
        scale = max((float(np.max(np.abs(b))) for b in clean.values()), default=0.0)
        for s, block in clean.items():
            if -s not in clean:
                raise ValueError(f"support is not symmetric: offset {s} present but {-s} missing")
            defect = relative_defect(clean[-s] - block.conj().T, scale)
            if defect > HERMITIAN_TOL:
                raise ValueError(f"non-Hermitian symbol: a_{-s} != a_{s}^* with relative defect "
                                 f"{defect:g} (tolerance {HERMITIAN_TOL:g})")
        object.__setattr__(self, "coeffs", clean)
        offsets = np.array(sorted(clean), dtype=int)
        blocks = np.array([clean[s] for s in offsets], dtype=complex).reshape(-1, self.k, self.k)
        offsets.setflags(write=False)
        blocks.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "blocks", blocks)

    def __eq__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return (self.k, self.tail_bound) == (other.k, other.tail_bound) and \
            np.array_equal(self.offsets, other.offsets) and np.array_equal(self.blocks, other.blocks)

    @property
    def r_max(self) -> int:
        return max((abs(s) for s in self.coeffs), default=0)

    @property
    def support(self) -> list[int]:
        return sorted(self.coeffs)


def evaluate_symbol(sym: Symbol, alpha: float) -> np.ndarray:
    """f(e^{i alpha}) = sum_s a_s e^{i alpha s}, summed in ascending s; Hermitian for valid symbols."""
    return np.einsum("s,skl->kl", np.exp(1j * alpha * sym.offsets), sym.blocks)


def evaluate_symbol_at(sym: Symbol, alphas: np.ndarray) -> np.ndarray:
    """f(e^{i alpha}) at each of the 1-d alphas, shape (alphas.size, k, k); evaluate_symbol at each, bit for bit."""
    return np.einsum("ps,skl->pkl", np.exp(1j * alphas[:, None] * sym.offsets), sym.blocks)


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Sampled bands: values[p, j] = lambda_{p+1}(alpha_j), ascending in p.

    Its four arrays are made read-only on construction, so what is derived from
    it (outputs.write_bands_csv keeps its file bytes while it lives) stays
    valid; two band structures are equal only when they are the same object.
    """

    alphas: np.ndarray        # (m,) grid, ascending from -pi through 0; m passes checked_grid
    values: np.ndarray        # (k, m) real
    vectors: np.ndarray       # (m, k, k) complex, column p is u_{p+1}(alpha_j)
    derivatives: np.ndarray   # (k, m) finite-difference lambda'
    hermitian_defect: float = 0.0  # relative_defect(f - f^H, max|f|) over the grid

    def __post_init__(self):
        for array in (self.alphas, self.values, self.vectors, self.derivatives):
            array.setflags(write=False)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.alphas.size

    def band_ranges(self) -> list[tuple[float, float]]:
        return [(float(v.min()), float(v.max())) for v in self.values]

    def values_at(self, alpha) -> np.ndarray:
        """Piecewise-linear interpolation of every band at |alpha| in [0, pi]: the SVG's band curves.

        Uses lambda_p(alpha) = lambda_p(-alpha): the grid points 0 .. pi - 2 pi/m, closed at pi by
        the value at alphas[0] = -pi, give the 2 pi-periodic linear interpolant of the grid at |alpha|.
        """
        a = np.abs(np.atleast_1d(np.asarray(alpha, dtype=float)))
        half = self.m // 2  # alphas[half] = 0
        grid = np.append(self.alphas[half:], np.pi)
        return np.array([np.interp(a, grid, np.append(band[half:], band[0])) for band in self.values])


_band_memo: OrderedDict[tuple, BandStructure] = OrderedDict()  # see band_functions


def band_functions(sym: Symbol, m: int) -> BandStructure:
    """Diagonalise the symbol on the m-point quasiperiodicity grid.

    m must pass checked_grid, so every BandStructure's grid holds alpha = -pi
    and alpha = 0, where every even band has a critical point.  Eigenvalues
    are sorted ascending per grid point, eigenvectors are unit with their
    first component real and nonnegative (polarize; no output reads that
    phase), and derivatives come from central differences (one-sided at the
    grid ends).  Evaluations must be finite and Hermitian to 1e-10 relative
    to max|f| (relative_defect), and bands and derivatives finite.  The
    (m, k, k) stack of evaluations is diagonalised by one eigh call and its
    m k eigenvectors are polarized by one polarize call, which give the same
    values and vectors as one call per grid point and per vector.

    The result is memoized on (m, sym.k, sym.offsets.tobytes(),
    sym.blocks.tobytes()), the bits it is computed from: an equal symbol at
    the same grid returns the same object, whose four arrays are read-only.
    At most BAND_MEMO_SIZE results are kept, the least recently used dropped
    first, and a refused input is never stored.
    """
    m = checked_grid(m)
    key = (m, sym.k, sym.offsets.tobytes(), sym.blocks.tobytes())
    if key in _band_memo:
        _band_memo.move_to_end(key)
        return _band_memo[key]
    alphas = brillouin_sample(m)
    evaluations = np.array([evaluate_symbol(sym, a) for a in alphas])  # a sum that overflows is inf, unwarned
    if not np.isfinite(evaluations).all():
        raise ValueError(f"the symbol's samples on the {m}-point grid overflow float64")
    defect = relative_defect(evaluations - evaluations.conj().transpose(0, 2, 1),
                             float(np.max(np.abs(evaluations))))
    if defect > 1e-10:
        raise ValueError(f"symbol evaluation departs from Hermitian by {defect:g} relative to max|f|")
    values, vectors = np.linalg.eigh(evaluations)
    vectors = polarize(vectors.transpose(1, 0, 2)).transpose(1, 0, 2)  # vector (j, p) runs along the middle axis
    values = values.T.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
        derivatives = np.gradient(values, 2.0 * np.pi / m, axis=1)
    if not np.isfinite(derivatives).all():  # a band value that is not finite makes a derivative so too
        raise ValueError(f"the symbol's bands or their slopes on the {m}-point grid overflow float64")
    bs = BandStructure(alphas=alphas, values=values, vectors=vectors, derivatives=derivatives,
                       hermitian_defect=defect)
    _band_memo[key] = bs
    if len(_band_memo) > BAND_MEMO_SIZE:
        _band_memo.popitem(last=False)
    return bs


def check_assumptions(bs: BandStructure) -> dict:
    """The one verdict on sampled bands: disjoint, steep and monotone in |alpha|, Hermitian and even in alpha.

    Returns {"bands_disjoint", "no_van_der_hove", "hermitian", "even", "monotone",
    "min_band_separation" (None for one band), "min_interior_slope", "evenness_defect", "failures"},
    failures holding one note per failed test and empty exactly when all pass.  Each tolerance is times
    max|lambda|: separations must exceed CROSSING_TOL, and the slopes off grid points 0 and m // 2
    (alpha = -pi and 0, where any even band's derivative vanishes) VAN_DER_HOVE_TOL.  A band is monotone
    when its slopes on (0, pi) above that tolerance have one sign, so a flat band's rounding changes none;
    no_van_der_hove is steep and monotone.  The evenness defect is max|lambda(alpha_j) - lambda(-alpha_j)|,
    -alpha_j being grid point m - j, and must stay within EVENNESS_TOL (relative_defect).  The transform
    recovers one |alpha| per eigenvector, so run_scenario refuses bands that are not even or not monotone.
    """
    scale = float(np.max(np.abs(bs.values)))
    ranges = bs.band_ranges()
    min_sep = min((ranges[p + 1][0] - ranges[p][1] for p in range(len(ranges) - 1)), default=None)
    bands_disjoint = min_sep is None or min_sep > CROSSING_TOL * scale

    half = bs.m // 2  # the one interior rule: alphas[0] = -pi and alphas[half] = 0 (checked_grid)
    steepness = np.abs(bs.derivatives)
    min_slope = float(min(steepness[:, 1:half].min(), steepness[:, half + 1:].min()))
    steep = min_slope > VAN_DER_HOVE_TOL * scale
    signs = np.sign(bs.derivatives[:, half + 1:]) * (steepness[:, half + 1:] > VAN_DER_HOVE_TOL * scale)
    first = signs[np.arange(bs.k), np.argmax(signs != 0, axis=1)]  # each band's first counted sign on (0, pi), if any
    flips = signs * first[:, None] < 0
    monotone = not flips.any()

    hermitian = bs.hermitian_defect <= HERMITIAN_TOL
    even_defect = float(np.max(np.abs(bs.values[:, 1:half] - bs.values[:, :half:-1])))
    even = relative_defect(even_defect, scale) <= EVENNESS_TOL
    failures = []
    if not bands_disjoint:
        failures.append(f"band ranges separated by only {min_sep:g}")
    if not steep:
        failures.append(f"interior slope as small as {min_slope:g}")
    if not monotone:
        p = int(np.argmax(flips.any(axis=1)))
        failures.append(f"band {p + 1} is not monotone in |alpha|: its slope changes sign at alpha = "
                        f"{bs.alphas[half + 1 + np.argmax(flips[p])]:g}")
    if not hermitian:
        failures.append(f"hermitian defect {bs.hermitian_defect:g}")
    if not even:
        failures.append(f"bands not even in alpha, max|lambda(alpha) - lambda(-alpha)| = {even_defect:g}")
    return {"bands_disjoint": bands_disjoint, "no_van_der_hove": steep and monotone, "hermitian": hermitian,
            "even": even, "monotone": monotone, "min_band_separation": min_sep, "min_interior_slope": min_slope,
            "evenness_defect": even_defect, "failures": failures}


def banded_truncation(sym: Symbol, r: int) -> Symbol:
    """Drop every block with |s| > r, adding their sum |a_s| over entries to tail_bound (0 when unknown)."""
    r = _count("band radius", r, least=0)
    kept = {s: b for s, b in sym.coeffs.items() if abs(s) <= r}
    dropped = sum(float(np.sum(np.abs(b))) for s, b in sym.coeffs.items() if abs(s) > r)
    return Symbol(k=sym.k, coeffs=kept, tail_bound=(sym.tail_bound or 0.0) + dropped)


def symbol_sup_norm(sym: Symbol, samples: int = 4096) -> float:
    """Max spectral norm of f(e^{i alpha}), max |lambda| of the Hermitian f, on the band_functions grid.

    A lower bound that converges to the true sup norm as samples grow;
    samples must pass checked_grid, so the grid holds alpha = 0 and pi.
    """
    return float(np.max(np.abs(band_functions(sym, samples).values)))


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

def nearest_neighbour_symbol(a0: float, a1: float) -> Symbol:
    """Scalar symbol a_0 + a_1 (z + z^{-1}) of a monomer chain."""
    return Symbol(k=1, coeffs={0: [[a0]], 1: [[a1]], -1: [[a1]]})


def cell_chain_symbol(spacings) -> Symbol:
    """k-band symbol of the periodic chain whose unit cell has the given spacings.

    spacings[i] separates cell sites i+1 and i+2 for i < k-1; the last entry
    wraps to the first site of the next cell.  Couplings follow the
    nearest-neighbour capacitance rule (-1/spacing off the diagonal, with
    the diagonal collecting 1/s from both neighbours).
    """
    s = checked_spacings(spacings)
    k, inv = s.size, 1.0 / s
    a0 = np.diag(np.roll(inv, 1) + inv) - np.diag(inv[:-1], 1) - np.diag(inv[:-1], -1)
    am1 = np.zeros((k, k))
    am1[k - 1, 0] = -1.0 / s[-1]  # last cell site couples into the next cell
    return Symbol(k=k, coeffs={0: a0, 1: am1.T.copy(), -1: am1})


def dimer_symbol(s1: float, s2: float) -> Symbol:
    """Two-band symbol of the infinite dimer chain with spacings (s1, s2)."""
    return cell_chain_symbol([s1, s2])


def exponential_symbol() -> Symbol:
    """Scalar long-range symbol with coefficients -2^{-|p|}, truncated at |p| = 40.

    The dropped tail sums to 2^{1-40} < 1e-10, its tail_bound;
    banded_truncation(exponential_symbol(), r) has tail_bound 2^{1-r}.
    """
    coeffs = {p: [[-(2.0 ** -abs(p))]] for p in range(-40, 41)}
    return Symbol(k=1, coeffs=coeffs, tail_bound=2.0 ** (1 - 40))


# ---------------------------------------------------------------------------
# serialization: reading outside values (flags, config files, symbol and matrix files) by transform._number's rule


def _text(name, value, inline=False):
    """A string from a flag or a config file (any JSON value); with inline=True also an object."""
    if isinstance(value, str) or (inline and isinstance(value, dict)):
        return value
    raise ValueError(f"{name} must be a string{' or an object' if inline else ''}, got {value!r}")


def _refuse_unread(obj, keys, reader: str) -> None:
    """ValueError unless obj is an object whose keys are all among keys, so a misspelt key is not skipped.

    The one refusal of a key nothing reads: "<reader> does not read <keys>; it takes <keys>", each unread key
    quoted by repr, so one holding a newline or a comma stays on the line and reads as one key.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{reader}: expected an object, got {type(obj).__name__}")
    unread = [repr(key) for key in obj if key not in keys]
    if unread:
        raise ValueError(f"{reader} does not read {', '.join(unread)}; it takes {', '.join(keys)}")


def complex_from_parts(obj, where: str, keys=("re", "im")) -> np.ndarray:
    """re + 1j im from a {"re", "im"} object with no key outside keys; im defaults to zero, else must match re."""
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValueError(f"{where}: expected an object with an 're' array")
    _refuse_unread(obj, keys, where)
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
    if im.shape != re.shape:
        raise ValueError(f"{where}: 'im' has shape {im.shape} but 're' has shape {re.shape}")
    return re + 1j * im


def symbol_to_dict(sym: Symbol) -> dict:
    """The symbol file's object (see symbol_from_dict); tail_bound only when the symbol has one."""
    entries = [{"s": s, "re": b.real.tolist(), "im": b.imag.tolist()} for s, b in sorted(sym.coeffs.items())]
    bound = {} if sym.tail_bound is None else {"tail_bound": sym.tail_bound}
    return {"k": sym.k, "coeffs": entries, **bound}


def symbol_from_dict(data: dict) -> Symbol:
    """The Symbol of {"k", "coeffs": [{"s", "re", "im"}, ...], "tail_bound"} (tail_bound optional).

    k and each offset s are integers and tail_bound a number by transform._number's rule; an offset
    given twice, a null tail_bound and a key that nothing reads are refused.
    """
    try:
        _refuse_unread(data, ("k", "coeffs", "tail_bound"), "symbol description")
        k, coeffs = data["k"], {}
        for entry in data["coeffs"]:
            s = _number("offset s", entry["s"], int)
            if s in coeffs:
                raise ValueError(f"offset {s} is given twice")
            coeffs[s] = complex_from_parts(entry, f"coefficient block at offset {s}", keys=("s", "re", "im"))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed symbol description: {exc}") from exc
    if not coeffs:  # k alone would size every later array
        raise ValueError("malformed symbol description: no coefficient blocks")
    bound = _number("tail_bound", data["tail_bound"], float) if "tail_bound" in data else None  # null is refused
    return Symbol(k=k, coeffs=coeffs, tail_bound=bound)


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
