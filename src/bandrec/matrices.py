"""Finite matrices of resonator chains.

Constructors for block Toeplitz sections and their circulant approximants,
1D capacitance chains (zero row sums, corner-corrected), dimerized chains
with a central pattern break, dislocated dimer chains, and single-site
multiplicative perturbations.  The chains are tridiagonal and are kept as
their three diagonals, validated on those O(n) entries; the Toeplitz and
circulant sections (one block placement per symbol offset) and external
files are dense and validated over all n^2 entries.  Either way FiniteMatrix
validates once: no NaN or inf entries and a Hermitian flag checked relative
to the largest entry.  Which form a matrix has decides its eigensolver (see
spectra); a chain writes its dense array only when something reads `data`.

Indexing in documentation and file formats is 1-based to match the usual
matrix displays; APIs translate internally.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .symbols import HERMITIAN_TOL, Symbol, complex_from_parts

KINDS = ("toeplitz", "circulant", "capacitance1d", "chain", "ssh",
         "dislocated", "perturbed", "external")


@dataclass(frozen=True, eq=False, init=False)
class FiniteMatrix:
    """A validated square matrix with its block size, kind and Hermitian flag.

    Built dense, FiniteMatrix(data=A, ...), or from its three diagonals,
    FiniteMatrix(diagonals=(diag, upper, lower), ...), with upper[i] the
    entry (i, i+1) and lower[i] the entry (i+1, i).  `diagonals` is set
    exactly when the matrix is real and tridiagonal: a dense real matrix
    whose nonzeros all lie on its three central diagonals records them.  A
    matrix built from its diagonals writes `data` on first read.  All arrays
    are read-only.
    """

    n: int
    k: int
    kind: str
    hermitian: bool
    diagonals: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    def __init__(self, data=None, k=1, kind="external", hermitian=False, *, diagonals=None):
        if kind not in KINDS:
            raise ValueError(f"unknown matrix kind {kind!r}")
        if diagonals is None:
            data = np.array(data)
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ValueError(f"matrix must be square, got shape {data.shape}")
            scale, asym = _finite_max_abs(data), (data - data.conj().T if hermitian else None)
            self.__dict__["data"] = data
            if not np.iscomplexobj(data) and np.count_nonzero(data) == sum(
                    np.count_nonzero(np.diagonal(data, o)) for o in (-1, 0, 1)):  # tridiagonal
                diagonals = tuple(np.diagonal(data, o) for o in (0, 1, -1))
        else:
            diag, upper, lower = diagonals = tuple(np.array(x, dtype=float) for x in diagonals)
            band = np.zeros((diag.size, 3))  # row i holds the entries (i, i-1), (i, i), (i, i+1)
            band[1:, 0], band[:, 1], band[:-1, 2] = lower, diag, upper
            scale, asym = _finite_max_abs(band, band=True), upper - lower
        if hermitian and (defect := _relative_defect(asym, scale)) > HERMITIAN_TOL:
            raise ValueError(f"hermitian flag set but the relative defect "
                             f"max|A - A^H| / max(1, max|A|) is {defect:g} "
                             f"(tolerance {HERMITIAN_TOL:g})")
        n = data.shape[0] if data is not None else diagonals[0].size
        if kind in ("toeplitz", "circulant") and n % k != 0:
            raise ValueError(f"size {n} is not a multiple of block size {k}")
        for x in (data, *(diagonals or ())):
            if x is not None:
                x.setflags(write=False)
        self.__dict__.update(n=n, k=k, kind=kind, hermitian=hermitian, diagonals=diagonals)

    @functools.cached_property
    def data(self) -> np.ndarray:
        """The dense array, written from the diagonals on first read when built from them."""
        data = _tridiagonal(*self.diagonals)
        data.setflags(write=False)
        return data


def _finite_max_abs(entries: np.ndarray, band: bool = False) -> float:
    """max |A_ij|, refusing NaN and inf entries with their first (1-based) position.

    entries is A itself or, with band=True, its n x 3 band layout (see
    FiniteMatrix); either way row-major order is A's.
    """
    scale = float(np.max(np.abs(entries), initial=0.0))
    if not math.isfinite(scale):
        bad = ~np.isfinite(entries)
        i, j = np.argwhere(bad)[0]
        j += i - 1 if band else 0
        raise ValueError(f"matrix has {np.count_nonzero(bad)} non-finite (NaN or inf) "
                         f"entries, the first at row {i + 1}, column {j + 1}")
    return scale


def _relative_defect(asym: np.ndarray, scale: float) -> float:
    """max |A - A^H| relative to max(1, max |A_ij|), so the test does not depend on units."""
    return float(np.max(np.abs(asym), initial=0.0)) / max(1.0, scale)


def _as_real_if_possible(a: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(a) and np.max(np.abs(a.imag)) == 0.0:
        return a.real.copy()
    return a


def _tridiagonal(diag, upper, lower) -> np.ndarray:
    """Dense real matrix with the given main, upper and lower diagonals, zero elsewhere."""
    n = len(diag)
    data = np.zeros((n, n))
    flat = data.reshape(-1)  # a view: stepping n + 1 walks along a diagonal
    flat[::n + 1] = diag
    flat[1::n + 1] = upper
    flat[n::n + 1] = lower
    return data


def _block_section(sym: Symbol, m: int, cyclic: bool) -> np.ndarray:
    """mk x mk array with block (i, j) = a_s for j = i - s, taken mod m when cyclic."""
    k = sym.k
    data = np.zeros((m, k, m, k), dtype=complex)
    rows = np.arange(m)
    for s, block in sym.coeffs.items():
        cols = rows - s
        if cyclic:
            data[rows, :, cols % m, :] = block
        else:
            inside = (cols >= 0) & (cols < m)
            data[rows[inside], :, cols[inside], :] = block
    return _as_real_if_possible(data.reshape(m * k, m * k))


def toeplitz_matrix(sym: Symbol, m: int) -> FiniteMatrix:
    """mk x mk section with block (i, j) = a_{i-j}, zero outside the support."""
    if m < 1:
        raise ValueError(f"block count must be positive, got {m}")
    return FiniteMatrix(data=_block_section(sym, m, cyclic=False), k=sym.k, kind="toeplitz", hermitian=True)


def circulant_matrix(sym: Symbol, m: int) -> FiniteMatrix:
    """Cyclically wrapped variant of the Toeplitz section.

    Requires m > 2 r_max so distinct coefficients never fold onto the same
    cyclic offset; folding would silently change the symbol.
    """
    if m <= 2 * sym.r_max:
        raise ValueError(f"circulant wraparound is ambiguous: need m > 2*r_max = {2 * sym.r_max}, got {m}")
    return FiniteMatrix(data=_block_section(sym, m, cyclic=True), k=sym.k, kind="circulant", hermitian=True)


def capacitance_1d(a0: float, a1: float, am1: float, m: int) -> FiniteMatrix:
    """Tridiagonal chain with the corner entries a0+am1 and a0+a1.

    The corner correction makes row sums vanish whenever a0 = -a1 - am1,
    the signature of a nearest-neighbour capacitance chain.
    """
    if m < 2:
        raise ValueError(f"chain needs at least 2 sites, got {m}")
    diag = np.concatenate([[a0 + am1], np.full(m - 2, a0), [a0 + a1]])
    return FiniteMatrix(diagonals=(diag, np.full(m - 1, a1), np.full(m - 1, am1)), k=1,
                        kind="capacitance1d", hermitian=(a1 == am1))


def _chain_diagonals(spacings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals of the capacitance matrix of a spacing sequence (see chain_capacitance)."""
    s = np.asarray(spacings, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("need at least one spacing")
    if np.any(s <= 0):
        raise ValueError("spacings must be positive")
    inv = 1.0 / s
    diag = np.concatenate([inv[:1], inv[:-1] + inv[1:], inv[-1:]])
    return diag, -inv, -inv


def chain_capacitance(spacings) -> FiniteMatrix:
    """Symmetric tridiagonal chain from a spacing sequence.

    Off-diagonal (i, i+1) is -1/s_i and the diagonal collects 1/s from the
    existing neighbours, so row sums are exactly zero and the constant
    vector spans the kernel.
    """
    return FiniteMatrix(diagonals=_chain_diagonals(spacings), k=1, kind="chain", hermitian=True)


def dimer_alternation(first: float, second: float, count: int) -> np.ndarray:
    """first, second, first, ...: entry i (1-based) is first for odd i and second for even i."""
    return np.where(np.arange(count) % 2 == 0, float(first), float(second))


def ssh_params_from_spacings(s1: float, s2: float) -> dict[str, float]:
    """Matrix entries implied by the capacitance rule on the SSH spacing sequence."""
    if s1 <= 0 or s2 <= 0:
        raise ValueError("spacings must be positive")
    return {
        "alpha": 1.0 / s1 + 1.0 / s2,
        "alpha_tilde": 1.0 / s1,
        "eta": 2.0 / s2,
        "beta1": -1.0 / s1,
        "beta2": -1.0 / s2,
    }


def ssh_matrix(alpha: float, alpha_tilde: float, eta: float,
               beta1: float, beta2: float, m: int) -> FiniteMatrix:
    """(4m+1) x (4m+1) dimerized chain with a single central defect site.

    Diagonal: alpha_tilde at both ends, eta at the centre, alpha elsewhere.
    Couplings from the edge alternate beta1, beta2 and mirror at the centre,
    so beta2 sits on both sides of the defect and the matrix is persymmetric.
    """
    if m < 1:
        raise ValueError(f"need at least one dimer per side, got {m}")
    diag = np.full(4 * m + 1, alpha, dtype=float)
    diag[[0, -1]] = alpha_tilde
    diag[2 * m] = eta
    half = dimer_alternation(beta1, beta2, 2 * m)
    couplings = np.concatenate([half, half[::-1]])
    return FiniteMatrix(diagonals=(diag, couplings, couplings), k=2, kind="ssh", hermitian=True)


def dislocated_spacing_sequence(s1: float, s2: float, d: float, dimers_per_side: int) -> list[float]:
    """Dimer-chain spacings with one intra-dimer gap stretched to d.

    The chain has 2*dimers_per_side dimers (4*dimers_per_side sites); the
    stretched gap is the intra-dimer spacing of the first dimer in the right
    half (1-based spacing index 2*dimers_per_side + 1), the intra gap nearest
    the centre.  d = s1 recovers the unperturbed chain.
    """
    if s1 <= 0 or s2 <= 0 or d <= 0:
        raise ValueError("spacings must be positive")
    if dimers_per_side < 1:
        raise ValueError("need at least one dimer per side")
    out = dimer_alternation(s1, s2, 4 * dimers_per_side - 1)
    out[2 * dimers_per_side] = d
    return out.tolist()


def dislocated_chain(s1: float, s2: float, d: float, dimers_per_side: int) -> FiniteMatrix:
    diagonals = _chain_diagonals(dislocated_spacing_sequence(s1, s2, d, dimers_per_side))
    return FiniteMatrix(diagonals=diagonals, k=2, kind="dislocated", hermitian=True)


def center_index(n: int) -> int:
    """Default defect placement, 1-based."""
    return math.ceil(n / 2)


@dataclass(frozen=True)
class PerturbedPair:
    """A single-site multiplicative perturbation and its Hermitian companion.

    bc holds the (generally non-symmetric) product B C; symmetrized holds
    B^{1/2} C B^{1/2}, a similar matrix with the identical spectrum on which
    all eigensolving happens.
    """

    bc: FiniteMatrix
    symmetrized: FiniteMatrix
    index: int
    delta: float

    def bc_eigenvectors(self, V: np.ndarray) -> np.ndarray:
        """Map eigenvectors of the symmetrized form (columns of V) to unit eigenvectors of B C.

        B C = B^{1/2} (B^{1/2} C B^{1/2}) B^{-1/2}, so the map is left
        multiplication by B^{1/2}: one row scaled, then every column normalised.
        """
        W = np.array(V)
        W[self.index - 1] *= math.sqrt(1.0 + self.delta)
        W /= np.linalg.norm(W, axis=0)
        return W


def compact_perturbation(C: FiniteMatrix, index: int, delta: float) -> PerturbedPair:
    """Scale row `index` (1-based) of C by 1 + delta.

    Requires 1 + delta > 0 so the square-root similarity transform exists.
    A tridiagonal C gives a tridiagonal pair, scaled on its diagonals.
    """
    n = C.n
    if not 1 <= index <= n:
        raise ValueError(f"index {index} out of range 1..{n}")
    if 1.0 + delta <= 0.0:
        raise ValueError(f"need 1 + delta > 0, got delta = {delta}")
    r, s = np.ones(n), np.ones(n)  # the row scaling of B C and the two-sided one of B^1/2 C B^1/2
    r[index - 1], s[index - 1] = 1.0 + delta, math.sqrt(1.0 + delta)
    if C.diagonals is not None:
        diag, upper, lower = C.diagonals
        bc = {"diagonals": (diag * r, upper * r[:-1], lower * r[1:])}
        upper, lower = upper * s[:-1] * s[1:], lower * s[1:] * s[:-1]
        if not np.array_equal(upper, lower):  # a base that is Hermitian only to tolerance
            upper = lower = (upper + lower) / 2.0
        sym = {"diagonals": (diag * s * s, upper, lower)}
    else:
        bc = {"data": C.data * r[:, None]}
        sym = C.data * s[:, None] * s
        if not np.array_equal(sym, sym.conj().T):
            sym = (sym + sym.conj().T) / 2.0
        sym = {"data": sym}
    return PerturbedPair(bc=FiniteMatrix(**bc, k=C.k, kind="perturbed"), index=index, delta=delta,
                         symmetrized=FiniteMatrix(**sym, k=C.k, kind="perturbed", hermitian=C.hermitian))


# ---------------------------------------------------------------------------
# file formats

def save_matrix(mat: FiniteMatrix, path) -> None:
    """Dense CSV, one row per line, complex entries as `a+bj`."""
    data = mat.data
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in data:
            if np.iscomplexobj(data):
                fh.write(",".join(str(complex(x)).strip("()") for x in row))
            else:
                fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def load_matrix(path, k: int = 1) -> FiniteMatrix:
    """Read a dense matrix from CSV or from a JSON {"re": ..., "im": ...} object."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        data = complex_from_parts(json.loads(text), str(path))
    else:
        lines = [line for line in text.split("\n") if line.strip()]
        if not lines:  # loadtxt only warns on empty input
            raise ValueError(f"{path}: empty matrix file")
        try:
            data = np.loadtxt(lines, delimiter=",", dtype=complex, ndmin=2, comments=None)
        except ValueError as exc:  # ragged rows or a token that is not a number
            raise ValueError(f"{path}: {exc}") from None
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"{path}: matrix is not square, shape {data.shape}")
    hermitian = _relative_defect(data - data.conj().T, _finite_max_abs(data)) <= HERMITIAN_TOL
    return FiniteMatrix(data=_as_real_if_possible(data), k=k, kind="external", hermitian=hermitian)

