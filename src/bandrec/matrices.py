"""Finite matrices of resonator chains.

Constructors for block Toeplitz sections and their circulant approximants,
1D capacitance chains (zero row sums, corner-corrected), dimerized chains
with a central pattern break, dislocated dimer chains, and single-site
multiplicative perturbations.  The chains are tridiagonal and are kept as
their three diagonals, validated on those O(n) entries; the Toeplitz and
circulant sections (one block placement per symbol offset) and external
files are dense and validated over all n^2 entries.  Either way a
FiniteMatrix is its entries and its kind: it refuses NaN and inf entries
once and works out from the entries whether it is Hermitian (relative to
the largest entry), real and tridiagonal.  Which form a matrix has decides
its eigensolver (see spectra); a chain writes its dense array only when
something reads `data`.  The block size through which a matrix is read
belongs to the reference periodic structure, not to the matrix.

Indexing in documentation and file formats is 1-based to match the usual
matrix displays; APIs translate internally.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .symbols import HERMITIAN_TOL, Symbol, checked_spacings, complex_from_parts
from .transform import _positive

BLOCK_ENTRIES = 1 << 18  # most entries per block of a column-wise pass over a matrix: 2 MiB of float64
KINDS = ("toeplitz", "circulant", "capacitance1d", "chain", "ssh",
         "dislocated", "perturbed", "external")


@dataclass(frozen=True, eq=False, init=False)
class FiniteMatrix:
    """A validated square matrix: its entries and its kind.

    Built dense, FiniteMatrix(data=A, kind=...), or from its three
    diagonals, FiniteMatrix(diagonals=(diag, upper, lower), kind=...), with
    upper[i] the entry (i, i+1) and lower[i] the entry (i+1, i): real 1-d
    arrays of lengths n, n - 1 and n - 1 (a complex matrix is given dense).
    Either way n >= 1.  The rest is worked out from the entries: complex
    entries whose imaginary parts are all zero are stored real; `hermitian`
    is max|A - A^H| <= HERMITIAN_TOL * max(1, max|A|); and `diagonals` is
    set exactly when the matrix is real and tridiagonal, so a dense real
    matrix whose nonzeros all lie on its three central diagonals records
    them.  A matrix built from its diagonals writes `data` on first read.
    All arrays are read-only.
    """

    n: int
    kind: str
    hermitian: bool
    diagonals: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    def __init__(self, data=None, kind="external", *, diagonals=None):
        if kind not in KINDS:
            raise ValueError(f"unknown matrix kind {kind!r}")
        if diagonals is None:
            data = np.array(data)
            if np.iscomplexobj(data) and not np.any(data.imag):
                data = data.real.copy()
            if data.ndim != 2 or data.shape[0] != data.shape[1] or not data.size:
                raise ValueError(f"matrix must be square with n >= 1, got shape {data.shape}")
            scale, asym = _finite_max_abs(data), data - data.conj().T
            self.__dict__["data"] = data
            if not np.iscomplexobj(data) and np.count_nonzero(data) == sum(
                    np.count_nonzero(np.diagonal(data, o)) for o in (-1, 0, 1)):  # tridiagonal
                diagonals = tuple(np.diagonal(data, o) for o in (0, 1, -1))
        else:
            if any(np.iscomplexobj(x) for x in diagonals):  # a float cast would drop the imaginary parts
                raise ValueError("diagonals must be real; give a complex matrix as data=")
            diag, upper, lower = diagonals = tuple(np.array(x, dtype=float) for x in diagonals)
            if diag.ndim != 1 or not diag.size or not upper.shape == lower.shape == (diag.size - 1,):
                raise ValueError(f"diagonals must be 1-d of lengths n >= 1, n - 1 and n - 1, "
                                 f"got shapes {', '.join(str(x.shape) for x in diagonals)}")
            band = np.zeros((diag.size, 3))  # row i holds the entries (i, i-1), (i, i), (i, i+1)
            band[1:, 0], band[:, 1], band[:-1, 2] = lower, diag, upper
            scale, asym = _finite_max_abs(band, band=True), upper - lower
        hermitian = float(np.max(np.abs(asym), initial=0.0)) <= HERMITIAN_TOL * max(1.0, scale)
        n = data.shape[0] if data is not None else diagonals[0].size
        for x in (data, *(diagonals or ())):
            if x is not None:
                x.setflags(write=False)
        self.__dict__.update(n=n, kind=kind, hermitian=hermitian, diagonals=diagonals)

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
    return data.reshape(m * k, m * k)


def toeplitz_matrix(sym: Symbol, m: int) -> FiniteMatrix:
    """mk x mk section with block (i, j) = a_{i-j}, zero outside the support."""
    return FiniteMatrix(data=_block_section(sym, _positive("block count", m), cyclic=False), kind="toeplitz")


def circulant_matrix(sym: Symbol, m: int) -> FiniteMatrix:
    """Cyclically wrapped variant of the Toeplitz section.

    Requires m > 2 r_max so distinct coefficients never fold onto the same
    cyclic offset; folding would silently change the symbol.
    """
    if m <= 2 * sym.r_max:
        raise ValueError(f"circulant wraparound is ambiguous: need m > 2*r_max = {2 * sym.r_max}, got {m}")
    return FiniteMatrix(data=_block_section(sym, m, cyclic=True), kind="circulant")


def capacitance_1d(a0: float, a1: float, m: int) -> FiniteMatrix:
    """Symmetric tridiagonal chain with couplings a1 and the corner entries a0+a1.

    The corner correction makes row sums vanish whenever a0 = -2 a1, the
    signature of a nearest-neighbour capacitance chain.
    """
    if m < 2:
        raise ValueError(f"chain needs at least 2 sites, got {m}")
    diag = np.concatenate([[a0 + a1], np.full(m - 2, a0), [a0 + a1]])
    off = np.full(m - 1, a1)
    return FiniteMatrix(diagonals=(diag, off, off), kind="capacitance1d")


def _chain_diagonals(spacings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals of the capacitance matrix of a spacing sequence (see chain_capacitance)."""
    inv = 1.0 / checked_spacings(spacings)
    diag = np.concatenate([inv[:1], inv[:-1] + inv[1:], inv[-1:]])
    return diag, -inv, -inv


def chain_capacitance(spacings) -> FiniteMatrix:
    """Symmetric tridiagonal chain from a spacing sequence.

    Off-diagonal (i, i+1) is -1/s_i and the diagonal collects 1/s from the
    existing neighbours, so row sums are exactly zero and the constant
    vector spans the kernel.
    """
    return FiniteMatrix(diagonals=_chain_diagonals(spacings), kind="chain")


def dimer_alternation(first: float, second: float, count: int) -> np.ndarray:
    """first, second, first, ...: entry i (1-based) is first for odd i and second for even i."""
    return np.where(np.arange(count) % 2 == 0, float(first), float(second))


def ssh_matrix(s1: float, s2: float, dimers_per_side: int) -> FiniteMatrix:
    """Dimer chain of 4*dimers_per_side + 1 sites with a single central defect site.

    From each edge the spacings alternate s1, s2 and mirror at the centre,
    so s2 sits on both sides of the defect site and the matrix is
    persymmetric.
    """
    half = dimer_alternation(s1, s2, 2 * _positive("dimers per side", dimers_per_side))
    return FiniteMatrix(diagonals=_chain_diagonals(np.concatenate([half, half[::-1]])), kind="ssh")


def dislocated_spacing_sequence(s1: float, s2: float, d: float, dimers_per_side: int) -> np.ndarray:
    """Dimer-chain spacings with one intra-dimer gap stretched to d.

    The chain has 2*dimers_per_side dimers (4*dimers_per_side sites); the
    stretched gap is the intra-dimer spacing of the first dimer in the right
    half (1-based spacing index 2*dimers_per_side + 1), the intra gap nearest
    the centre.  d = s1 recovers the unperturbed chain.
    """
    out = dimer_alternation(s1, s2, 4 * _positive("dimers per side", dimers_per_side) - 1)
    out[2 * dimers_per_side] = d
    return out


def dislocated_chain(s1: float, s2: float, d: float, dimers_per_side: int) -> FiniteMatrix:
    spacings = dislocated_spacing_sequence(s1, s2, d, dimers_per_side)
    return FiniteMatrix(diagonals=_chain_diagonals(spacings), kind="dislocated")


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
        multiplication by B^{1/2}: one row scaled, then every column normalised,
        a block of columns at a time, so no n x n temporary sits beside V and W.
        """
        W = np.array(V)
        W[self.index - 1] *= math.sqrt(1.0 + self.delta)
        for cols in column_blocks(W.shape):
            block = W[:, cols]
            block /= np.linalg.norm(block, axis=0)
        return W


def compact_perturbation(C: FiniteMatrix, index: int, delta: float) -> PerturbedPair:
    """Scale row `index` (1-based) of C by 1 + delta.

    Requires a Hermitian C, since the symmetrized form averages away what
    asymmetry is left, and 1 + delta > 0 so the square-root similarity
    transform exists.  A tridiagonal C gives a tridiagonal pair, scaled on
    its diagonals.
    """
    if not C.hermitian:
        raise ValueError(f"compact_perturbation needs a Hermitian base matrix, one with "
                         f"max|C - C^H| <= {HERMITIAN_TOL:g} * max(1, max|C|)")
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
    return PerturbedPair(bc=FiniteMatrix(**bc, kind="perturbed"), index=index, delta=delta,
                         symmetrized=FiniteMatrix(**sym, kind="perturbed"))


def column_blocks(shape) -> list[slice]:
    """Slices cutting the columns of an (n, c) array into the fewest blocks of at most BLOCK_ENTRIES entries.

    A column-wise pass over the blocks holds temporaries of that size
    whatever the size of the matrix; a matrix that small is one block.
    Widths are within one of each other and at least 2 (a block is 4 or
    more columns wide even for n > BLOCK_ENTRIES / 4), so a reduction along
    axis 0 gives each column the bits it gets over the whole array: numpy
    sums a one-column block of a C-ordered array in another order.
    """
    n, ncols = shape[0], shape[1]
    count = max(1, -(-ncols // max(4, BLOCK_ENTRIES // max(n, 1))))
    edges = [i * ncols // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


# ---------------------------------------------------------------------------
# file formats

def save_matrix(mat: FiniteMatrix, path) -> None:
    """Dense CSV, one row per line, complex entries as `a+bj`."""
    complex_entries = np.iscomplexobj(mat.data)
    cell = (lambda c: str(c).strip("()")) if complex_entries else repr  # repr: shortest round-trip digits
    rows = mat.data.astype(complex if complex_entries else float, copy=False).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(",".join(map(cell, row)) + "\n" for row in rows))


def read_entries(path) -> np.ndarray:
    """The complex entries of a matrix or vector file, as an array of the file's shape.

    Dense CSV (one row per line, comma-separated, `a+bj`, blank lines
    skipped) gives a 2-D array; a JSON {"re": ..., "im": ...} object gives the shape of 're'.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return complex_from_parts(json.loads(text), str(path))
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:  # loadtxt only warns on empty input
        raise ValueError(f"{path}: empty matrix file")
    try:
        return np.loadtxt(lines, delimiter=",", dtype=complex, ndmin=2, comments=None)
    except ValueError as exc:  # ragged rows or a token that is not a number
        raise ValueError(f"{path}: {exc}") from None


def load_matrix(path) -> FiniteMatrix:
    """Read a dense square matrix from CSV or from a JSON {"re": ..., "im": ...} object (see read_entries)."""
    data = read_entries(path)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"{path}: matrix is not square, shape {data.shape}")
    return FiniteMatrix(data=data, kind="external")
