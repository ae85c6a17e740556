"""Finite matrices of resonator chains.

Constructors for block Toeplitz sections and their circulant approximants,
1D capacitance chains (zero row sums, corner-corrected), dimerized chains
with a central pattern break, dislocated dimer chains, and single-site
multiplicative perturbations.  Each is written once from whole arrays (its
diagonals, or one block placement per symbol offset) into a dense matrix of
low-thousands size, which FiniteMatrix validates once: no NaN or inf entries
and a Hermitian flag checked relative to the largest entry.

Indexing in documentation and file formats is 1-based to match the usual
matrix displays; APIs translate internally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .symbols import HERMITIAN_TOL, Symbol, complex_from_parts, symbol_from_dict

KINDS = ("toeplitz", "circulant", "capacitance1d", "chain", "ssh",
         "dislocated", "perturbed", "external")


@dataclass(frozen=True)
class FiniteMatrix:
    data: np.ndarray
    k: int = 1
    kind: str = "external"
    hermitian: bool = False

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"matrix must be square, got shape {data.shape}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if self.kind in ("toeplitz", "circulant") and data.shape[0] % self.k != 0:
            raise ValueError(f"size {data.shape[0]} is not a multiple of block size {self.k}")
        scale = _finite_max_abs(data)
        if self.hermitian:
            defect = _relative_hermitian_defect(data, scale)
            if defect > HERMITIAN_TOL:
                raise ValueError(f"hermitian flag set but the relative defect "
                                 f"max|A - A^H| / max(1, max|A|) is {defect:g} "
                                 f"(tolerance {HERMITIAN_TOL:g})")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]


def _finite_max_abs(data: np.ndarray) -> float:
    """max |A_ij|, refusing NaN and inf entries with their first (1-based) position."""
    scale = float(np.max(np.abs(data), initial=0.0))
    if not math.isfinite(scale):
        bad = ~np.isfinite(data)
        i, j = np.argwhere(bad)[0] + 1
        raise ValueError(f"matrix has {np.count_nonzero(bad)} non-finite (NaN or inf) "
                         f"entries, the first at row {i}, column {j}")
    return scale


def _relative_hermitian_defect(data: np.ndarray, scale: float) -> float:
    """max |A - A^H| relative to max(1, max |A_ij|), so the test does not depend on units."""
    return float(np.max(np.abs(data - data.conj().T), initial=0.0)) / max(1.0, scale)


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
    return FiniteMatrix(data=_tridiagonal(diag, a1, am1), k=1, kind="capacitance1d",
                        hermitian=(a1 == am1))


def _chain_data(spacings) -> np.ndarray:
    """Tridiagonal capacitance matrix of a spacing sequence (see chain_capacitance)."""
    s = np.asarray(spacings, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("need at least one spacing")
    if np.any(s <= 0):
        raise ValueError("spacings must be positive")
    inv = 1.0 / s
    diag = np.concatenate([inv[:1], inv[:-1] + inv[1:], inv[-1:]])
    return _tridiagonal(diag, -inv, -inv)


def chain_capacitance(spacings) -> FiniteMatrix:
    """Symmetric tridiagonal chain from a spacing sequence.

    Off-diagonal (i, i+1) is -1/s_i and the diagonal collects 1/s from the
    existing neighbours, so row sums are exactly zero and the constant
    vector spans the kernel.
    """
    return FiniteMatrix(data=_chain_data(spacings), k=1, kind="chain", hermitian=True)


def dimer_alternation(first: float, second: float, count: int) -> np.ndarray:
    """first, second, first, ...: entry i (1-based) is first for odd i and second for even i."""
    return np.where(np.arange(count) % 2 == 0, float(first), float(second))


def _mirrored_alternation(first: float, second: float, m: int) -> np.ndarray:
    """2m alternating entries from the left edge, then the same read back from the right."""
    half = dimer_alternation(first, second, 2 * m)
    return np.concatenate([half, half[::-1]])


def ssh_spacing_sequence(s1: float, s2: float, m: int) -> list[float]:
    """Spacings of a dimerized chain of 4m+1 sites with the central pattern break.

    From either edge the gaps alternate s1, s2, ...; the two gaps adjacent
    to the central site are both s2, so the centre has no dimer partner.
    """
    if s1 <= 0 or s2 <= 0:
        raise ValueError("spacings must be positive")
    return _mirrored_alternation(s1, s2, m).tolist()


def ssh_params_from_spacings(s1: float, s2: float) -> dict[str, float]:
    """Matrix entries implied by the capacitance rule on the SSH spacing sequence."""
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
    couplings = _mirrored_alternation(beta1, beta2, m)
    return FiniteMatrix(data=_tridiagonal(diag, couplings, couplings), k=2, kind="ssh",
                        hermitian=True)


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
    data = _chain_data(dislocated_spacing_sequence(s1, s2, d, dimers_per_side))
    return FiniteMatrix(data=data, k=2, kind="dislocated", hermitian=True)


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

    @property
    def k(self) -> int:
        return self.bc.k

    def bc_eigenvector(self, v: np.ndarray) -> np.ndarray:
        """Map an eigenvector of the symmetrized form to one of B C, unit norm.

        B C = B^{1/2} (B^{1/2} C B^{1/2}) B^{-1/2}, so the map is left
        multiplication by B^{1/2}.
        """
        scale = np.ones(self.bc.n)
        scale[self.index - 1] = np.sqrt(1.0 + self.delta)
        w = scale * np.asarray(v)
        return w / np.linalg.norm(w)


def compact_perturbation(C: FiniteMatrix, index: int, delta: float) -> PerturbedPair:
    """Scale row `index` (1-based) of C by 1 + delta.

    Requires 1 + delta > 0 so the square-root similarity transform exists.
    """
    n = C.n
    if not 1 <= index <= n:
        raise ValueError(f"index {index} out of range 1..{n}")
    if 1.0 + delta <= 0.0:
        raise ValueError(f"need 1 + delta > 0, got delta = {delta}")
    row, root = index - 1, math.sqrt(1.0 + delta)
    bc = np.array(C.data, dtype=np.result_type(C.data.dtype, np.float64))
    sym = bc.copy()
    bc[row] *= 1.0 + delta
    sym[row] *= root
    sym[:, row] *= root
    if not np.array_equal(sym, sym.conj().T):  # a base that is Hermitian only to tolerance
        sym = (sym + sym.conj().T) / 2.0
    return PerturbedPair(
        bc=FiniteMatrix(data=bc, k=C.k, kind="perturbed", hermitian=False),
        symmetrized=FiniteMatrix(data=sym, k=C.k, kind="perturbed", hermitian=C.hermitian),
        index=index, delta=delta)


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
        rows = [[complex(tok.strip()) for tok in line.split(",")] for line in text.split("\n") if line.strip()]
        if not rows:
            raise ValueError(f"{path}: empty matrix file")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError(f"{path}: ragged rows")
        data = np.asarray(rows, dtype=complex)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"{path}: matrix is not square, shape {data.shape}")
    hermitian = _relative_hermitian_defect(data, _finite_max_abs(data)) <= HERMITIAN_TOL
    return FiniteMatrix(data=_as_real_if_possible(data), k=k, kind="external", hermitian=hermitian)


def build_matrix(descriptor: dict) -> FiniteMatrix | PerturbedPair:
    """Construct a matrix from a JSON structure descriptor, e.g. {"type": "ssh", "m": 20, ...}."""
    try:
        kind = descriptor["type"]
    except KeyError as exc:
        raise ValueError("matrix descriptor needs a 'type' field") from exc
    d = {key: v for key, v in descriptor.items() if key != "type"}
    try:
        if kind == "toeplitz":
            return toeplitz_matrix(symbol_from_dict(d["symbol"]), int(d["m"]))
        if kind == "circulant":
            return circulant_matrix(symbol_from_dict(d["symbol"]), int(d["m"]))
        if kind == "capacitance1d":
            return capacitance_1d(float(d["a0"]), float(d["a1"]), float(d["am1"]), int(d["m"]))
        if kind == "chain":
            return chain_capacitance(d["spacings"])
        if kind == "ssh":
            if "alpha" in d:
                return ssh_matrix(float(d["alpha"]), float(d["alpha_tilde"]), float(d["eta"]),
                                  float(d["beta1"]), float(d["beta2"]), int(d["m"]))
            params = ssh_params_from_spacings(float(d.get("s1", 1.0)), float(d.get("s2", 2.0)))
            return ssh_matrix(m=int(d["m"]), **params)
        if kind == "dislocated":
            return dislocated_chain(float(d["s1"]), float(d["s2"]), float(d["d"]),
                                    int(d["dimers_per_side"]))
        if kind == "perturbed":
            base = build_matrix(d["base"])
            index = int(d.get("index", center_index(base.n)))
            return compact_perturbation(base, index, float(d["delta"]))
        if kind == "external":
            return load_matrix(d["path"], k=int(d.get("k", 1)))
    except KeyError as exc:
        raise ValueError(f"matrix descriptor for {kind!r} is missing {exc}") from exc
    raise ValueError(f"unknown matrix type {kind!r}")
