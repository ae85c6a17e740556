"""Finite matrices of resonator chains.

Constructors for block Toeplitz sections and their circulant approximants,
1D capacitance chains (zero row sums, corner-corrected), dimerized chains
with a central pattern break, dislocated dimer chains, and single-site
multiplicative perturbations.  Everything is dense; the sizes of interest
stay in the low thousands.  Every FiniteMatrix refuses NaN and inf
entries, and its Hermitian flag is checked relative to the largest entry.

Indexing in documentation and file formats is 1-based to match the usual
matrix displays; APIs translate internally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .symbols import HERMITIAN_TOL, Symbol, symbol_from_dict

KINDS = ("toeplitz", "circulant", "capacitance1d", "chain", "ssh",
         "dislocated", "perturbed", "external")


@dataclass(frozen=True)
class FiniteMatrix:
    data: np.ndarray
    k: int = 1
    kind: str = "external"
    hermitian: bool = False
    provenance: str = ""

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

    @property
    def blocks(self) -> int:
        return self.n // self.k


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


def toeplitz_matrix(sym: Symbol, m: int) -> FiniteMatrix:
    """mk x mk section with block (i, j) = a_{i-j}, zero outside the support."""
    if m < 1:
        raise ValueError(f"block count must be positive, got {m}")
    k = sym.k
    data = np.zeros((m * k, m * k), dtype=complex)
    for s, block in sym.coeffs.items():
        for i in range(m):
            j = i - s
            if 0 <= j < m:
                data[i * k:(i + 1) * k, j * k:(j + 1) * k] = block
    return FiniteMatrix(data=_as_real_if_possible(data), k=k, kind="toeplitz",
                        hermitian=True, provenance=f"toeplitz m={m} r_max={sym.r_max}")


def circulant_matrix(sym: Symbol, m: int) -> FiniteMatrix:
    """Cyclically wrapped variant of the Toeplitz section.

    Requires m > 2 r_max so distinct coefficients never fold onto the same
    cyclic offset; folding would silently change the symbol.
    """
    if m <= 2 * sym.r_max:
        raise ValueError(f"circulant wraparound is ambiguous: need m > 2*r_max = {2 * sym.r_max}, got {m}")
    k = sym.k
    data = np.zeros((m * k, m * k), dtype=complex)
    for s, block in sym.coeffs.items():
        for i in range(m):
            j = (i - s) % m
            data[i * k:(i + 1) * k, j * k:(j + 1) * k] = block
    return FiniteMatrix(data=_as_real_if_possible(data), k=k, kind="circulant",
                        hermitian=True, provenance=f"circulant m={m} r_max={sym.r_max}")


def capacitance_1d(a0: float, a1: float, am1: float, m: int) -> FiniteMatrix:
    """Tridiagonal chain with the corner entries a0+am1 and a0+a1.

    The corner correction makes row sums vanish whenever a0 = -a1 - am1,
    the signature of a nearest-neighbour capacitance chain.
    """
    if m < 2:
        raise ValueError(f"chain needs at least 2 sites, got {m}")
    data = np.zeros((m, m))
    np.fill_diagonal(data, a0)
    for i in range(m - 1):
        data[i, i + 1] = a1
        data[i + 1, i] = am1
    data[0, 0] = a0 + am1
    data[m - 1, m - 1] = a0 + a1
    return FiniteMatrix(data=data, k=1, kind="capacitance1d", hermitian=(a1 == am1),
                        provenance=f"capacitance1d a0={a0} a1={a1} am1={am1} m={m}")


def chain_capacitance(spacings) -> FiniteMatrix:
    """Symmetric tridiagonal chain from a spacing sequence.

    Off-diagonal (i, i+1) is -1/s_i and the diagonal collects 1/s from the
    existing neighbours, so row sums are exactly zero and the constant
    vector spans the kernel.
    """
    s = np.asarray(spacings, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("need at least one spacing")
    if np.any(s <= 0):
        raise ValueError("spacings must be positive")
    n = s.size + 1
    inv = 1.0 / s
    data = np.zeros((n, n))
    for i in range(n - 1):
        data[i, i + 1] = data[i + 1, i] = -inv[i]
    data[0, 0] = inv[0]
    data[n - 1, n - 1] = inv[-1]
    for i in range(1, n - 1):
        data[i, i] = inv[i - 1] + inv[i]
    return FiniteMatrix(data=data, k=1, kind="chain", hermitian=True,
                        provenance=f"chain n={n}")


def ssh_spacing_sequence(s1: float, s2: float, m: int) -> list[float]:
    """Spacings of a dimerized chain of 4m+1 sites with the central pattern break.

    From either edge the gaps alternate s1, s2, ...; the two gaps adjacent
    to the central site are both s2, so the centre has no dimer partner.
    """
    if s1 <= 0 or s2 <= 0:
        raise ValueError("spacings must be positive")
    out = []
    for i in range(1, 4 * m + 1):
        ii = i if i <= 2 * m else 4 * m + 1 - i
        out.append(s1 if ii % 2 == 1 else s2)
    return out


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
    n = 4 * m + 1
    data = np.zeros((n, n))
    np.fill_diagonal(data, alpha)
    data[0, 0] = data[n - 1, n - 1] = alpha_tilde
    data[2 * m, 2 * m] = eta
    for i in range(1, n):  # coupling i joins sites i, i+1 (1-based)
        ii = i if i <= 2 * m else n - i
        b = beta1 if ii % 2 == 1 else beta2
        data[i - 1, i] = data[i, i - 1] = b
    return FiniteMatrix(data=data, k=2, kind="ssh", hermitian=True,
                        provenance=f"ssh m={m} alpha={alpha} eta={eta} beta1={beta1} beta2={beta2}")


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
    n = 4 * dimers_per_side
    out = [s1 if i % 2 == 1 else s2 for i in range(1, n)]
    out[2 * dimers_per_side] = d
    return out


def dislocated_chain(s1: float, s2: float, d: float, dimers_per_side: int) -> FiniteMatrix:
    base = chain_capacitance(dislocated_spacing_sequence(s1, s2, d, dimers_per_side))
    return FiniteMatrix(data=base.data, k=2, kind="dislocated", hermitian=True,
                        provenance=f"dislocated s1={s1} s2={s2} d={d} dps={dimers_per_side}")


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
    b = np.ones(n)
    b[index - 1] = 1.0 + delta
    bc = b[:, None] * C.data
    half = np.sqrt(b)
    sym = half[:, None] * C.data * half[None, :]
    sym = (sym + sym.conj().T) / 2.0  # kill rounding asymmetry
    prov = f"perturbed base=({C.provenance}) index={index} delta={delta}"
    return PerturbedPair(
        bc=FiniteMatrix(data=bc, k=C.k, kind="perturbed", hermitian=False, provenance=prov),
        symmetrized=FiniteMatrix(data=sym, k=C.k, kind="perturbed", hermitian=C.hermitian,
                                 provenance=prov + " symmetrized"),
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


def _parse_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([complex(tok.strip()) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return np.asarray(rows, dtype=complex)


def load_matrix(path, k: int = 1) -> FiniteMatrix:
    """Read a dense matrix from CSV or from a JSON {"re": ..., "im": ...} object."""
    with open(path, encoding="utf-8") as fh:
        head = fh.read(64).lstrip()
    if head.startswith("{"):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
        data = re + 1j * im
    else:
        data = _parse_matrix_csv(path)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"{path}: matrix is not square, shape {data.shape}")
    hermitian = _relative_hermitian_defect(data, _finite_max_abs(data)) <= HERMITIAN_TOL
    return FiniteMatrix(data=_as_real_if_possible(data), k=k, kind="external",
                        hermitian=hermitian, provenance=f"loaded from {path}")


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
