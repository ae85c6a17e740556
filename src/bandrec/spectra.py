"""Hermitian eigendecompositions and spectral diagnostics.

The solver follows the matrix's form, settled when it was made (see
matrices.FiniteMatrix): a real tridiagonal matrix carries its diagonals and
is solved by LAPACK dstevd on its diagonal and sub-diagonal, bound with
ctypes from the OpenBLAS that numpy already loads; anything else, or a numpy
without that library, goes through the dense np.linalg.eigh.  No n^2 data
is read to choose.  Both run the same divide-and-conquer kernel (dstedc) and
give the same values and columns bit for bit.  polarize then makes each
column's first component real and nonnegative (a real column is u or -u
exactly); nothing that bandrec writes reads that phase.

Beyond the plain decomposition this provides the residuals of candidate
eigenpairs, one per column, the split of a vector into its components near
and far from a reference eigenvalue, and localization measures.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matrices import FiniteMatrix
from .symbols import HERMITIAN_RULE
from .transform import check_unit_norms, polarize

BLOCK_ENTRIES = 1 << 18  # most entries per block of a column-wise pass over a matrix: 2 MiB of float64
DEGENERACY_REL_TOL = 1e-8
IPR_LOCALIZATION_FACTOR = 10.0
LAPACK_COL_MAJOR = 102  # matrix_layout value in lapacke.h


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with orthonormal eigenvectors as matching columns."""

    values: np.ndarray    # (n,) real, ascending
    vectors: np.ndarray   # (n, n) complex or real, column i pairs with values[i]

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.size


@functools.cache
def _bundled_dstevd():
    """LAPACKE_dstevd of numpy's bundled ILP64 OpenBLAS, or None where there is none.

    numpy has already loaded the library, so binding it loads nothing new.
    """
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    try:
        fn = ctypes.CDLL(str(libs[0])).scipy_LAPACKE_dstevd64_
    except (IndexError, OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    return fn


def _tridiagonal_eigh(diag: np.ndarray, lower: np.ndarray):
    """(values, F-ordered vectors) of a real symmetric tridiagonal matrix via dstevd.

    The sub-diagonal is the lower one, the triangle np.linalg.eigh reads.
    dstevd overwrites both diagonals, so it works on copies.
    """
    n = diag.size
    d, e = np.array(diag, dtype=float), np.array(lower, dtype=float)
    z = np.empty((n, n), order="F")
    dstevd = _bundled_dstevd()
    info = dstevd(LAPACK_COL_MAJOR, b"V", n, d.ctypes.data, e.ctypes.data, z.ctypes.data, max(1, n))
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed, info={info}")
    return d, z


def hermitian_eigen(M: FiniteMatrix) -> EigenDecomposition:
    """Full decomposition of a Hermitian matrix, values ascending, phases polarized.

    A matrix that carries its diagonals (real tridiagonal) goes to dstevd,
    everything else to dense eigh.  Each column is polarized in place (its
    first component made real and nonnegative), so the vectors are one
    F-ordered array, real for real input and complex otherwise.
    """
    if not M.hermitian:
        raise ValueError(f"hermitian_eigen needs a Hermitian matrix, one with {HERMITIAN_RULE}")
    if M.diagonals is not None and _bundled_dstevd() is not None:
        diag, _, lower = M.diagonals
        vals, vecs = _tridiagonal_eigh(diag, lower)
    else:
        vals, vecs = np.linalg.eigh(M.data)
        vecs = np.asfortranarray(vecs)
    for i in range(vals.size):
        vecs[:, i] = polarize(vecs[:, i])
    return EigenDecomposition(values=vals, vectors=vecs)


def _vectors(u, what: str, n: int | None = None) -> np.ndarray:
    """u as an array when it is a nonempty vector or matrix of column vectors, of length n if given; else ValueError."""
    u = np.asarray(u)
    if u.ndim not in (1, 2) or not u.size:
        raise ValueError(f"{what} expects a nonempty vector or matrix of column vectors, got shape {u.shape}")
    if n is not None and u.shape[0] != n:
        raise ValueError(f"vector length {u.shape[0]} does not match matrix size {n}")
    return u


def residual(M: FiniteMatrix, lam, u):
    """||M u - lam u|| for a unit vector u, or per unit column of u for a scalar lam or one lam per column.

    Each vector is renormalised first; a matrix that carries its diagonals is applied in O(n) per column.
    """
    u = _vectors(u, "residual", M.n)
    u, lam = u / check_unit_norms(np.linalg.norm(u, axis=0), "residual"), np.asarray(lam)
    if lam.shape not in ((), u.shape[1:]):
        raise ValueError(f"lam has shape {lam.shape}; give a scalar or one value per column of {u.shape}")
    if M.diagonals is None:
        Mu = M.data @ u
    else:
        diag, upper, lower = (d if u.ndim == 1 else d[:, None] for d in M.diagonals)
        Mu = diag * u
        Mu[:-1] += upper * u[1:]
        Mu[1:] += lower * u[:-1]
    return np.linalg.norm(Mu - lam * u, axis=0)


def near_far_split(eig: EigenDecomposition, lambda_eps: float, eps: float, u) -> tuple[np.ndarray, np.ndarray]:
    """(u_parallel, u_perp): u's projection onto the eigenvectors with |lambda_i - lambda_eps| <= eps, and the rest."""
    if not eps > 0:  # NaN included
        raise ValueError(f"eps must be positive, got {eps}")
    u = _vectors(np.asarray(u, dtype=complex), "near_far_split", eig.n)
    near = np.abs(eig.values - lambda_eps) <= eps
    V = eig.vectors[:, near]
    u_par = V @ (V.conj().T @ u)
    return u_par, u - u_par


def column_blocks(shape) -> list[slice]:
    """Slices cutting the columns of an (n, c) array into the fewest blocks of at most BLOCK_ENTRIES entries.

    A column-wise pass over the blocks holds temporaries of that size
    whatever the size of the matrix; a matrix that small is one block.
    Widths are within one of each other and, for c >= 2, at least 2 (a block
    holds 4 or more columns even for n > BLOCK_ENTRIES / 4), so a reduction
    along axis 0 gives each column the bits it gets over the whole array:
    numpy sums a one-column block of a C-ordered array in another order.
    """
    n, ncols = shape[0], shape[1]
    count = max(1, -(-ncols // max(4, BLOCK_ENTRIES // max(n, 1))))
    edges = [i * ncols // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def localization_metrics(u):
    """(sup-norm, inverse participation ratio) of a unit vector as numpy floats, or as arrays over unit columns.

    Each vector is renormalised first; its norm must be within UNIT_NORM_TOL
    of one.  Every input is read as the columns of an (n, c) array, a vector
    as one (n, 1) column, a block of columns at a time (column_blocks), so no
    temporary the size of the matrix sits beside it.
    """
    u = _vectors(u, "localization_metrics")
    columns = u.reshape(u.shape[0], -1)
    moments = np.empty((3, columns.shape[1]))  # sum, maximum and sum of squares of the |u_i|^2 of each column
    for cols in column_blocks(columns.shape):
        sq = np.abs(columns[:, cols])
        sq *= sq
        moments[:, cols] = sq.sum(axis=0), sq.max(axis=0), np.einsum("i...,i...->...", sq, sq)
        del sq  # so two blocks are never held at once
    norm2, peak, quartic = moments.reshape(3, *u.shape[1:])
    check_unit_norms(np.sqrt(norm2), "localization_metrics")
    return np.sqrt(peak / norm2), quartic / (norm2 * norm2)


def ipr_localized_flags(iprs) -> np.ndarray:
    """Flag vectors whose inverse participation ratio exceeds 10x the spectrum median; iprs is a nonempty vector."""
    iprs = np.asarray(iprs, dtype=float)
    if iprs.ndim != 1 or not iprs.size:
        raise ValueError(f"ipr_localized_flags expects a nonempty vector, got shape {iprs.shape}")
    return iprs > IPR_LOCALIZATION_FACTOR * np.median(iprs)


def degenerate_clusters(values, scale: float) -> list[list[int]]:
    """Group indices of numerically coincident eigenvalues; [] for no eigenvalues.

    Consecutive eigenvalues share a cluster when their gap is below
    DEGENERACY_REL_TOL times scale, a finite nonnegative magnitude; a NaN gap splits one.
    """
    if not 0 <= scale < np.inf:  # NaN included
        raise ValueError(f"scale must be finite and nonnegative, got {scale}")
    values = np.asarray(values, dtype=float)
    tol = DEGENERACY_REL_TOL * max(scale, 1e-300)
    breaks = np.flatnonzero(~(np.diff(values) < tol)) + 1
    return [c.tolist() for c in np.split(np.arange(values.size), breaks)] if values.size else []
