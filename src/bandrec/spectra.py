"""Hermitian eigendecompositions and spectral diagnostics.

The solver follows the matrix's form, settled when it was made (see
matrices.FiniteMatrix): a real tridiagonal matrix carries its diagonals and
is solved by LAPACK dstevd on its diagonal and sub-diagonal, bound with
ctypes from the OpenBLAS that numpy already loads; anything else, or a numpy
without that library, goes through the dense np.linalg.eigh.  No n^2 data
is read to choose.  Both run the same divide-and-conquer kernel (dstedc), so
the results agree bit for bit once the column signs are polarized.

Beyond the plain decomposition this provides the residual of a candidate
eigenpair, the orthogonal split of a vector into near/far eigenspace
components around a reference eigenvalue, the projection-mass concentration
inside a quasiperiodicity window, and localization measures.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matrices import FiniteMatrix
from .transform import UNIT_NORM_TOL, polarize, projection_profile, _checked_unit

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
    everything else to dense eigh.  Each column is polarized in place, so
    the vectors are one F-ordered array, real for real input and complex
    otherwise.
    """
    if not M.hermitian:
        raise ValueError("hermitian_eigen needs a matrix with the hermitian flag set")
    if M.diagonals is not None and _bundled_dstevd() is not None:
        diag, _, lower = M.diagonals
        vals, vecs = _tridiagonal_eigh(diag, lower)
    else:
        vals, vecs = np.linalg.eigh(M.data)
        vecs = np.asfortranarray(vecs)
    real = not np.iscomplexobj(vecs)
    for i in range(vals.size):
        u = polarize(vecs[:, i])
        vecs[:, i] = u.real if real else u
    return EigenDecomposition(values=vals, vectors=vecs)


def residual(M: FiniteMatrix, lam: float, u) -> float:
    """||M u - lam u|| for a unit vector u; a matrix that carries its diagonals is applied in O(n)."""
    u = _checked_unit(u, "residual")
    if u.size != M.n:
        raise ValueError(f"vector length {u.size} does not match matrix size {M.n}")
    if M.diagonals is None:
        Mu = M.data @ u
    else:
        diag, upper, lower = M.diagonals
        Mu = diag * u
        Mu[:-1] += upper * u[1:]
        Mu[1:] += lower * u[:-1]
    return float(np.linalg.norm(Mu - lam * u))


@dataclass(frozen=True)
class NearFarSplit:
    """Orthogonal components of a vector in the eigenspaces near/far from a value."""

    u_parallel: np.ndarray
    u_perp: np.ndarray
    epsilon: float
    center: float

    @property
    def parallel_norm(self) -> float:
        return float(np.linalg.norm(self.u_parallel))

    @property
    def perp_norm(self) -> float:
        return float(np.linalg.norm(self.u_perp))


def near_far_split(eig: EigenDecomposition, lambda_eps: float, eps: float, u) -> NearFarSplit:
    """Project u onto the span of eigenvectors with |lambda_i - lambda_eps| <= eps."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    u = np.asarray(u, dtype=complex)
    near = np.abs(eig.values - lambda_eps) <= eps
    V = eig.vectors[:, near]
    u_par = V @ (V.conj().T @ u)
    return NearFarSplit(u_parallel=u_par, u_perp=u - u_par, epsilon=eps, center=lambda_eps)


def concentration_check(u, k: int, alpha0: float, delta: float) -> tuple[float, float]:
    """Projection mass inside and outside the symmetric window around +-alpha0.

    The window is the open set (alpha0-delta, alpha0+delta) united with its
    mirror image, intersected with the bin grid; the two masses sum to one.
    """
    if delta <= 0:
        raise ValueError(f"window width must be positive, got {delta}")
    u = _checked_unit(u, "concentration_check")
    alphas, masses = projection_profile(u, k)
    inside = (np.abs(alphas - alpha0) < delta) | (np.abs(alphas + alpha0) < delta)
    mass_in = float(np.sum(masses[inside]))
    mass_out = float(np.sum(masses[~inside]))
    return mass_in, mass_out


def localization_metrics(u):
    """(sup-norm, inverse participation ratio) of a unit vector, as floats.

    For a matrix of unit columns both are arrays with one entry per column.
    Each vector is renormalised first; its norm must be within UNIT_NORM_TOL
    of one.  One real temporary the size of u holds the squared moduli.
    """
    sq = np.abs(u)
    sq *= sq
    norm2 = sq.sum(axis=0)
    off = np.abs(np.sqrt(norm2) - 1.0)
    if np.any(off > UNIT_NORM_TOL):
        worst = float(np.sqrt(np.ravel(norm2)[np.argmax(off)]))
        raise ValueError(f"localization_metrics expects unit vectors, got norm {worst!r}")
    sup = np.sqrt(sq.max(axis=0) / norm2)
    ipr = np.einsum("i...,i...->...", sq, sq) / (norm2 * norm2)
    if sq.ndim == 1:
        return float(sup), float(ipr)
    return sup, ipr


def ipr_localized_flags(iprs) -> np.ndarray:
    """Flag vectors whose inverse participation ratio exceeds 10x the spectrum median."""
    iprs = np.asarray(iprs, dtype=float)
    return iprs > IPR_LOCALIZATION_FACTOR * np.median(iprs)


def degenerate_clusters(values, scale: float) -> list[list[int]]:
    """Group indices of numerically coincident eigenvalues.

    Two consecutive eigenvalues belong to one cluster when their gap is
    below DEGENERACY_REL_TOL times the given magnitude scale.
    """
    values = np.asarray(values, dtype=float)
    tol = DEGENERACY_REL_TOL * max(scale, 1e-300)
    clusters, current = [], [0]
    for i in range(1, values.size):
        if values[i] - values[i - 1] < tol:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    return clusters
