"""Section-wise discrete Fourier analysis of chain eigenvectors.

A vector (a nonempty 1-d array; _vector refuses any other shape) of length
n is m = ceil(n/k) cells of k sites, the last completed by zeros
(zero_pad).  One private kernel lays it out as u.reshape(m, k) and Fourier
transforms along the cell axis: the column for site p is the DFT of the
section p, p+k, p+2k, ...  The per-bin masses give the resonance strength
at each sampled quasiperiodicity.  discrete_quasiperiodicity folds them
onto the |alpha| bins 0 .. m // 2, finds the first bin of largest folded
mass, and recovers an eigenvector's quasiperiodicity as the mass-weighted
mean of |alpha_j| over the bins within m // 6 (about pi/3) of that peak.

Real vectors stay real: zero_pad and polarize keep a float64 input float64
(complex input stays complex128), and the kernel takes one rfft of a real
vector, since bins j and m - j of a real section carry the same mass, and
one fft of a complex one.  polarize makes the first component of a vector,
or of each vector of a stack, real and nonnegative; that phase changes no
projection mass, so nothing bandrec writes reads it.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_NORM_TOL = 1e-8


def brillouin_sample(m: int) -> np.ndarray:
    """Uniform quasiperiodicity grid 2*pi*j/m, j = -floor(m/2) .. m-1-floor(m/2)."""
    m = _positive("grid size", m)
    j = np.arange(-(m // 2), m - m // 2)
    return 2.0 * np.pi * j / m


def bin_alphas(m: int) -> np.ndarray:
    """Quasiperiodicity of each DFT bin 0..m-1, wrapped into [-pi, pi): brillouin_sample in bin order."""
    return np.fft.ifftshift(brillouin_sample(m))


def _positive(what: str, n: int) -> int:
    """n, when it is a count of at least 1; else ValueError "<what> must be positive, got <n>"."""
    if n < 1:
        raise ValueError(f"{what} must be positive, got {n}")
    return n


def _vector(u: np.ndarray) -> np.ndarray:
    """u, when it is a nonempty 1-d array, else ValueError; zero_pad and quasiperiodic_extension call it."""
    if u.ndim != 1 or u.size < 1:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {u.shape}")
    return u


def _float_or_complex(u) -> np.ndarray:
    """u as a float64 array, or as complex128 when its dtype is complex; no copy when it is one already."""
    u = np.asarray(u)
    return u.astype(complex if u.dtype.kind == "c" else float, copy=False)


def zero_pad(u, k: int) -> np.ndarray:
    """u as float64 or complex128, completed by zeros to a multiple of k: u itself when k divides it, else a copy."""
    u = _vector(_float_or_complex(u))
    r = u.size % _positive("block size", k)
    if r == 0:
        return u
    return np.concatenate([u, np.zeros(k - r, dtype=u.dtype)])


def _cell_dft(u: np.ndarray, k: int) -> np.ndarray:
    """Unnormalised DFT along the cell axis of u.reshape(m, k), u already zero-padded, site p in column p.

    A float64 u gives the (m // 2 + 1, k) rfft bins, a complex128 u all (m, k)
    fft bins.
    """
    cells = u.reshape(-1, k)
    return np.fft.rfft(cells, axis=0) if u.dtype.kind == "f" else np.fft.fft(cells, axis=0)


def tfbt(u, k: int) -> np.ndarray:
    """Section map of zero_pad(u, k) followed by the unitary DFT: a (k, m) complex array, norm-preserving.

    Row p is the DFT, bin j = (1/sqrt(m)) sum_s x_s e^{-2i pi js/m}, of section
    p (entries p, p+k, p+2k, ...), so tfbt(v, 1)[0] is the DFT of v itself.
    """
    t = _cell_dft(zero_pad(np.asarray(u, dtype=complex), k), k)
    return t.T / np.sqrt(t.shape[0])


def projection_profile(u, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin alphas and projection masses ||T^j(u)||^2, in DFT bin order."""
    t = tfbt(u, k)
    masses = np.sum(np.abs(t) ** 2, axis=0)
    return bin_alphas(t.shape[1]), masses


def quasiperiodic_extension(cell, alpha: float, m: int) -> np.ndarray:
    """(1/sqrt(m)) (u, e^{i a} u, ..., e^{i a (m-1)} u); norm equals ||u||."""
    cell = _vector(np.asarray(cell, dtype=complex))
    phases = np.exp(1j * alpha * np.arange(_positive("number of cells", m))) / np.sqrt(m)
    return np.kron(phases, cell)


def check_unit_norms(norms, what: str):
    """norms, a norm or an array of them, when each is within UNIT_NORM_TOL of one; else ValueError naming the worst."""
    off = abs(norms - 1.0)
    ok = off <= UNIT_NORM_TOL  # False for a NaN norm too
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):  # a numpy scalar's .all() costs 2 us per vector
        worst = float(np.ravel(norms)[np.argmax(off)])
        raise ValueError(f"{what} expects {'unit vectors' if np.ndim(norms) else 'a unit vector'}, got norm {worst!r}")
    return norms


def discrete_quasiperiodicity(u, k: int) -> float:
    """Mass-weighted mean of |alpha_j| over the bins within m // 6 (about pi/3) of the peak of the folded masses.

    Result lies in [0, pi].  u, of any length, is read as its m zero-padded
    cells (zero_pad), and must be unit up to a small tolerance (eigensolver
    rounding).  The masses come from the cell-layout kernel and are first
    folded onto the |alpha| bins j = 0 .. m // 2, |alpha_j| = 2 pi j / m:
    for complex input fft bins j and m - j add; for real input a rfft bin
    0 < j < m/2 counts twice, for itself and its mirror m - j, which has the
    same mass.  The peak is the first bin of largest folded mass, and the
    window runs m // 6 bins either side of it, clipped to 0 .. m // 2.  A
    finite section leaks mass into every bin, and a mean over all of them
    is pulled towards pi/2; the window keeps the peak's neighbours only.
    """
    u = zero_pad(u, k)
    check_unit_norms(math.sqrt(np.vdot(u, u).real), "discrete_quasiperiodicity")
    t = _cell_dft(u, k).view(float)  # re and im of each site's bin, side by side
    masses = np.einsum("ij,ij->i", t, t)
    m = u.size // k
    half, mirrored = m // 2, slice(1, (m + 1) // 2)  # bins 0 < j < m/2, the ones with a mirror m - j
    if u.dtype.kind == "c":
        masses[mirrored] += masses[:half:-1]
        masses = masses[:half + 1]
    else:
        masses[mirrored] *= 2.0
    peak = int(masses.argmax())
    lo, hi = max(peak - m // 6, 0), min(peak + m // 6, half) + 1
    window = masses[lo:hi]
    q = (2.0 * np.pi / m) * window.dot(np.arange(lo, hi, dtype=float)) / window.sum()
    return min(max(float(q), 0.0), np.pi)  # clamp 1-ulp rounding excursions


def polarize(u) -> np.ndarray:
    """Make the first component of a vector, or of each vector of a stack, real and nonnegative by a global phase.

    u is one vector or a stack whose vectors run along axis 0 (shape (n,),
    (n, c), (n, a, b), ...), so row 0 holds every pivot.  A real vector
    comes back as u or -u exactly, a complex one scaled by conj(u_0) / |u_0|.
    A vector whose first component is zero comes back unchanged, and so does
    a complex one whose |u_0| is subnormal, too small to divide by.
    """
    u = _float_or_complex(u)
    if u.ndim == 0 or u.size == 0:
        raise ValueError(f"polarize expects a nonempty vector or stack of vectors, got shape {u.shape}")
    pivot = u[:1]  # keeps the leading axis: a (1, 1) u times a (1,) factor can differ in the last bit
    if u.dtype.kind == "f":
        return u * (1.0 - 2.0 * (pivot < 0.0))  # -1.0 or 1.0 per vector
    size = np.hypot(pivot.real, pivot.imag)  # correctly rounded |pivot|; np.abs can differ in the last bit
    keep = size < np.finfo(float).tiny
    return np.where(keep, u, u * (pivot.conjugate() / np.where(keep, 1.0, size)))
