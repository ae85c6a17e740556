"""Section-wise discrete Fourier analysis of chain eigenvectors.

A length-mk vector is regrouped into k sections by position within the unit
cell, each section is Fourier transformed, and the per-bin masses give the
resonance strength at each sampled quasiperiodicity.  The weighted mean of
|alpha_j| over these masses recovers an eigenvector's quasiperiodicity.
"""

from __future__ import annotations

import numpy as np

UNIT_NORM_TOL = 1e-8


def brillouin_sample(m: int) -> np.ndarray:
    """Uniform quasiperiodicity grid 2*pi*j/m, j = -floor(m/2) .. m-1-floor(m/2)."""
    if m < 1:
        raise ValueError(f"grid size must be positive, got {m}")
    j = np.arange(-(m // 2), m - m // 2)
    return 2.0 * np.pi * j / m


def bin_alphas(m: int) -> np.ndarray:
    """Quasiperiodicity of each DFT bin 0..m-1, wrapped into [-pi, pi)."""
    j = np.arange(m)
    wrapped = np.where(j < m - m // 2, j, j - m)
    return 2.0 * np.pi * wrapped / m


def dft(v) -> np.ndarray:
    """Unitary discrete Fourier transform, bin j = (1/sqrt(m)) sum_s v_s e^{-2i pi js/m}."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("dft expects a nonempty 1-d vector")
    return np.fft.fft(v) / np.sqrt(v.size)


def sections(u, k: int) -> np.ndarray:
    """The k sections of a length-mk vector as a (k, m) array; section p holds entries p, p+k, p+2k, ...

    The transpose's flattening, sections(u, k).T.reshape(-1), gives u back.
    """
    u = np.asarray(u, dtype=complex)
    if k < 1:
        raise ValueError(f"block size must be positive, got {k}")
    if u.size % k != 0:
        raise ValueError(f"vector length {u.size} not divisible by block size {k}")
    return u.reshape(-1, k).T.copy()


def zero_pad(u, k: int) -> np.ndarray:
    """Append zeros until the length is divisible by k; the norm is unchanged."""
    u = np.asarray(u, dtype=complex)
    r = u.size % k
    if r == 0:
        return u.copy()
    return np.concatenate([u, np.zeros(k - r, dtype=complex)])


def tfbt(u, k: int) -> np.ndarray:
    """Section-wise DFT as a (k, m) array; a unitary map on length-mk vectors."""
    sec = sections(u, k)
    return np.fft.fft(sec, axis=1) / np.sqrt(sec.shape[1])


def tfb_projection(u, k: int, j: int) -> np.ndarray:
    """Bin j across all k section transforms; j is interpreted modulo m."""
    t = tfbt(u, k)
    return t[:, j % t.shape[1]].copy()


def projection_profile(u, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin alphas and projection masses ||T^j(u)||^2, in DFT bin order."""
    t = tfbt(u, k)
    masses = np.sum(np.abs(t) ** 2, axis=0)
    return bin_alphas(t.shape[1]), masses


def quasiperiodic_extension(cell, alpha: float, m: int) -> np.ndarray:
    """(1/sqrt(m)) (u, e^{i a} u, ..., e^{i a (m-1)} u); norm equals ||u||."""
    cell = np.asarray(cell, dtype=complex)
    if m < 1:
        raise ValueError(f"number of cells must be positive, got {m}")
    phases = np.exp(1j * alpha * np.arange(m)) / np.sqrt(m)
    return np.kron(phases, cell)


def _checked_unit(u, what: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    nrm = np.linalg.norm(u)
    if abs(nrm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{what} expects a unit vector, got norm {nrm!r}")
    return u / nrm


def discrete_quasiperiodicity(u, k: int) -> float:
    """Weighted mean of |alpha_j| with the projection masses as weights.

    Result lies in [0, pi].  Callers zero_pad beforehand when the length is
    not a multiple of k.  The input must be unit up to a small tolerance
    (eigensolver rounding); it is renormalised internally.
    """
    u = _checked_unit(u, "discrete_quasiperiodicity")
    alphas, masses = projection_profile(u, k)
    q = float(np.sum(np.abs(alphas) * masses))
    return min(max(q, 0.0), np.pi)  # clamp 1-ulp rounding excursions


def polarize(u, tol: float = 1e-8) -> np.ndarray:
    """Rotate the global phase so a pivot component is real positive.

    The pivot is the first component unless its magnitude is below tol, in
    which case the largest-magnitude component is used instead.
    """
    u = np.asarray(u, dtype=complex)
    pivot = u[0] if abs(u[0]) >= tol else u[np.argmax(np.abs(u))]
    if abs(pivot) == 0.0:
        return u.copy()
    return u * (pivot.conjugate() / abs(pivot))
