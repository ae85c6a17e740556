"""Section-wise discrete Fourier analysis of chain eigenvectors.

A vector (a nonempty 1-d array; _vector refuses any other shape) of length
n is m = ceil(n/k) cells of k sites, the last completed by zeros
(zero_pad), laid out as u.reshape(m, k) and Fourier transformed along the
cell axis: the column for site p is the DFT of the section p, p+k, p+2k, ...
The per-bin masses give the resonance strength at each sampled
quasiperiodicity.  discrete_quasiperiodicity reads an eigenvector's |alpha|
off the bin grid, from the Bloch recurrence x(s+1) + x(s-1) = 2 cos(alpha) x(s)
fitted to its cells.  Summed round the cells instead of over the interior
ones, the fitted cosine is the mean of cos(alpha_j) under the masses
(Parseval): a moment of the same transform, not a new one.  From 6 cells
up the fit is refitted once without the cells of largest residual (a
defect, the ends).  A vector the fit cannot read as arccos(c), with |c| at
or near 1 or above, snaps to alpha = 0 or pi by the sign of its lag-1
correlation: an exact mode at alpha = 0 or pi, or an evanescent gap mode,
whose complex quasiperiodicity has real part 0 or pi; the same |c| > 1
flags it localized.

Real vectors stay real: zero_pad and polarize keep a float64 input float64
(complex input stays complex128).  discrete_quasiperiodicity reads a complex
u = a + ib as 2k real sites per cell, a and b side by side: the fit's sums of
Re(conj(x) y) are sums over those real sites.  polarize makes the first
component of a vector, or of each vector of a stack, real and nonnegative;
that phase changes no projection mass, so nothing bandrec writes reads it.

_number is the one number rule: a Python or numpy integer or float, a whole one (2.0, not 2.5, NaN or inf)
where an int is asked for, and no bool, string or complex; _count reads each size, grid and index by it.
"""

from __future__ import annotations

import math
import operator

import numpy as np

UNIT_NORM_TOL = 1e-8
TRIMMED_CELLS = 3  # cells the Bloch refit drops: a defect and the two ends of a chain
BLOCH_EDGE = 1e-6  # a fit with |c| >= 1 - BLOCH_EDGE snaps to alpha = 0 or pi; |c| > 1 + BLOCH_EDGE is evanescent


def brillouin_sample(m: int) -> np.ndarray:
    """Uniform quasiperiodicity grid 2*pi*j/m, j = -floor(m/2) .. m-1-floor(m/2)."""
    m = _count("grid size", m)
    j = np.arange(-(m // 2), m - m // 2)
    return 2.0 * np.pi * j / m


def bin_alphas(m: int) -> np.ndarray:
    """Quasiperiodicity of each DFT bin 0..m-1, wrapped into [-pi, pi): brillouin_sample in bin order."""
    return np.fft.ifftshift(brillouin_sample(m))


def _number(what: str, value, kind: type):
    """value as kind (int or float) by the number rule, else ValueError "<what> must be an integer, got <value!r>"."""
    try:
        if isinstance(value, (float, np.floating)) and (kind is float or float(value).is_integer()):
            return kind(value)
        if not isinstance(value, (bool, np.bool_)):  # a bool is no number, though operator.index reads True as 1
            return kind(operator.index(value))  # a Python or numpy integer; TypeError for the rest
    except (TypeError, OverflowError):  # float() overflows on an int beyond the float range
        pass
    raise ValueError(f"{what} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


def _count(what: str, n, least: int = 1, most: int | None = None) -> int:
    """n as an int by _number's rule if in least .. most, else ValueError "<what> must be at least <least>, got <n>".

    Above most, when given, the refusal is "<what> must be at most <most>, got <n>".
    """
    n = _number(what, n, int)
    if n < least:
        raise ValueError(f"{what} must be at least {least}, got {n}")
    if most is not None and n > most:
        raise ValueError(f"{what} must be at most {most}, got {n}")
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


def _padded(u, k: int) -> np.ndarray:
    """zero_pad for a k already counted: tfbt and discrete_quasiperiodicity read k once per call."""
    u = _vector(_float_or_complex(u))
    r = u.size % k
    if r == 0:
        return u
    return np.concatenate([u, np.zeros(k - r, dtype=u.dtype)])


def zero_pad(u, k: int) -> np.ndarray:
    """u as float64 or complex128, completed by zeros to a multiple of k: u itself when k divides it, else a copy."""
    return _padded(u, _count("block size", k))


def tfbt(u, k: int) -> np.ndarray:
    """Section map of zero_pad(u, k) followed by the unitary DFT: a (k, m) complex array, norm-preserving.

    Row p is the DFT, bin j = (1/sqrt(m)) sum_s x_s e^{-2i pi js/m}, of section
    p (entries p, p+k, p+2k, ...), so tfbt(v, 1)[0] is the DFT of v itself.
    """
    k = _count("block size", k)
    t = np.fft.fft(_padded(np.asarray(u, dtype=complex), k).reshape(-1, k), axis=0)
    return t.T / np.sqrt(t.shape[0])


def projection_profile(u, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin alphas and projection masses ||T^j(u)||^2, in DFT bin order."""
    t = tfbt(u, k)
    masses = np.sum(np.abs(t) ** 2, axis=0)
    return bin_alphas(t.shape[1]), masses


def quasiperiodic_extension(cell, alpha: float, m: int) -> np.ndarray:
    """(1/sqrt(m)) (u, e^{i a} u, ..., e^{i a (m-1)} u); norm equals ||u||."""
    cell, m = _vector(np.asarray(cell, dtype=complex)), _count("number of cells", m)
    phases = np.exp(1j * alpha * np.arange(m)) / np.sqrt(m)
    return np.kron(phases, cell)


def check_unit_norms(norms, what: str):
    """norms, a norm or an array of them, when each is within UNIT_NORM_TOL of one; else ValueError naming the worst."""
    off = abs(norms - 1.0)
    ok = off <= UNIT_NORM_TOL  # False for a NaN norm too
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):  # a numpy scalar's .all() costs 2 us per vector
        worst = float(np.ravel(norms)[np.argmax(off)])
        raise ValueError(f"{what} expects {'unit vectors' if np.ndim(norms) else 'a unit vector'}, got norm {worst!r}")
    return norms


def discrete_quasiperiodicity(u, k: int) -> tuple[float, bool]:
    """(alpha, evanescent) of the Bloch recurrence x(s+1) + x(s-1) = 2 cos(alpha) x(s) fitted to u's cells.

    u, of any length, is read as its m zero-padded cells (zero_pad), a
    complex u as its real layout of 2k sites per cell, and must be unit up
    to a small tolerance (eigensolver rounding).  c = cos(alpha) is fitted
    by least squares over every site and the interior cells s = 1 .. m - 2,
    refitted once from 2 * TRIMMED_CELLS cells up (_bloch_cosine), and
    alpha is arccos(c), in [0, pi], when |c| < 1 - BLOCH_EDGE.  Every other
    vector snaps to 0 or pi by the sign of its lag-1 correlation
    sum_s x(s) x(s+1): one of fewer than 3 cells or no interior mass, an
    exact mode at alpha = 0 or pi, where arccos amplifies rounding, and an
    evanescent one, |c| > 1, whose quasiperiodicity is complex with real
    part 0 or pi.  evanescent, a localized mode, is |c| > 1 + BLOCH_EDGE of
    the refitted c, a decay by e^{-kappa} per cell, cosh(kappa) = |c|; it is
    False with no refit, whose plain fit can read a short chain's ends as decay.
    """
    k = _count("block size", k)
    u = _padded(u, k)
    m = u.size // k
    x = np.ascontiguousarray(u).view(float)  # a complex column of a C-ordered array is copied to be viewed
    check_unit_norms(math.sqrt(x.dot(x)), "discrete_quasiperiodicity")
    cells = x.reshape(m, -1)
    c = _bloch_cosine(cells)
    if c is not None and abs(c) < 1.0 - BLOCH_EDGE:
        return math.acos(c), False
    evanescent = c is not None and abs(c) > 1.0 + BLOCH_EDGE and m >= 2 * TRIMMED_CELLS
    lag = cells.shape[1]  # sites per cell: x[lag:] is cell s + 1 against x[:-lag], cell s
    return (0.0 if x[lag:].dot(x[:-lag]) >= 0.0 else math.pi), evanescent


def _bloch_cosine(x: np.ndarray) -> float | None:
    """c of x(s+1) + x(s-1) = 2c x(s) on the (m, sites) layout x; None with no interior mass to fit on.

    The fit is c = sum x(s) (x(s+1) + x(s-1)) / (2 sum x(s)^2) over every
    site and the interior cells, the Bloch recurrence of a nearest-neighbour
    chain, exact between its defects and edges.  From 2 * TRIMMED_CELLS
    cells up, the refit drops the TRIMMED_CELLS cells of largest residual
    sum_p (x(s+1) + x(s-1) - 2c x(s))^2, one step of least trimmed squares:
    a second step reads ssh and dislocated chains to rounding too, at
    1.6-1.7 times the cost per vector.
    """
    z, y = x[1:-1].copy(), x[2:] + x[:-2]  # z is zeroed in the trimmed cells below
    zf, yf = z.ravel(), y.ravel()
    den = 2.0 * float(zf.dot(zf))
    if x.shape[0] >= 2 * TRIMMED_CELLS and den > 0.0:
        e = y - (2.0 * zf.dot(yf) / den) * z
        r = np.einsum("ij,ij->i", e, e)
        # zeroed, not subtracted: a localized mode's kept mass is far below its total; the slice from
        # r.size - TRIMMED_CELLS, not -TRIMMED_CELLS, keeps TRIMMED_CELLS = 0 a fit with no trim
        z[np.argpartition(r, -TRIMMED_CELLS)[r.size - TRIMMED_CELLS:]] = 0.0
        den = 2.0 * float(zf.dot(zf))
    return float(zf.dot(yf)) / den if den > 0.0 else None


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
