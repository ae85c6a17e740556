import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandrec import matrices, reconstruct, spectra, symbols
from bandrec.transform import (bin_alphas, brillouin_sample,
                               discrete_quasiperiodicity, polarize, projection_profile,
                               quasiperiodic_extension, tfbt, zero_pad)


def test_brillouin_sample_layout():
    for m in (2, 3, 8, 17):
        alphas = brillouin_sample(m)
        assert alphas.size == m
        assert np.all(alphas >= -np.pi) and np.all(alphas < np.pi)
        assert 0.0 in alphas
        assert np.all(np.diff(alphas) > 0)


def test_bin_alphas_wraps_high_bins():
    a = bin_alphas(4)
    assert np.allclose(a, [0.0, np.pi / 2, -np.pi, -np.pi / 2])
    assert set(np.round(bin_alphas(5), 12)) == set(np.round(brillouin_sample(5), 12))


def test_bin_alphas_equals_the_wrapped_bin_formula_bit_for_bit():
    for m in range(1, 258):
        j = np.arange(m)
        wrapped = np.where(j < m - m // 2, j, j - m)
        assert np.array_equal(bin_alphas(m), 2.0 * np.pi * wrapped / m), m


def test_dft_constant_vector_hits_zero_bin():
    out = tfbt(np.ones(4) / 2.0, 1)[0]
    assert np.allclose(out, [1, 0, 0, 0], atol=1e-14)


def test_dft_fourier_mode_hits_own_bin():
    omega = 0.5 * np.array([1, 1j, -1, -1j])
    assert np.allclose(tfbt(omega, 1)[0], [0, 1, 0, 0], atol=1e-14)


def test_dft_matches_direct_summation():
    rng = np.random.default_rng(7)
    for m in (1, 2, 5, 8, 33, 64):
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        direct = np.array([np.sum(v * np.exp(-2j * np.pi * j * np.arange(m) / m))
                           for j in range(m)]) / np.sqrt(m)
        out = tfbt(v, 1)[0]
        assert np.max(np.abs(out - direct)) < 1e-10
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("dtype", [float, complex])
def test_dft_is_the_unitary_fft_bit_for_bit(dtype):
    rng = np.random.default_rng(29)
    for m in range(1, 200):
        v = rng.normal(size=m).astype(dtype)
        if dtype is complex:
            v += 1j * rng.normal(size=m)
        assert np.array_equal(tfbt(v, 1)[0], np.fft.fft(v.astype(complex)) / np.sqrt(m)), m


def test_sections_basic():
    # the section layout tfbt reads: section p of zero_pad(u, k) holds entries p, p+k, p+2k, ...
    u = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(zero_pad(u, 2).reshape(-1, 2).T, [[1, 3], [2, 4]])
    assert np.array_equal(zero_pad(u[:3], 1).reshape(-1, 1).T[0], [1, 2, 3])
    t = tfbt(u, 2)  # sections [1, 3] and [2, 4]
    assert np.allclose(t, np.array([[4, -2], [6, -2]]) / np.sqrt(2), atol=1e-14)
    assert abs(np.linalg.norm(t) ** 2 - 30.0) < 1e-12


def test_sections_zero_pads_the_last_cell():
    assert np.array_equal(zero_pad([1.0, 2.0, 3.0], 2).reshape(-1, 2).T, [[1, 3], [2, 0]])
    # sections [1, 3] and [2, 0]
    assert np.allclose(tfbt([1.0, 2.0, 3.0], 2), np.array([[4, -2], [2, 2]]) / np.sqrt(2), atol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_one_cell_shift_multiplies_bin_j_by_its_phase(k):
    # moving u one cell along the chain (k sites, cyclically) multiplies bin j of every section by e^{-2i pi j/m}
    rng = np.random.default_rng(31 + k)
    for m in (1, 2, 5, 8, 33, 64):
        u = rng.normal(size=m * k) + 1j * rng.normal(size=m * k)
        phase = np.exp(-2j * np.pi * np.arange(m) / m)
        assert np.max(np.abs(tfbt(np.roll(u, k), k) - phase * tfbt(u, k))) < 1e-12 * np.linalg.norm(u), m


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_real_vector_puts_the_same_mass_in_bins_j_and_m_minus_j(k):
    # a real vector's sections have conjugate-symmetric DFTs: bin m - j mirrors bin j
    rng = np.random.default_rng(37 + k)
    for m in (1, 2, 5, 8, 33, 64):
        _, masses = projection_profile(rng.normal(size=m * k), k)
        assert np.max(np.abs(masses[1:] - masses[:0:-1]), initial=0.0) <= 1e-13 * masses.sum(), m


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [5, 7, 9])
def test_every_entry_point_reads_a_vector_as_its_zero_padded_cells(n, k, complex_input):
    rng = np.random.default_rng(100 * n + k)
    u = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_input else 0.0)
    u /= np.linalg.norm(u)
    padded = zero_pad(u, k)
    assert padded.size == -(-n // k) * k
    assert discrete_quasiperiodicity(u, k) == discrete_quasiperiodicity(padded, k)
    for fn in (projection_profile, lambda v, k: (tfbt(v, k),)):
        for got, want in zip(fn(u, k), fn(padded, k)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_zero_pad_returns_a_vector_k_divides_itself_and_pads_a_copy_otherwise(dtype):
    u = np.arange(1, 7).astype(dtype)
    for k in (1, 2, 3, 6):
        assert zero_pad(u, k) is u
    for k in (4, 5, 7):
        padded = zero_pad(u, k)
        assert padded is not u and not np.shares_memory(padded, u) and padded.dtype == dtype
        assert padded.size % k == 0 and np.array_equal(padded[:6], u) and not padded[6:].any()


@pytest.mark.parametrize("shape", [(2, 2), (3, 1), (0,)], ids=["2x2", "3x1", "empty"])
@pytest.mark.parametrize("fn", [discrete_quasiperiodicity, projection_profile, tfbt, zero_pad,
                                lambda u, k: quasiperiodic_extension(u, 0.5, k)],
                         ids=["discrete_quasiperiodicity", "projection_profile", "tfbt", "zero_pad",
                              "quasiperiodic_extension"])
def test_every_entry_point_refuses_what_is_not_a_nonempty_vector(fn, shape):
    # np.ones((2, 2)) / 2 was read as its flattening: discrete_quasiperiodicity gave 0.0
    with pytest.raises(ValueError, match=f"^{re.escape(f'expected a nonempty 1-d vector, got shape {shape}')}$"):
        fn(np.full(shape, 0.5), 2)


def test_zero_pad():
    u = zero_pad(np.arange(5, dtype=complex), 2)
    assert u.size == 6 and u[-1] == 0
    v = np.arange(4, dtype=complex)
    assert np.array_equal(zero_pad(v, 2), v)
    w = np.array([3.0, 4.0])
    assert np.linalg.norm(zero_pad(w, 5)) == np.linalg.norm(w)
    assert zero_pad(w, 5).dtype == np.float64 and zero_pad(u, 4).dtype == np.complex128


def test_tfbt_on_quasiperiodic_extension():
    u = quasiperiodic_extension([1.0, 0.0], np.pi / 2, 4)
    t = tfbt(u, 2)
    assert np.allclose(t[0], [0, 1, 0, 0], atol=1e-14)
    assert np.allclose(t[1], 0, atol=1e-14)


def test_tfbt_impulse_is_flat():
    out = tfbt(np.array([1.0, 0, 0, 0]), 1)
    assert np.allclose(out[0], 0.5, atol=1e-14)


def test_tfbt_unitary():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k, m = int(rng.integers(1, 4)), int(rng.integers(1, 20))
        u = rng.normal(size=m * k) + 1j * rng.normal(size=m * k)
        assert abs(np.linalg.norm(tfbt(u, k)) - np.linalg.norm(u)) < 1e-12 * np.linalg.norm(u)


def test_tfb_projection_is_kronecker_on_circulant_eigenvectors():
    sym = symbols.dimer_symbol(1.0, 2.0)
    m, s = 8, 3
    alpha = 2 * np.pi * s / m
    _, vecs = np.linalg.eigh(symbols.evaluate_symbol(sym, -alpha))
    u = quasiperiodic_extension(vecs[:, 0], alpha, m)
    t = tfbt(u, 2)
    for j in range(m):
        mass = np.linalg.norm(t[:, j]) ** 2
        assert abs(mass - (1.0 if j == s else 0.0)) < 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
def test_tfbt_and_projection_profile_equal_the_section_layout_bit_for_bit(dtype):
    # the reference is the (k, m) section layout, section p = u[p::k], one fft per section
    rng = np.random.default_rng(17)
    for m in range(1, 65):
        for k in (1, 2, 3):
            u = rng.normal(size=m * k).astype(dtype)
            if dtype is complex:
                u += 1j * rng.normal(size=m * k)
            ref = np.fft.fft(np.array([u[p::k] for p in range(k)], dtype=complex), axis=1) / np.sqrt(m)
            assert np.array_equal(tfbt(u, k), ref), (m, k)
            _, masses = projection_profile(u, k)
            assert np.array_equal(masses, np.sum(np.abs(ref) ** 2, axis=0)), (m, k)


def test_quasiperiodic_extension_values():
    u = quasiperiodic_extension([1.0, 0.0], np.pi, 2)
    assert np.allclose(u, np.array([1, 0, -1, 0]) / np.sqrt(2))
    v = quasiperiodic_extension([2.0, 1.0], 0.0, 3)
    assert np.allclose(v, np.array([2, 1, 2, 1, 2, 1]) / np.sqrt(3))
    assert abs(np.linalg.norm(v) - np.linalg.norm([2.0, 1.0])) < 1e-14


def test_quasiperiodic_extension_diagonalises_circulant():
    sym = symbols.dimer_symbol(1.0, 2.0)
    m = 8
    C = matrices.circulant_matrix(sym, m)
    for alpha in brillouin_sample(m):
        vals, vecs = np.linalg.eigh(symbols.evaluate_symbol(sym, -alpha))
        for p in range(2):
            v = quasiperiodic_extension(vecs[:, p], alpha, m)
            assert np.linalg.norm(C.data @ v - vals[p] * v) < 1e-10


def test_discrete_quasiperiodicity_on_extensions():
    for m, s in ((8, 1), (8, 3), (12, 5)):
        alpha = 2 * np.pi * s / m
        u = quasiperiodic_extension([1.0], alpha, m)
        assert abs(discrete_quasiperiodicity(u, 1)[0] - abs(alpha)) < 1e-12
        # any unit combination within the +-alpha eigenspace recovers |alpha|
        w = 0.6 * u + 0.8j * quasiperiodic_extension([1.0], -alpha, m)
        assert abs(discrete_quasiperiodicity(w, 1)[0] - abs(alpha)) < 1e-12


def test_discrete_quasiperiodicity_constant_vector():
    u = np.ones(10) / np.sqrt(10)
    assert discrete_quasiperiodicity(u, 1)[0] < 1e-12


def test_discrete_quasiperiodicity_phase_invariant():
    rng = np.random.default_rng(11)
    u = rng.normal(size=12) + 1j * rng.normal(size=12)
    u /= np.linalg.norm(u)
    q0 = discrete_quasiperiodicity(u, 2)[0]
    q1 = discrete_quasiperiodicity(u * np.exp(0.7j), 2)[0]
    assert abs(q0 - q1) < 1e-12
    assert 0.0 <= q0 <= np.pi


@pytest.mark.parametrize("bad,norm", [(np.nan, "nan"), (np.inf, "inf"), (complex(0.0, np.nan), "nan")])
def test_unit_norm_tests_refuse_non_finite_vectors(bad, norm):
    u = np.array([0.6, 0.0, 0.8], dtype=complex)
    u[1] = bad
    with pytest.raises(ValueError, match=f"^discrete_quasiperiodicity expects a unit vector, got norm {norm}$"):
        discrete_quasiperiodicity(u, 1)
    V = np.eye(3, dtype=complex)
    V[:, 2] = u
    with pytest.raises(ValueError, match=f"^localization_metrics expects unit vectors, got norm {norm}$"):
        spectra.localization_metrics(V)


def test_projection_profile_sums_to_one():
    rng = np.random.default_rng(13)
    u = rng.normal(size=18) + 1j * rng.normal(size=18)
    u /= np.linalg.norm(u)
    alphas, masses = projection_profile(u, 3)
    assert alphas.size == masses.size == 6
    assert abs(masses.sum() - 1.0) < 1e-12


def _fit_or_snap(u, k):
    """Reference below 6 cells: arccos(c) of the untrimmed Bloch fit over the interior cells when |c| < 1 - 1e-6,
    else 0 or pi by the sign of the lag-1 correlation Re sum_s <u(s), u(s+1)> over the zero-padded cells."""
    cells = zero_pad(u, k).reshape(-1, k)
    z, y = cells[1:-1], cells[2:] + cells[:-2]
    den = 2.0 * np.vdot(z, z).real
    c = np.vdot(z, y).real / den if den > 0.0 else np.inf
    if abs(c) < 1.0 - 1e-6:
        return np.arccos(c)
    return 0.0 if np.vdot(cells[:-1], cells[1:]).real >= 0.0 else np.pi


def _evanescent(rng, m, k, dtype, sign):
    """Unit up to eigensolver rounding: g q^s + h q^(m-1-s) per site, times sign^s; random g, h and 0.2 < q < 0.8,
    so every cell obeys the Bloch recurrence with c = sign (q + 1/q) / 2, |c| > 1."""
    s = np.arange(m)[:, None]
    g, h = (rng.normal(size=(2, k)) + (1j * rng.normal(size=(2, k)) if dtype == complex else 0.0))
    q = rng.uniform(0.2, 0.8)
    u = ((g * q ** s + h * q ** (m - 1 - s)) * sign ** s).ravel()
    return u * (1.0 + 1e-9 * rng.normal()) / np.linalg.norm(u)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quasiperiodicity_snaps_to_0_or_pi_where_the_fit_cannot_read_it(k):
    # fewer than 6 cells: the untrimmed fit, or the snap when it reads |c| >= 1 - 1e-6 or has no interior cell
    rng, rng_real = np.random.default_rng(23 + k), np.random.default_rng(230 + k)
    for m in range(1, 6):
        u = rng.normal(size=m * k) + 1j * rng.normal(size=m * k)
        u *= (1.0 + 1e-9 * rng.normal()) / np.linalg.norm(u)  # unit up to eigensolver rounding
        v = rng_real.normal(size=m * k)
        v *= (1.0 + 1e-9 * rng_real.normal()) / np.linalg.norm(v)
        for w in (u, v):
            assert abs(discrete_quasiperiodicity(w, k)[0] - _fit_or_snap(w, k)) < 1e-12, (m, w.dtype)
    # an evanescent vector, a gap mode's complex Bloch wave, reads the real part of its quasiperiodicity
    for m in (*range(6, 30), 64, 255, 1000):
        for sign, alpha in ((1.0, 0.0), (-1.0, np.pi)):
            for w in (_evanescent(rng, m, k, complex, sign), _evanescent(rng_real, m, k, float, sign)):
                assert discrete_quasiperiodicity(w, k)[0] == alpha, (m, w.dtype, sign)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_an_evanescent_fit_is_flagged_from_6_cells_up(k):
    rng = np.random.default_rng(40 + k)
    cell = rng.normal(size=k) + 1j * rng.normal(size=k)
    cell /= np.linalg.norm(cell)
    for m in (3, 4, 5, 6, 7, 20, 101):
        # a Bloch wave on the unit circle is not evanescent, at alpha = 0 and pi too, where |c| = 1 snaps
        for alpha in (*brillouin_sample(m), np.pi, 1.234):
            assert discrete_quasiperiodicity(quasiperiodic_extension(cell, alpha, m), k)[1] is False, (m, alpha)
        # a cell vector times mu^s, |mu| < 1, obeys the recurrence with |c| = |mu + 1/mu| / 2 > 1; the plain fit of a
        # chain of 3 to 5 cells reads the same |c| > 1 from its ends, so it is flagged only from 6 cells up
        for mu, alpha in ((0.5, 0.0), (0.9, 0.0), (-0.5, np.pi), (-0.9, np.pi)):
            u = np.kron(mu ** np.arange(m), cell)
            for w in (u, u.real):
                assert discrete_quasiperiodicity(w / np.linalg.norm(w), k) == (alpha, m >= 6), (m, mu, w.dtype)


def test_a_mode_at_alpha_0_with_a_trace_of_far_mass_snaps_to_0():
    # a mode at alpha = 0 with 1e-7 of its mass at bin 25 of m = 64: its refit reads c = 1 + 1.6e-5, so it snaps
    # to 0; the mean of |alpha| over all bins gave 2 pi 25 / 64 * 1e-7 = 2.5e-7
    s = np.arange(64)
    u = np.sqrt((1.0 - 1e-7) / 64) + np.sqrt(1e-7 / 32) * np.cos(2 * np.pi * 25 * s / 64)
    assert discrete_quasiperiodicity(u, 1)[0] == 0.0


def test_an_off_grid_section_is_read_to_rounding():
    # alpha = pi s / (m + 1) of the sine family lies between the bins 2 pi j / m; so does a dimer section's
    for m in (41, 81, 161, 321):
        oracle = reconstruct.tridiagonal_eigenpairs_oracle(2.0, -1.0, m)
        q = [discrete_quasiperiodicity(oracle.vectors[:, i], 1)[0] for i in range(m)]
        assert np.max(np.abs(np.array(q) - np.pi * np.arange(1, m + 1) / (m + 1))) <= 1e-12, m
    for m in (10, 31, 80, 161):
        eig = spectra.hermitian_eigen(matrices.toeplitz_matrix(symbols.dimer_symbol(1.0, 2.0), m))
        q = [discrete_quasiperiodicity(eig.vectors[:, i], 2)[0] for i in range(eig.n)]
        # the dimer bands 3/2 -+ |1 + e^{i alpha} / 2| give cos(alpha) = (lambda - 3/2)^2 - 5/4
        assert np.max(np.abs(np.array(q) - np.arccos((eig.values - 1.5) ** 2 - 1.25))) <= 1e-12, m


def test_polarize_pivot_rules():
    # the first component is the pivot, however small
    for u in (np.array([1j, 2.0]), np.array([-1e-12j, 0.0, -2.0]), np.array([-3e-300 + 4e-300j, 1.0])):
        v = polarize(u)
        assert v[0].real > 0.0 and abs(v[0].imag) <= 1e-15 * abs(u[0])
        assert np.allclose(np.abs(v), np.abs(u), rtol=1e-15, atol=0.0)
    # a zero first component leaves the vector unchanged, and so does a subnormal one of a complex vector
    for u in (np.array([0.0, 1j, -2.0]), np.array([complex(-0.0, -0.0), -1.0]), np.array([5e-324 + 5e-324j, 1.0])):
        assert polarize(u).tobytes() == u.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_real_and_complex_input_give_the_same_quasiperiodicity(k):
    rng = np.random.default_rng(k)
    for length in [*range(1, 13 * k), 80 * k - 1, 80 * k, 81 * k, 2001]:  # odd and even m, padded or not
        u = rng.normal(size=length)
        u = zero_pad(u / np.linalg.norm(u), k)
        assert u.dtype == np.float64
        assert abs(discrete_quasiperiodicity(u, k)[0] - discrete_quasiperiodicity(u.astype(complex), k)[0]) < 1e-14


def test_polarize_flips_a_real_vector_exactly():
    rng = np.random.default_rng(5)
    for u in (rng.normal(size=9), -np.abs(rng.normal(size=9)), np.array([1e-12, 0.5, -2.0]),
              np.array([-1e-12, 3.0, -2.0]), np.array([-5e-324, 1.0]), np.array([0.0, -1.0]),
              np.array([-0.0, -1.0]), np.zeros(3)):
        v = polarize(u)
        assert v.dtype == np.float64
        assert np.array_equal(v, u) or np.array_equal(v, -u)
        assert v[0] >= 0.0
        if u[0] == 0.0:
            assert v.tobytes() == u.tobytes()  # unchanged, sign bits included


@pytest.mark.parametrize("pivot", [0.75, -0.75, 0.0, -0.0, 5e-324, -5e-324, np.nan])
def test_polarize_returns_a_new_real_vector_equal_to_u_or_minus_u_bit_for_bit(pivot):
    u = np.array([pivot, -2.0, 0.0, -0.0, 3.5e-310, 1.0, -np.inf, np.nan])
    before = u.copy()
    v = polarize(u)
    assert v.dtype == np.float64 and v is not u and not np.shares_memory(v, u)
    v[:] = 7.0
    assert u.tobytes() == before.tobytes()  # writing to the result leaves u as it was
    assert polarize(u).tobytes() == (-u if pivot < 0.0 else u).tobytes()  # -0.0 and NaN pivots keep u; -u flips NaN too
    stack = np.stack([u, -u, np.roll(u, 1)], axis=1)
    assert polarize(stack).tobytes() == np.stack([polarize(stack[:, c]) for c in range(3)], axis=1).tobytes()


def _stack_with_awkward_pivots(shape, dtype, seed):
    """Random vectors along axis 0 of shape; every third has a first component with negative real part, a first
    component of magnitude about 1e-12, or no nonzero entry."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype == complex else 0.0)
    cols = u.reshape(shape[0], -1)  # a view: each column is one vector
    cols[0, 0::3] -= 2.0 * np.abs(cols[0, 0::3].real)
    cols[0, 1::3] = 1e-12 * rng.normal(size=cols[0, 1::3].shape)
    cols[:, 2::3] = 0.0
    return u


def _polarized_alone(v):
    """The first-component rule on one vector in scalar arithmetic."""
    if v.dtype.kind == "f":
        return -v if v[0] < 0.0 else v.copy()
    size = abs(v[0])
    return v.copy() if size < np.finfo(float).tiny else v * (v[0].conjugate() / size)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(7,), (1,), (5, 9), (1, 6), (1, 1), (4, 3, 5), (2, 1, 7)])
def test_a_stack_polarizes_as_its_vectors_do_bit_for_bit(shape, dtype):
    u = _stack_with_awkward_pivots(shape, dtype, seed=len(shape) + shape[0])
    before = u.copy()
    got = polarize(u)
    assert got.dtype == u.dtype and got.shape == u.shape
    assert np.array_equal(u, before)  # the input is not modified
    cols = u.reshape(shape[0], -1)
    one_by_one = np.stack([polarize(cols[:, c]) for c in range(cols.shape[1])], axis=1).reshape(shape)
    expected = np.stack([_polarized_alone(cols[:, c]) for c in range(cols.shape[1])], axis=1).reshape(shape)
    # equal entries and equal sign bits, so -0.0 and 0.0 count as different
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()
    assert one_by_one.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["first_components_of_any_size", "negative_zeros", "one_negative_zero_vector"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(2000,), (50, 40), (4, 3, 5)])
def test_polarize_takes_row_0_as_every_pivot(shape, dtype, kind):
    rng = np.random.default_rng(shape[0])
    u = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype == complex else 0.0)
    cols = u.reshape(shape[0], -1)  # a view: each column is one vector
    cols[0] *= 10.0 ** rng.uniform(-300.0, 0.0, size=cols.shape[1]) / np.abs(cols[0])  # sign or phase kept
    negative_zero = complex(-0.0, -0.0) if dtype == complex else -0.0
    if kind == "negative_zeros":
        u[...] = negative_zero
    elif kind == "one_negative_zero_vector":
        cols[:, -1] = negative_zero
    got = polarize(u)
    assert got.dtype == u.dtype and got.shape == u.shape
    expected = np.stack([_polarized_alone(cols[:, c]) for c in range(cols.shape[1])], axis=1).reshape(shape)
    assert got.tobytes() == expected.tobytes()  # sign bits included
    first = got.reshape(shape[0], -1)[0]
    assert (first.real >= 0.0).all() and (np.abs(first.imag) <= 1e-15 * np.abs(first)).all()
    if kind == "negative_zeros":
        assert np.signbit(got.view(float)).all()


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (2, 0, 4), ()])
def test_polarize_refuses_an_empty_vector_or_stack(shape):
    with pytest.raises(ValueError, match=rf"^polarize expects a nonempty vector or stack of vectors, "
                                         rf"got shape {re.escape(str(shape))}$"):
        polarize(np.zeros(shape))


PROPERTY = settings(max_examples=40, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


def _unit_vector(seed, size):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=size) + 1j * rng.normal(size=size)
    return u / np.linalg.norm(u)


@PROPERTY
@given(m=st.integers(1, 24), k=st.integers(1, 3), seed=SEEDS)
def test_tfbt_keeps_unit_vectors_unit(m, k, seed):
    assert abs(np.linalg.norm(tfbt(_unit_vector(seed, m * k), k)) - 1.0) < 1e-12


@PROPERTY
@given(m=st.integers(1, 24), k=st.integers(1, 3), seed=SEEDS, phase=st.floats(0.0, 2.0 * np.pi))
def test_quasiperiodicity_ignores_a_global_phase(m, k, seed, phase):
    u = _unit_vector(seed, m * k)
    q = discrete_quasiperiodicity(u, k)[0]
    assert abs(discrete_quasiperiodicity(np.exp(1j * phase) * u, k)[0] - q) < 1e-12


@PROPERTY
@given(m=st.integers(3, 40), dimer=st.booleans(), seed=SEEDS)
def test_quasiperiodicity_ignores_rebasing_inside_a_degenerate_cluster(m, dimer, seed):
    sym = symbols.dimer_symbol(1.0, 2.0) if dimer else symbols.nearest_neighbour_symbol(2.0, -1.0)
    eig = spectra.hermitian_eigen(matrices.circulant_matrix(sym, m))
    rng = np.random.default_rng(seed)
    for cluster in spectra.degenerate_clusters(eig.values, float(np.abs(eig.values).max())):
        q = discrete_quasiperiodicity(eig.vectors[:, cluster[0]], sym.k)[0]
        z = rng.normal(size=(len(cluster),) * 2) + 1j * rng.normal(size=(len(cluster),) * 2)
        rebased = eig.vectors[:, cluster] @ np.linalg.qr(z)[0]
        for c in range(len(cluster)):
            assert abs(discrete_quasiperiodicity(rebased[:, c], sym.k)[0] - q) < 1e-10
