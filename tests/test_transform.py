import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandrec import matrices, spectra, symbols
from bandrec.transform import (bin_alphas, brillouin_sample, dft,
                               discrete_quasiperiodicity, polarize, projection_profile,
                               quasiperiodic_extension, sections, tfb_projection, tfbt,
                               zero_pad)


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


def test_dft_constant_vector_hits_zero_bin():
    out = dft(np.ones(4) / 2.0)
    assert np.allclose(out, [1, 0, 0, 0], atol=1e-14)


def test_dft_fourier_mode_hits_own_bin():
    omega = 0.5 * np.array([1, 1j, -1, -1j])
    assert np.allclose(dft(omega), [0, 1, 0, 0], atol=1e-14)


def test_dft_matches_direct_summation():
    rng = np.random.default_rng(7)
    for m in (1, 2, 5, 8, 33, 64):
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        direct = np.array([np.sum(v * np.exp(-2j * np.pi * j * np.arange(m) / m))
                           for j in range(m)]) / np.sqrt(m)
        assert np.max(np.abs(dft(v) - direct)) < 1e-10
        assert abs(np.linalg.norm(dft(v)) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)


def test_sections_basic():
    sec = sections([1, 2, 3, 4], 2)
    assert np.allclose(sec, [[1, 3], [2, 4]])
    assert np.allclose(sec.T.reshape(-1), [1, 2, 3, 4])
    single = sections([1, 2, 3], 1)
    assert np.allclose(single[0], [1, 2, 3])
    assert abs(np.linalg.norm(sec) ** 2 - 30.0) < 1e-12


def test_sections_rejects_bad_length():
    with pytest.raises(ValueError):
        sections([1, 2, 3], 2)


def test_zero_pad():
    u = zero_pad(np.arange(5, dtype=complex), 2)
    assert u.size == 6 and u[-1] == 0
    v = np.arange(4, dtype=complex)
    assert np.array_equal(zero_pad(v, 2), v)
    w = np.array([3.0, 4.0])
    assert np.linalg.norm(zero_pad(w, 5)) == np.linalg.norm(w)


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
    for j in range(m):
        mass = np.linalg.norm(tfb_projection(u, 2, j)) ** 2
        assert abs(mass - (1.0 if j == s else 0.0)) < 1e-12


def test_tfb_projection_wraps_modulo_m():
    rng = np.random.default_rng(5)
    u = rng.normal(size=12) + 1j * rng.normal(size=12)
    assert np.allclose(tfb_projection(u, 3, 1), tfb_projection(u, 3, 5))
    assert np.allclose(tfb_projection(u, 3, -1), tfb_projection(u, 3, 3))
    total = sum(np.linalg.norm(tfb_projection(u, 3, j)) ** 2 for j in range(4))
    assert abs(total - np.linalg.norm(u) ** 2) < 1e-10


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
        assert abs(discrete_quasiperiodicity(u, 1) - abs(alpha)) < 1e-12
        # any unit combination within the +-alpha eigenspace recovers |alpha|
        w = 0.6 * u + 0.8j * quasiperiodic_extension([1.0], -alpha, m)
        assert abs(discrete_quasiperiodicity(w, 1) - abs(alpha)) < 1e-12


def test_discrete_quasiperiodicity_constant_vector():
    u = np.ones(10) / np.sqrt(10)
    assert discrete_quasiperiodicity(u, 1) < 1e-12


def test_discrete_quasiperiodicity_phase_invariant():
    rng = np.random.default_rng(11)
    u = rng.normal(size=12) + 1j * rng.normal(size=12)
    u /= np.linalg.norm(u)
    q0 = discrete_quasiperiodicity(u, 2)
    q1 = discrete_quasiperiodicity(u * np.exp(0.7j), 2)
    assert abs(q0 - q1) < 1e-12
    assert 0.0 <= q0 <= np.pi


def test_discrete_quasiperiodicity_rejects_non_unit():
    with pytest.raises(ValueError):
        discrete_quasiperiodicity(np.ones(4), 1)


def test_projection_profile_sums_to_one():
    rng = np.random.default_rng(13)
    u = rng.normal(size=18) + 1j * rng.normal(size=18)
    u /= np.linalg.norm(u)
    alphas, masses = projection_profile(u, 3)
    assert alphas.size == masses.size == 6
    assert abs(masses.sum() - 1.0) < 1e-12


def test_polarize_pivot_rules():
    u = polarize(np.array([1j, 2.0]))
    assert abs(u[0].imag) < 1e-15 and u[0].real > 0
    # first component negligible: pivot moves to the largest entry
    v = polarize(np.array([1e-12, 0.0, -2.0]))
    assert v[2].real > 0 and abs(v[2].imag) < 1e-15
    assert np.allclose(np.abs(v), [1e-12, 0, 2])


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
    q = discrete_quasiperiodicity(u, k)
    assert abs(discrete_quasiperiodicity(np.exp(1j * phase) * u, k) - q) < 1e-12


@PROPERTY
@given(m=st.integers(3, 40), dimer=st.booleans(), seed=SEEDS)
def test_quasiperiodicity_ignores_rebasing_inside_a_degenerate_cluster(m, dimer, seed):
    sym = symbols.dimer_symbol(1.0, 2.0) if dimer else symbols.nearest_neighbour_symbol(2.0, -1.0)
    eig = spectra.hermitian_eigen(matrices.circulant_matrix(sym, m))
    rng = np.random.default_rng(seed)
    for cluster in spectra.degenerate_clusters(eig.values, float(np.abs(eig.values).max())):
        q = discrete_quasiperiodicity(eig.vectors[:, cluster[0]], sym.k)
        z = rng.normal(size=(len(cluster),) * 2) + 1j * rng.normal(size=(len(cluster),) * 2)
        rebased = eig.vectors[:, cluster] @ np.linalg.qr(z)[0]
        for c in range(len(cluster)):
            assert abs(discrete_quasiperiodicity(rebased[:, c], sym.k) - q) < 1e-10
