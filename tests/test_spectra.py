import numpy as np
import pytest

from bandrec import cli, matrices, spectra, symbols, transform
from bandrec.spectra import degenerate_clusters, hermitian_eigen, localization_metrics, near_far_split, residual
from bandrec.matrices import FiniteMatrix


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return FiniteMatrix(data=(A + A.conj().T) / 2)


def test_hermitian_eigen_diagonal():
    eig = hermitian_eigen(FiniteMatrix(data=np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(eig.values, [1, 2, 3])
    perm = np.abs(eig.vectors)
    assert np.allclose(perm, np.eye(3)[:, [1, 2, 0]])


def test_hermitian_eigen_tridiagonal_closed_form():
    sym = symbols.nearest_neighbour_symbol(2.0, -1.0)
    eig = hermitian_eigen(matrices.toeplitz_matrix(sym, 4))
    expect = np.sort(2.0 - 2.0 * np.cos(np.arange(1, 5) * np.pi / 5))
    assert np.max(np.abs(eig.values - expect)) < 1e-12
    q = np.arange(1, 5)
    for i, s in enumerate(range(1, 5)):
        sine = np.sin(q * s * np.pi / 5)
        sine = sine / np.linalg.norm(sine)
        overlap = abs(np.vdot(sine, eig.vectors[:, i]))
        assert abs(overlap - 1.0) < 1e-12


def _dense_reference(data):
    """Dense eigh, then polarize every column: what the dstevd path must match bit for bit."""
    vals, vecs = np.linalg.eigh(data)
    vecs = np.array([transform.polarize(vecs[:, i]) for i in range(vals.size)]).T
    return vals, (vecs if np.iscomplexobj(data) else vecs.real)


def _dimer_chain(n):
    """n sites with spacings alternating 1, 2 (the compact_defect scenario's base)."""
    return matrices.chain_capacitance([1.0 if i % 2 else 2.0 for i in range(1, n)])


def _compact_symmetrized(n):
    return matrices.compact_perturbation(_dimer_chain(n), matrices.center_index(n),
                                         -0.3).symmetrized


def _chain_with_a_cut(n):
    data = _dimer_chain(n).data.copy()
    data[n // 2, n // 2 - 1] = data[n // 2 - 1, n // 2] = 0.0
    return FiniteMatrix(data=data)


TRIDIAGONAL = {
    "single_site": lambda n: FiniteMatrix(data=np.array([[3.0]])),
    "ssh": lambda n: matrices.ssh_matrix(1.0, 2.0, (n - 1) // 4),
    "dislocated": lambda n: matrices.dislocated_chain(1.0, 2.0, 4.0, n // 4),
    "compact_symmetrized": _compact_symmetrized,
    "capacitance_1d": lambda n: matrices.capacitance_1d(2.0, -1.0, n),
    "reducible": _chain_with_a_cut,
}


@pytest.mark.parametrize("family,n", [
    ("single_site", 1),
    *[("ssh", n) for n in (25, 161, 2001)],
    *[("dislocated", n) for n in (24, 160, 2000)],
    *[("compact_symmetrized", n) for n in (2, 25, 26, 161, 2001)],
    *[("capacitance_1d", n) for n in (2, 25, 26, 161, 2001)],
    ("reducible", 26),
])
def test_hermitian_eigen_tridiagonal_matches_dense_bitwise(family, n):
    M = TRIDIAGONAL[family](n)
    assert M.n == n
    eig = hermitian_eigen(M)
    vals, vecs = _dense_reference(M.data)
    assert np.array_equal(eig.values, vals)
    assert np.array_equal(eig.vectors, vecs)
    assert eig.vectors.dtype == np.float64 and eig.vectors.flags.f_contiguous
    assert eig.vectors.base is None or not np.iscomplexobj(eig.vectors.base)


def test_hermitian_eigen_tridiagonal_skips_dense_eigh(monkeypatch):
    if spectra._bundled_dstevd() is None:
        pytest.skip("numpy's bundled OpenBLAS exports no LAPACKE_dstevd")

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigh called for a tridiagonal matrix")
    M = TRIDIAGONAL["ssh"](161)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    eig = hermitian_eigen(M)
    assert residual(M, float(eig.values[80]), eig.vectors[:, 80]) < 1e-12


def test_hermitian_eigen_takes_dense_eigh_without_dstevd(monkeypatch):
    M = TRIDIAGONAL["ssh"](81)
    expected = hermitian_eigen(M)
    monkeypatch.setattr(spectra, "_bundled_dstevd", lambda: None)  # a numpy without the library
    eig = hermitian_eigen(M)
    assert eig.values.tobytes() == expected.values.tobytes()
    assert eig.vectors.tobytes(order="F") == expected.vectors.tobytes(order="F")
    assert eig.vectors.dtype == np.float64 and eig.vectors.flags.f_contiguous


def test_a_failing_dstevd_is_refused_and_a_run_writes_nothing(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(spectra, "_bundled_dstevd", lambda: lambda *args: 3)  # LAPACK's info = 3
    with pytest.raises(np.linalg.LinAlgError, match=r"^dstevd failed, info=3$"):
        hermitian_eigen(TRIDIAGONAL["ssh"](21))
    out = tmp_path / "run"
    assert cli.main(["reconstruct", "--scenario", "ssh", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: dstevd failed, info=3\n"
    assert not out.exists()


def _unloadable(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_unloadable, lambda path: object()],  # the second exports no LAPACKE_dstevd
                         ids=["oserror", "no_symbol"])
def test_bundled_dstevd_is_none_where_the_library_gives_none(monkeypatch, cdll):
    monkeypatch.setattr(spectra.ctypes, "CDLL", cdll)
    monkeypatch.setattr(spectra, "_openblas", spectra._openblas.__wrapped__)  # a lookup as in a fresh process
    assert spectra._bundled_dstevd.__wrapped__() is None


@pytest.mark.parametrize("M", [
    matrices.toeplitz_matrix(symbols.banded_truncation(symbols.exponential_symbol(), 2), 20),
    FiniteMatrix(data=np.diag([2.0, 2.0, 2.0]) + np.diag([1j, -0.5j], -1)
                 + np.diag([-1j, 0.5j], 1)),
], ids=["toeplitz_r_max_2", "complex_tridiagonal"])
def test_hermitian_eigen_dense_path(monkeypatch, M):
    def refuse(data):
        raise AssertionError("dstevd called for a matrix it cannot solve")
    monkeypatch.setattr(spectra, "_tridiagonal_eigh", refuse)
    eig = hermitian_eigen(M)
    vals, vecs = _dense_reference(M.data)
    assert np.array_equal(eig.values, vals) and np.array_equal(eig.vectors, vecs)
    assert eig.vectors.flags.f_contiguous
    recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
    assert np.max(np.abs(recon - M.data)) < 1e-12


def test_hermitian_eigen_reconstruction():
    M = _random_hermitian(8, 1)
    eig = hermitian_eigen(M)
    recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
    assert np.linalg.norm(M.data - recon) < 1e-9
    gram = eig.vectors.conj().T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(8))) < 1e-9
    assert np.all(np.diff(eig.values) >= 0)


def test_residual_exact_and_shifted():
    M = _random_hermitian(6, 2)
    eig = hermitian_eigen(M)
    u = eig.vectors[:, 3]
    assert residual(M, float(eig.values[3]), u) < 1e-9
    t = 0.37
    assert abs(residual(M, float(eig.values[3]) + t, u) - t) < 1e-12


@pytest.mark.parametrize("family", ["ssh", "compact_symmetrized"])
def test_residual_of_a_chain_reads_its_diagonals(monkeypatch, family):
    rng = np.random.default_rng(4)
    u = rng.normal(size=161) + 1j * rng.normal(size=161)
    u /= np.linalg.norm(u)
    M = TRIDIAGONAL[family](161)

    def refuse(*args):
        raise AssertionError("dense array written for a residual of a chain")
    U = np.linalg.qr(rng.normal(size=(161, 5)) + 1j * rng.normal(size=(161, 5)))[0]
    lam = np.linspace(-1.0, 3.0, 5)
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "_tridiagonal", refuse)
        banded = residual(M, 1.3, u)
        columns = residual(M, lam, U)
    assert abs(banded - np.linalg.norm(M.data @ u - 1.3 * u)) <= 1e-14
    assert columns.shape == (5,)
    assert np.max(np.abs(columns - np.linalg.norm(M.data @ U - U * lam, axis=0))) <= 1e-14


@pytest.mark.parametrize("family", ["dense", "chain"])
def test_residual_of_a_matrix_of_columns_matches_its_columns(family):
    M = _random_hermitian(40, 6) if family == "dense" else matrices.ssh_matrix(1.0, 2.0, 10)
    n = M.n
    rng = np.random.default_rng(6)
    U = np.linalg.qr(rng.normal(size=(n, 7)) + 1j * rng.normal(size=(n, 7)))[0]
    lam = rng.normal(size=7)
    columns = residual(M, lam, U)
    for i in range(7):
        assert abs(columns[i] - residual(M, lam[i], U[:, i])) <= 1e-14
    shared = residual(M, 0.5, U)  # a scalar lam serves every column
    for i in range(7):
        assert abs(shared[i] - residual(M, 0.5, U[:, i])) <= 1e-14


def test_residual_banded_truncation_bound():
    sym = symbols.exponential_symbol()
    m = 40
    T = matrices.toeplitz_matrix(sym, m)
    eig = hermitian_eigen(T)
    for r in (3, 6):
        trunc = matrices.toeplitz_matrix(symbols.banded_truncation(sym, r), m)
        bound = symbols.symbol_difference_sup_norm(sym, symbols.banded_truncation(sym, r), 256)
        worst = max(residual(trunc, float(eig.values[i]), eig.vectors[:, i])
                    for i in range(m))
        assert worst <= bound + 1e-12


def test_near_far_split_two_level():
    eig = hermitian_eigen(FiniteMatrix(data=np.diag([0.0, 1.0])))
    u = np.array([np.sqrt(0.9999), 0.01])
    u_par, u_perp = near_far_split(eig, 0.0, 0.2, u)
    assert abs(np.linalg.norm(u_perp) - 0.01) < 1e-12
    assert np.linalg.norm(u_par) > np.sqrt(1 - 0.04)
    assert np.linalg.norm(u_par + u_perp - u) < 1e-12
    assert abs(np.vdot(u_par, u_perp)) < 1e-10


def test_near_far_split_exact_eigenvector():
    M = _random_hermitian(7, 5)
    eig = hermitian_eigen(M)
    _, u_perp = near_far_split(eig, float(eig.values[2]) + 0.01, 0.05, eig.vectors[:, 2])
    assert np.linalg.norm(u_perp) < 1e-12


def test_near_far_lemma_instance():
    rng = np.random.default_rng(8)
    M = _random_hermitian(12, 8)
    eig = hermitian_eigen(M)
    eps = 0.25
    i, j = 4, 11
    c = 1e-3
    u = np.sqrt(1 - c * c) * eig.vectors[:, i] + c * eig.vectors[:, j]
    lam_eps = float(eig.values[i])
    assert abs(eig.values[j] - lam_eps) > eps
    assert residual(M, lam_eps, u) < eps ** 2
    u_par, u_perp = near_far_split(eig, lam_eps, eps, u)
    assert np.linalg.norm(u_perp) < eps
    assert np.linalg.norm(u_par) > np.sqrt(1 - eps ** 2)


def test_near_far_split_norm_identity():
    rng = np.random.default_rng(21)
    M = _random_hermitian(15, 21)
    eig = hermitian_eigen(M)
    for _ in range(20):
        u = rng.normal(size=15) + 1j * rng.normal(size=15)
        u /= np.linalg.norm(u)
        u_par, u_perp = near_far_split(eig, float(rng.normal()), float(rng.uniform(0.1, 2.0)), u)
        total = np.linalg.norm(u_par) ** 2 + np.linalg.norm(u_perp) ** 2
        assert abs(total - 1.0) < 1e-10


def _window_masses(u, k, alpha0, delta):
    """Projection mass with |alpha -+ alpha0| < delta, and the rest."""
    alphas, masses = transform.projection_profile(u, k)
    inside = (np.abs(alphas - alpha0) < delta) | (np.abs(alphas + alpha0) < delta)
    return masses[inside].sum(), masses[~inside].sum()


def test_concentration_exact_eigenvector():
    m, s = 16, 5
    alpha = 2 * np.pi * s / m
    u = transform.quasiperiodic_extension([1.0], alpha, m)
    mass_in, mass_out = _window_masses(u, 1, alpha, 0.1)
    assert abs(mass_in - 1.0) < 1e-12 and mass_out < 1e-12
    mass_in2, _ = _window_masses(u, 1, alpha + 1.5, 0.1)
    assert mass_in2 < 1e-12


def test_concentration_pseudo_eigenpair():
    sym = symbols.nearest_neighbour_symbol(2.0, -1.0)
    m, s = 32, 8
    C = matrices.circulant_matrix(sym, m)
    eig = hermitian_eigen(C)
    alpha0 = 2 * np.pi * s / m
    lam0 = 2.0 - 2.0 * np.cos(alpha0)
    slope = abs(2.0 * np.sin(alpha0))
    eps = 0.05
    delta = 4.0 * eps / slope
    i = int(np.argmin(np.abs(eig.values - lam0)))
    far = [j for j in range(m) if abs(eig.values[j] - lam0) > 1.0]
    j = far[0]
    c = eps ** 2 / abs(eig.values[j] - lam0)
    u = np.sqrt(1 - c * c) * eig.vectors[:, i].astype(complex) + c * eig.vectors[:, j]
    assert residual(C, lam0, u) <= eps ** 2
    mass_in, mass_out = _window_masses(u, 1, alpha0, delta)
    assert mass_out < eps ** 2
    assert mass_in > 1 - eps ** 2


def test_localization_metrics_basis_and_uniform():
    e = np.zeros(9)
    e[4] = 1.0
    assert localization_metrics(e) == (1.0, 1.0)
    m = 25
    u = np.ones(m) / np.sqrt(m)
    sup, ipr = localization_metrics(u)
    assert abs(sup - 1 / np.sqrt(m)) < 1e-14
    assert abs(ipr - 1 / m) < 1e-14


@pytest.mark.parametrize("dtype", [float, complex])
def test_localization_metrics_of_a_matrix_match_its_columns(dtype):
    rng = np.random.default_rng(7)
    A = rng.normal(size=(30, 30)) + (1j * rng.normal(size=(30, 30)) if dtype is complex else 0)
    V, _ = np.linalg.qr(A)
    sups, iprs = localization_metrics(V)
    units = V / np.linalg.norm(V, axis=0)
    for i in range(V.shape[1]):  # the per-vector formulas
        mags = np.abs(units[:, i])
        assert abs(sups[i] - mags.max()) <= 1e-15
        assert abs(iprs[i] - np.sum(mags ** 4)) <= 1e-15
    V[:, 4] *= 1.1
    with pytest.raises(ValueError, match=r"^localization_metrics expects unit vectors, got norm 1\.1\d*$"):
        localization_metrics(V)


def test_localization_ssh_gap_mode_stands_out():
    M = matrices.ssh_matrix(1.0, 2.0, 20)
    eig = hermitian_eigen(M)
    sups = np.array([localization_metrics(eig.vectors[:, i])[0] for i in range(eig.n)])
    gap = [i for i, v in enumerate(eig.values) if 1.0 + 1e-6 < v < 2.0 - 1e-6]
    assert len(gap) == 1
    bulk_median = np.median(np.delete(sups, gap[0]))
    assert sups[gap[0]] > 3.0 * bulk_median


def test_degenerate_clusters():
    values = np.array([0.0, 0.0, 1.0, 2.0, 2.0 + 1e-12])
    clusters = degenerate_clusters(values, scale=2.0)
    assert clusters == [[0, 1], [2], [3, 4]]
    assert degenerate_clusters([], 1.0) == []
    assert degenerate_clusters([1.0, 1.0, np.nan, np.nan], 1.0) == [[0, 1], [2], [3]]
