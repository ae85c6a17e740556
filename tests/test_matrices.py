import re

import numpy as np
import pytest

from bandrec import symbols
from bandrec.matrices import (FiniteMatrix, capacitance_1d, center_index,
                              chain_capacitance, circulant_matrix, compact_perturbation,
                              dislocated_chain, dislocated_spacing_sequence, load_matrix,
                              save_matrix, ssh_matrix, toeplitz_matrix)

MONOMER = symbols.nearest_neighbour_symbol(2.0, -1.0)
DIMER = symbols.dimer_symbol(1.0, 2.0)


def test_finite_matrix_data_is_read_only():
    m = FiniteMatrix(data=np.eye(2))
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0  # immutable after construction


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_finite_matrix_rejects_non_finite_entries(bad):
    data = np.eye(3, dtype=type(bad))
    data[1, 2] = bad
    with pytest.raises(ValueError, match=r"^matrix has 1 non-finite \(NaN or inf\) entries, "
                                         r"the first at row 2, column 3$"):
        FiniteMatrix(data=data)


def test_hermitian_test_is_relative_to_the_largest_entry():
    assert FiniteMatrix(data=np.array([[1e6, 1e-11], [0.0, 1e6]])).hermitian
    assert not FiniteMatrix(data=np.array([[1e6, 1.0], [0.0, 1e6]])).hermitian
    assert not FiniteMatrix(data=np.array([[1e-3, 1e-11], [0.0, 1e-3]])).hermitian  # relative below unit scale too
    assert not FiniteMatrix(data=np.array([[0.0, 1e-13], [0.0, 0.0]])).hermitian
    assert FiniteMatrix(data=np.zeros((2, 2))).hermitian and FiniteMatrix(diagonals=([0.0], [], [])).hermitian


@pytest.mark.parametrize("c", [2.0 ** -50, 2.0 ** 40], ids=["2^-50", "2^40"])
@pytest.mark.parametrize("upper,hermitian", [(1e-13, True), (1e-11, False)])
def test_the_hermitian_verdict_is_the_same_at_any_scale(upper, hermitian, c):
    dense = np.array([[1.0, upper], [0.0, 1.0]])
    assert FiniteMatrix(data=dense).hermitian == FiniteMatrix(data=c * dense).hermitian == hermitian
    assert FiniteMatrix(diagonals=([1.0, 1.0], [upper], [0.0])).hermitian == hermitian
    assert FiniteMatrix(diagonals=([c, c], [c * upper], [0.0])).hermitian == hermitian


@pytest.mark.parametrize("diagonal,i,where", [(0, 2, "row 3, column 3"), (1, 1, "row 2, column 3"),
                                              (2, 0, "row 2, column 1")])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tridiagonal_form_rejects_non_finite_entries(diagonal, i, where, bad):
    diagonals = [np.full(4, 2.0), np.full(3, -1.0), np.full(3, -1.0)]
    diagonals[diagonal][i] = bad
    with pytest.raises(ValueError, match=r"^matrix has 1 non-finite \(NaN or inf\) entries, "
                                         rf"the first at {where}$"):
        FiniteMatrix(diagonals=diagonals)


@pytest.mark.parametrize("diagonals,shapes", [
    ((np.full(6, 2.0), -1.0, -1.0), "(6,), (), ()"),  # a scalar off-diagonal would be broadcast
    ((np.full(6, 2.0), [-1.0], [-1.0]), "(6,), (1,), (1,)"),  # dstevd would read n - 1 entries of one
    ((np.full(4, 2.0), np.full(3, -1.0), np.full(2, -1.0)), "(4,), (3,), (2,)"),
    ((np.full(4, 2.0), np.full(4, -1.0), np.full(4, -1.0)), "(4,), (4,), (4,)"),
    ((np.full((2, 2), 2.0), np.full(1, -1.0), np.full(1, -1.0)), "(2, 2), (1,), (1,)"),
    ((np.empty(0), np.empty(0), np.empty(0)), "(0,), (0,), (0,)"),
])
def test_tridiagonal_form_refuses_diagonals_of_the_wrong_shape(diagonals, shapes):
    with pytest.raises(ValueError, match=rf"^diagonals must be 1-d of lengths n >= 1, n - 1 and n - 1, "
                                         rf"got shapes {re.escape(shapes)}$"):
        FiniteMatrix(diagonals=diagonals, kind="chain")


def test_tridiagonal_form_refuses_complex_diagonals():
    # a float cast would keep only the real parts, here the zero off-diagonals of a different matrix
    with pytest.raises(ValueError, match=r"^diagonals must be real; give a complex matrix as data=$"):
        FiniteMatrix(diagonals=(np.full(4, 2.0), np.full(3, 1j), np.full(3, -1j)), kind="chain")
    hermitian = np.diag(np.full(4, 2.0)) + np.diag(np.full(3, 1j), 1) + np.diag(np.full(3, -1j), -1)
    assert FiniteMatrix(data=hermitian).hermitian and FiniteMatrix(data=hermitian).diagonals is None


def test_one_site_tridiagonal_form_has_empty_off_diagonals():
    M = FiniteMatrix(diagonals=([3.0], [], []), kind="chain")
    assert M.n == 1 and np.array_equal(M.data, [[3.0]])


def test_tridiagonal_form_hermitian_test_is_relative():
    assert FiniteMatrix(diagonals=([1e6, 1e6], [1e-11], [0.0])).hermitian
    assert not FiniteMatrix(diagonals=([1e6, 1e6], [1.0], [0.0])).hermitian
    assert not FiniteMatrix(diagonals=([1e-3, 1e-3], [1e-11], [0.0])).hermitian


def test_dense_matrix_records_its_diagonals_when_real_tridiagonal():
    data = np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, 0.0], 1) + np.diag([-1.0, 0.0], -1)
    diag, upper, lower = FiniteMatrix(data=data).diagonals
    assert np.array_equal(diag, [2, 2, 2]) and np.array_equal(upper, [-1, 0])
    assert np.array_equal(lower, [-1, 0])
    data[0, 2] = data[2, 0] = 0.5
    assert FiniteMatrix(data=data).diagonals is None
    assert FiniteMatrix(data=np.diag([1j, 1.0])).diagonals is None


def test_complex_entries_with_zero_imaginary_parts_are_stored_real():
    data = (np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1) + np.diag([-1.0, -1.0], -1)).astype(complex)
    M = FiniteMatrix(data=data)
    assert not np.iscomplexobj(M.data) and np.array_equal(M.data, data.real)
    assert M.hermitian and M.diagonals is not None
    assert np.array_equal(M.diagonals[1], [-1.0, -1.0])


def test_chain_keeps_read_only_diagonals_and_writes_data_once():
    M = ssh_matrix(1.0, 2.0, 3)
    assert "data" not in vars(M)  # nothing has read the dense array yet
    assert all(not x.flags.writeable for x in M.diagonals)
    assert M.data is M.data and not M.data.flags.writeable
    with pytest.raises(ValueError):
        M.data[0, 0] = 5.0


def test_toeplitz_monomer():
    T = toeplitz_matrix(MONOMER, 3)
    assert np.array_equal(T.data, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert T.hermitian and T.kind == "toeplitz"


def _complex_k2_symbol():
    rng = np.random.default_rng(11)
    coeffs = {}
    for s in range(3):
        block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        coeffs[s] = (block + block.conj().T) / 2 if s == 0 else block
        coeffs[-s] = coeffs[s].conj().T
    return symbols.Symbol(k=2, coeffs=coeffs)


def test_toeplitz_dimer_block_fill():
    T = toeplitz_matrix(DIMER, 2)
    assert T.data.shape == (4, 4)
    assert np.allclose(T.data[0:2, 0:2], DIMER.coeffs[0])
    assert np.allclose(T.data[0:2, 2:4], DIMER.coeffs[-1])
    assert np.allclose(T.data[2:4, 0:2], DIMER.coeffs[1])

    sym, m = _complex_k2_symbol(), 7  # k = 2, r_max = 2
    zero = np.zeros((2, 2))
    T, C = toeplitz_matrix(sym, m).data, circulant_matrix(sym, m).data
    for i in range(m):
        for j in range(m):
            rows, cols = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
            assert np.array_equal(T[rows, cols], sym.coeffs.get(i - j, zero))
            wrapped = (i - j) % m
            offset = wrapped if wrapped <= sym.r_max else wrapped - m
            assert np.array_equal(C[rows, cols], sym.coeffs.get(offset, zero))


def test_toeplitz_tridiagonal_eigenvalues():
    vals = np.linalg.eigvalsh(toeplitz_matrix(MONOMER, 4).data)
    expect = np.sort(2.0 - 2.0 * np.cos(np.arange(1, 5) * np.pi / 5))
    assert np.max(np.abs(vals - expect)) < 1e-12


def test_circulant_monomer_m4():
    C = circulant_matrix(MONOMER, 4)
    assert np.array_equal(C.data, [[2, -1, 0, -1], [-1, 2, -1, 0],
                                   [0, -1, 2, -1], [-1, 0, -1, 2]])
    vals = np.sort(np.linalg.eigvalsh(C.data))
    assert np.allclose(vals, [0, 2, 2, 4], atol=1e-12)


def test_circulant_eigenvector_direct():
    C = circulant_matrix(MONOMER, 4)
    omega = 0.5 * np.array([1, 1j, -1, -1j])
    assert np.linalg.norm(C.data @ omega - 2.0 * omega) < 1e-14


def test_circulant_takes_the_smallest_size_without_wraparound():
    circulant_matrix(symbols.banded_truncation(symbols.exponential_symbol(), 5), 11)  # m = 10 wraps around


def test_toeplitz_circulant_interior_agreement():
    for sym, m in ((MONOMER, 9), (DIMER, 8)):
        T = toeplitz_matrix(sym, m).data
        C = circulant_matrix(sym, m).data
        r, k = sym.r_max, sym.k
        inner = slice(r * k, (m - r) * k)
        assert np.array_equal(T[inner, inner], C[inner, inner])
        assert np.count_nonzero(T != C) > 0


def test_capacitance_1d():
    M = capacitance_1d(2.0, -1.0, 3)
    assert np.array_equal(M.data, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert np.max(np.abs(M.data.sum(axis=1))) == 0.0
    vals, vecs = np.linalg.eigh(M.data)
    assert abs(vals[0]) < 1e-14
    assert np.allclose(np.abs(vecs[:, 0]), 1 / np.sqrt(3))


def test_chain_capacitance_uniform_matches_capacitance_1d():
    A = chain_capacitance([1.0, 1.0])
    B = capacitance_1d(2.0, -1.0, 3)
    assert np.allclose(A.data, B.data)


def test_chain_capacitance_spacings():
    M = chain_capacitance([1.0, 2.0])
    assert np.allclose(M.data, [[1, -1, 0], [-1, 1.5, -0.5], [0, -0.5, 0.5]])
    spacings = np.random.default_rng(24).uniform(0.3, 3.0, size=25)
    ref = np.zeros((26, 26))
    for i, inv in enumerate(1.0 / spacings):  # site loop as the reference
        ref[i, i + 1] = ref[i + 1, i] = -inv
        ref[i, i] += inv
        ref[i + 1, i + 1] += inv
    assert np.array_equal(chain_capacitance(spacings).data, ref)


def test_chain_capacitance_zero_row_sums():
    rng = np.random.default_rng(0)
    M = chain_capacitance(rng.uniform(0.3, 3.0, size=30))
    assert np.max(np.abs(M.data.sum(axis=1))) < 1e-12


def test_alternating_chain_shows_dimer_gap():
    spacings = [1.0 if i % 2 == 1 else 2.0 for i in range(1, 40)]
    vals = np.linalg.eigvalsh(chain_capacitance(spacings).data)
    bands = symbols.band_functions(DIMER, 256).band_ranges()
    lo, hi = bands[0][1], bands[1][0]
    assert lo < hi
    assert not np.any((vals > lo + 1e-3) & (vals < hi - 1e-3))


def test_ssh_matrix_explicit_5x5():
    M = ssh_matrix(1.0, 2.0, 1)  # spacings 1, 2, 2, 1
    expect = [[1, -1, 0, 0, 0],
              [-1, 1.5, -0.5, 0, 0],
              [0, -0.5, 1, -0.5, 0],
              [0, 0, -0.5, 1.5, -1],
              [0, 0, 0, -1, 1]]
    assert np.array_equal(M.data, expect)
    assert M.kind == "ssh" and M.hermitian


def test_ssh_matrix_persymmetric():
    rng = np.random.default_rng(4)
    for m in (1, 3, 7):
        s1, s2 = rng.uniform(0.2, 5.0, size=2)
        M = ssh_matrix(s1, s2, m).data
        assert np.array_equal(M, M.T)
        assert np.array_equal(M, M[::-1, ::-1].T)


@pytest.mark.parametrize("spacings", [[1.0, np.inf, 1.0], [1.0, -np.inf], [np.nan, 2.0]])
def test_chain_capacitance_refuses_a_spacing_that_is_not_finite(spacings):
    with pytest.raises(ValueError, match="^spacings must be finite$"):
        chain_capacitance(spacings)


def _alternating_spacings(s1, s2, count):
    return [s1 if i % 2 == 1 else s2 for i in range(1, count + 1)]


def test_ssh_matrix_matches_spacing_construction():
    rng = np.random.default_rng(21)
    cases = [(1.0, 2.0, 6)] + [(*rng.uniform(0.2, 5.0, size=2), int(rng.integers(1, 40)))
                               for _ in range(8)]
    for s1, s2, m in cases:
        M = ssh_matrix(s1, s2, m)
        half = _alternating_spacings(s1, s2, 2 * m)  # gaps from the edge, mirrored at the centre
        assert np.array_equal(M.data, chain_capacitance(half + half[::-1]).data)


def test_ssh_dimerized_has_one_gap_eigenvalue():
    M = ssh_matrix(1.0, 2.0, 20)
    vals = np.linalg.eigvalsh(M.data)
    in_gap = np.sum((vals > 1.0 + 1e-6) & (vals < 2.0 - 1e-6))
    assert in_gap == 1


def test_dislocated_chain_reduces_at_d_equals_s1():
    rng = np.random.default_rng(22)
    cases = [(1.0, 2.0, 3)] + [(*rng.uniform(0.2, 5.0, size=2), int(rng.integers(1, 40)))
                               for _ in range(8)]
    for s1, s2, dps in cases:
        base = chain_capacitance(_alternating_spacings(s1, s2, 4 * dps - 1))
        M = dislocated_chain(s1, s2, s1, dps)
        assert np.array_equal(M.data, base.data)
        assert M.kind == "dislocated"


def test_dislocated_chain_counts():
    dps = 10
    M = dislocated_chain(1.0, 2.0, 4.0, dps)
    assert M.data.shape[0] == 2 * (2 * dps)
    seq = dislocated_spacing_sequence(1.0, 2.0, 4.0, dps)
    assert len(seq) == 4 * dps - 1
    assert seq[2 * dps] == 4.0


def test_dislocated_chain_gap_mode():
    M = dislocated_chain(1.0, 2.0, 4.0, 10)
    vals, vecs = np.linalg.eigh(M.data)
    gap = [(i, v) for i, v in enumerate(vals) if 1.0 + 1e-6 < v < 2.0 - 1e-6]
    assert len(gap) == 1
    sup = np.max(np.abs(vecs[:, gap[0][0]]))
    assert sup > 0.2


def test_compact_perturbation_identity():
    C = chain_capacitance([1.0, 2.0, 1.0])
    pair = compact_perturbation(C, 2, 0.0)
    assert np.allclose(pair.bc.data, C.data)
    assert np.allclose(pair.symmetrized.data, C.data)


def test_compact_perturbation_similar_spectra():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(10, 10))
    C = FiniteMatrix(data=(A + A.T) / 2)
    pair = compact_perturbation(C, 5, 0.5)
    s_bc = np.sort(np.linalg.eigvals(pair.bc.data).real)
    s_sym = np.sort(np.linalg.eigvalsh(pair.symmetrized.data))
    assert np.max(np.abs(s_bc - s_sym)) < 1e-10
    assert not pair.bc.hermitian and pair.symmetrized.hermitian


@pytest.mark.parametrize("base", ["chain", "tridiagonal_to_tolerance", "real", "complex",
                                  "hermitian_to_tolerance"])
def test_compact_perturbation_touches_only_the_defect_row(base):
    rng = np.random.default_rng(23)
    n, index, delta = 30, 11, 0.7
    if base == "chain":
        C = chain_capacitance(rng.uniform(0.5, 2.0, size=n - 1))
    elif base == "tridiagonal_to_tolerance":
        off = rng.uniform(-2.0, -0.5, size=n - 1)
        C = FiniteMatrix(data=np.diag(rng.uniform(1.0, 3.0, size=n)) + np.diag(off, 1)
                         + np.diag(off * (1.0 + 1e-14), -1))
    else:
        A = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if base != "real" else 0.0)
        H = (A + A.conj().T) / 2
        if base == "hermitian_to_tolerance":
            H = H + 1e-14 * rng.normal(size=(n, n))
        C = FiniteMatrix(data=H)
    pair = compact_perturbation(C, index, delta)
    assert (pair.symmetrized.diagonals is not None) == base.startswith(("chain", "tridiagonal"))
    sym = pair.symmetrized.data
    assert np.array_equal(sym, sym.conj().T)
    others = np.arange(n) != index - 1
    assert np.array_equal(pair.bc.data[others], C.data[others])
    assert np.array_equal(pair.bc.data[index - 1], (1.0 + delta) * C.data[index - 1])


def test_compact_perturbation_eigenvector_map():
    C = chain_capacitance([1.0 if i % 2 == 1 else 2.0 for i in range(1, 20)])
    pair = compact_perturbation(C, 10, 0.4)
    vals, vecs = np.linalg.eigh(pair.symmetrized.data)
    W = pair.bc_eigenvectors(vecs)
    assert np.max(np.linalg.norm(pair.bc.data @ W - W * vals, axis=0)) < 1e-10
    assert np.max(np.abs(np.linalg.norm(W, axis=0) - 1.0)) < 1e-14


def test_compact_perturbation_gap_behaviour():
    n = 80
    C = chain_capacitance([1.0 if i % 2 == 1 else 2.0 for i in range(1, n)])
    idx = center_index(n)

    def gap_eigs(delta):
        pair = compact_perturbation(C, idx, delta)
        vals = np.linalg.eigvalsh(pair.symmetrized.data)
        return vals[(vals > 1.0 + 1e-6) & (vals < 2.0 - 1e-6)]

    assert gap_eigs(0.0).size == 0
    positive = gap_eigs(0.5)
    assert positive.size >= 1 and positive[0] < 1.1  # pushed up from the lower band
    # any negative defect binds one state just below the upper band edge
    negative = gap_eigs(-0.3)
    assert negative.size == 1 and 1.9 < negative[0] < 2.0


@pytest.mark.parametrize("base", [
    FiniteMatrix(data=np.array([[2.0, -1.0], [-0.5, 2.0]])),
    FiniteMatrix(diagonals=([2.0, 2.0], [-1.0], [-0.5])),
], ids=["dense", "diagonals"])
def test_compact_perturbation_refuses_a_base_that_is_not_hermitian(base):
    with pytest.raises(ValueError, match=r"^compact_perturbation needs a Hermitian base matrix, one with "
                                         r"max\|A - A\^H\| <= 1e-12 \* max\|A\|$"):
        compact_perturbation(base, 1, 0.5)


def test_center_index():
    assert center_index(80) == 40
    assert center_index(81) == 41


def test_matrix_csv_round_trip(tmp_path):
    M = ssh_matrix(1.0, 2.0, 4)
    path = tmp_path / "mat.csv"
    save_matrix(M, path)
    back = load_matrix(path)
    assert np.array_equal(back.data, M.data)
    assert back.hermitian and back.kind == "external"


def test_matrix_csv_complex_round_trip(tmp_path):
    data = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]])
    M = FiniteMatrix(data=data)
    path = tmp_path / "cmat.csv"
    save_matrix(M, path)
    assert path.read_text(encoding="utf-8") == "1+0j,2-1j\n2+1j,-3+0j\n"
    back = load_matrix(path)
    assert np.array_equal(back.data, data)
    assert back.hermitian


def test_load_matrix_small_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2,-1\n-1,2\n")
    M = load_matrix(path)
    assert M.hermitian
    assert np.array_equal(M.data, [[2, -1], [-1, 2]])


def test_load_matrix_hermitian_flag_is_relative(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1000000.0,1e-11\n0,1000000.0\n")
    assert load_matrix(path).hermitian
    path.write_text("1000000.0,1.0\n0,1000000.0\n")
    assert not load_matrix(path).hermitian


def test_load_matrix_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"re": [[0, 1], [1, 0]], "im": [[0, -1], [1, 0]]}')
    M = load_matrix(path)
    assert M.hermitian
    assert M.data[0, 1] == 1 - 1j

