import json

import numpy as np
import pytest

from bandrec import symbols
from bandrec.symbols import (BAND_MEMO_SIZE, Symbol, band_functions, banded_truncation, cell_chain_symbol,
                             check_assumptions, dimer_symbol, evaluate_symbol, evenness,
                             exponential_symbol, load_symbol, nearest_neighbour_symbol,
                             save_symbol, symbol_difference_sup_norm, symbol_from_dict,
                             symbol_sup_norm, symbol_to_dict)
from bandrec.transform import brillouin_sample, polarize

MONOMER = nearest_neighbour_symbol(2.0, -1.0)

# the two-band blocks written out explicitly; bands are 2 +- |1 + e^{i a}|
SPEC_DIMER = Symbol(k=2, coeffs={
    0: [[2.0, -1.0], [-1.0, 2.0]],
    1: [[0.0, 0.0], [-1.0, 0.0]],
    -1: [[0.0, -1.0], [0.0, 0.0]],
})


def test_evaluate_monomer():
    assert abs(evaluate_symbol(MONOMER, 0.0)[0, 0]) < 1e-14
    assert abs(evaluate_symbol(MONOMER, np.pi)[0, 0] - 4.0) < 1e-14


def test_evaluate_exponential_at_zero():
    sym = exponential_symbol()
    total = evaluate_symbol(sym, 0.0)[0, 0]
    # geometric series sums to -3, truncation leaves a 2^-39 tail
    assert abs(total - (-3.0)) < 1e-10


def _evaluate_offset_by_offset(sym, alpha):
    """The per-offset sum evaluate_symbol must reproduce bit for bit on real-coefficient symbols."""
    out = np.zeros((sym.k, sym.k), dtype=complex)
    for s, block in sym.coeffs.items():
        out += block * np.exp(1j * alpha * s)
    return out


def _complex_k2(tail_bound=None):
    a = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, -0.5]])
    b = np.array([[0.2 - 0.1j, 0.7j], [-0.25, 0.1 + 0.05j]])
    return Symbol(k=2, coeffs={0: a, 1: b, -1: b.conj().T}, tail_bound=tail_bound)


@pytest.mark.parametrize("sym", [dimer_symbol(1.0, 2.0), cell_chain_symbol([1.0, 2.0, 0.5]),
                                 exponential_symbol()], ids=["dimer", "trimer", "exponential"])
def test_evaluate_symbol_equals_the_offset_by_offset_sum_bit_for_bit(sym):
    for alpha in brillouin_sample(1024):
        assert np.array_equal(evaluate_symbol(sym, alpha), _evaluate_offset_by_offset(sym, alpha))


@pytest.mark.parametrize("sym", [MONOMER, SPEC_DIMER, cell_chain_symbol([1.0, 2.0, 0.5]), exponential_symbol(),
                                 _complex_k2()], ids=["monomer", "dimer", "trimer", "exponential", "complex"])
def test_band_functions_equals_one_eigh_per_grid_point_bit_for_bit(sym):
    bs = band_functions(sym, 64)
    for j, alpha in enumerate(bs.alphas):
        vals, vecs = np.linalg.eigh(evaluate_symbol(sym, alpha))
        assert np.array_equal(bs.values[:, j], vals)
        assert np.array_equal(bs.vectors[j], np.array([polarize(vecs[:, p]) for p in range(sym.k)]).T)


def test_evaluate_is_hermitian():
    rng = np.random.default_rng(2)
    for sym in (MONOMER, SPEC_DIMER, exponential_symbol(), cell_chain_symbol([1.0, 2.0, 0.5])):
        for alpha in rng.uniform(-np.pi, np.pi, size=20):
            f = evaluate_symbol(sym, alpha)
            assert np.max(np.abs(f - f.conj().T)) < 1e-12


def test_symbol_rejects_non_hermitian():
    with pytest.raises(ValueError):
        Symbol(k=1, coeffs={0: [[1.0]], 1: [[1.0]], -1: [[2.0]]})


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_symbol_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="offset -1 has non-finite"):
        Symbol(k=1, coeffs={0: [[2.0]], 1: [[-1.0]], -1: [[bad]]})


def test_symbol_hermitian_test_is_relative_to_the_largest_coefficient():
    Symbol(k=1, coeffs={0: [[1e6]], 1: [[1.0 + 1e-11]], -1: [[1.0]]})
    with pytest.raises(ValueError, match=r"relative defect 1e-06 \(tolerance 1e-12\)"):
        Symbol(k=1, coeffs={0: [[1e6]], 1: [[2.0]], -1: [[1.0]]})
    with pytest.raises(ValueError, match="relative defect"):  # below unit scale it stays absolute
        Symbol(k=1, coeffs={0: [[1e-3]], 1: [[1e-11]], -1: [[0.0]]})


def test_symbol_rejects_asymmetric_support():
    with pytest.raises(ValueError):
        Symbol(k=1, coeffs={0: [[1.0]], 1: [[1.0]]})


def test_symbol_rejects_wrong_block_shape():
    with pytest.raises(ValueError):
        Symbol(k=2, coeffs={0: [[1.0]]})


def test_symbol_applies_the_integer_rule_to_k_and_offsets():
    with pytest.raises(ValueError, match="offset s must be an integer, got 1.5"):
        Symbol(k=1, coeffs={0: [[2.0]], 1.5: [[-1.0]], -1.5: [[-1.0]]})
    with pytest.raises(ValueError, match="k must be an integer, got True"):
        Symbol(k=True, coeffs={0: [[2.0]]})
    sym = Symbol(k=2.0, coeffs={0: np.eye(2)})
    assert sym.k == 2 and type(sym.k) is int


def test_band_functions_monomer_m16():
    bs = band_functions(MONOMER, 16)
    by_alpha = dict(zip(np.round(bs.alphas, 12), bs.values[0]))
    assert abs(by_alpha[0.0] - 0.0) < 1e-12
    assert abs(by_alpha[round(np.pi / 2, 12)] - 2.0) < 1e-12
    assert abs(by_alpha[round(-np.pi, 12)] - 4.0) < 1e-12
    assert abs(by_alpha[round(-np.pi / 2, 12)] - 2.0) < 1e-12


def test_band_functions_dimer_closed_form():
    bs = band_functions(SPEC_DIMER, 64)
    h = np.abs(1.0 + np.exp(1j * bs.alphas))
    assert np.max(np.abs(bs.values[0] - (2.0 - h))) < 1e-10
    assert np.max(np.abs(bs.values[1] - (2.0 + h))) < 1e-10
    # equal couplings: the two bands touch at the zone edge
    assert abs(bs.values[0].max() - bs.values[1].min()) < 1e-12


def test_band_functions_dimerized_gap_is_open():
    bs = band_functions(dimer_symbol(1.0, 2.0), 64)
    assert bs.values[0].max() < bs.values[1].min()
    ranges = bs.band_ranges()
    assert abs(ranges[0][1] - 1.0) < 1e-12 and abs(ranges[1][0] - 2.0) < 1e-12


def test_band_functions_symmetry():
    for sym in (MONOMER, SPEC_DIMER, dimer_symbol(1.0, 2.0)):
        bs = band_functions(sym, 32)
        for j, a in enumerate(bs.alphas):
            jj = int(np.argmin(np.abs(bs.alphas + a)))
            if abs(bs.alphas[jj] + a) < 1e-12:
                assert np.max(np.abs(bs.values[:, j] - bs.values[:, jj])) < 1e-10


def test_band_functions_eigenvectors_unit_and_polarized():
    bs = band_functions(dimer_symbol(1.0, 2.0), 16)
    for j in range(bs.m):
        for p in range(bs.k):
            u = bs.vectors[j, :, p]
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12
            pivot = u[0] if abs(u[0]) >= 1e-8 else u[np.argmax(np.abs(u))]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-10


@pytest.mark.parametrize("m", [16, 18, 32, 64, 512])
@pytest.mark.parametrize("spacings", [[1.0], [1.0, 2.0], [1.0, 2.0, 0.5]])
def test_values_at_is_the_periodic_interpolant_of_the_grid(m, spacings):
    bs = band_functions(cell_chain_symbol(spacings), m)
    rng = np.random.default_rng(m)
    alphas = np.concatenate([rng.uniform(-np.pi, np.pi, 200), bs.alphas, [-np.pi, 0.0, np.pi]])
    expect = [np.interp(np.abs(alphas), bs.alphas, band, period=2.0 * np.pi) for band in bs.values]
    assert np.array_equal(bs.values_at(alphas), expect)


def test_band_derivative_matches_analytic():
    bs = band_functions(MONOMER, 128)
    inner = slice(2, -2)
    assert np.max(np.abs(bs.derivatives[0, inner] - 2.0 * np.sin(bs.alphas[inner]))) < 2e-3


def _count_evaluations(monkeypatch) -> list:
    calls, original = [], symbols.evaluate_symbol
    monkeypatch.setattr(symbols, "evaluate_symbol", lambda sym, alpha: calls.append(alpha) or original(sym, alpha))
    return calls


def test_band_functions_rejects_tiny_grid():
    for m in (1, 8, 15, 17):
        for _ in range(3):  # a refused input is not stored, so it is refused again
            with pytest.raises(ValueError, match=f"^grid must be an even number of at least 16, got {m}$"):
                band_functions(MONOMER, m)
    assert not symbols._band_memo


def test_every_caller_of_band_functions_samples_alpha_pi():
    # grid 17 misses alpha = pi: the dimer's sampled gap read (0.98325, 2.01675), not (1, 2)
    with pytest.raises(ValueError, match="^grid must be an even number of at least 16, got 17$"):
        band_functions(dimer_symbol(1.0, 2.0), 17)
    sym = exponential_symbol()
    with pytest.raises(ValueError, match="^grid must be an even number of at least 16, got 17$"):
        symbol_difference_sup_norm(sym, banded_truncation(sym, 3), samples=17)
    assert symbol_sup_norm(MONOMER, 16) == 4.0  # lambda(pi) = 2 + 2, a grid point


def test_an_equal_symbol_built_again_returns_the_stored_bands(monkeypatch):
    first = band_functions(dimer_symbol(1.25, 2.5), 64)
    calls = _count_evaluations(monkeypatch)
    assert band_functions(dimer_symbol(1.25, 2.5), 64) is first
    # tail_bound is not read, so it is not in the key
    again = Symbol(k=2, coeffs=dimer_symbol(1.25, 2.5).coeffs, tail_bound=0.5)
    assert band_functions(again, 64) is first
    assert calls == []


def test_a_one_ulp_change_or_another_grid_misses(monkeypatch):
    first = band_functions(MONOMER, 64)
    calls = _count_evaluations(monkeypatch)
    nudged = Symbol(k=1, coeffs={0: [[np.nextafter(2.0, 3.0)]], 1: [[-1.0]], -1: [[-1.0]]})
    assert band_functions(nudged, 64) is not first
    assert len(calls) == 64
    assert band_functions(MONOMER, 128) is not first
    assert len(calls) == 64 + 128
    assert len(symbols._band_memo) == 3


def test_a_ninth_key_evicts_the_least_recently_used():
    syms = [nearest_neighbour_symbol(2.0 + i, -1.0) for i in range(BAND_MEMO_SIZE + 1)]
    stored = [band_functions(sym, 16) for sym in syms[:BAND_MEMO_SIZE]]
    assert band_functions(syms[0], 16) is stored[0]  # now syms[1] is the least recently used
    band_functions(syms[BAND_MEMO_SIZE], 16)
    assert len(symbols._band_memo) == BAND_MEMO_SIZE
    assert band_functions(syms[0], 16) is stored[0]
    assert band_functions(syms[2], 16) is stored[2]
    assert band_functions(syms[1], 16) is not stored[1]


def test_a_symbol_copies_the_blocks_it_freezes():
    b, a = 2 * np.eye(1, dtype=complex), -0.75 * np.eye(1, dtype=complex)
    s = Symbol(k=1, coeffs={0: b, 1: a, -1: a})
    before = band_functions(s, 16).values.copy()
    assert s.coeffs[0] is not b and b.flags.writeable and a.flags.writeable
    b[0, 0] = 5.0
    a[0, 0] = 1.0
    assert [s.coeffs[r][0, 0] for r in (-1, 0, 1)] == [-0.75, 2.0, -0.75]
    assert np.array_equal(s.blocks, [[[-0.75]], [[2.0]], [[-0.75]]])
    assert np.array_equal(band_functions(s, 16).values, before)


def test_band_structure_arrays_are_read_only():
    bs = band_functions(cell_chain_symbol([1.0, 2.0, 0.75]), 32)
    for array in (bs.alphas, bs.values, bs.vectors, bs.derivatives):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_check_assumptions_monomer_passes():
    report = check_assumptions(band_functions(MONOMER, 64))
    assert not report["failures"] and report["bands_disjoint"] and report["no_van_der_hove"]


def test_check_assumptions_flat_band_fails():
    flat = Symbol(k=1, coeffs={0: [[2.0]]})
    report = check_assumptions(band_functions(flat, 64))
    assert not report["no_van_der_hove"]
    assert report["failures"]


def test_check_assumptions_identical_bands_fail():
    sym = Symbol(k=2, coeffs={
        0: np.diag([2.0, 2.0]), 1: np.diag([-1.0, -1.0]), -1: np.diag([-1.0, -1.0])})
    report = check_assumptions(band_functions(sym, 64))
    assert not report["bands_disjoint"]


def test_check_assumptions_notes_an_evaluation_defect_that_band_functions_accepts():
    # a_{-s} = a_s carries 0.5e-12 i: Symbol accepts each offset, and the sum departs by 6e-12 at alpha = 0
    skew = 0.5e-12j
    sym = Symbol(k=1, coeffs={0: [[2.0]], 1: [[-1.0 + skew]], -1: [[-1.0 + skew]],
                              **{s: [[skew]] for s in (2, -2, 3, -3)}})
    bs = band_functions(sym, 64)
    assert symbols.HERMITIAN_TOL < bs.hermitian_defect < 1e-10
    report = check_assumptions(bs)
    assert not report["hermitian"]
    assert report["failures"] == [f"hermitian defect {bs.hermitian_defect:g}"]


# lambda(alpha) = 2 - 2 sin(alpha): Hermitian, but not even in alpha
ODD = Symbol(k=1, coeffs={0: [[2.0]], 1: [[1j]], -1: [[-1j]]})


@pytest.mark.parametrize("m", [16, 512])
def test_evenness(m):
    for sym in (MONOMER, dimer_symbol(1.0, 2.0), exponential_symbol(), cell_chain_symbol([1.0, 2.0, 0.5])):
        assert evenness(band_functions(sym, m)) == (0.0, True)
    defect, even = evenness(band_functions(ODD, m))
    assert defect > 3.9 and not even  # max_j |4 sin alpha_j|
    report = check_assumptions(band_functions(ODD, m))
    assert not report["even"] and report["failures"] and "not even" in "; ".join(report["failures"])


def test_hermitian_tests_are_relative_to_the_symbol_scale():
    sym = Symbol(k=1, coeffs={0: [[1e6]], 1: [[1.0000005]], -1: [[1.0]]})  # relative defect 5e-13
    report = check_assumptions(band_functions(sym, 16))
    assert report["hermitian"] and report["even"]


def test_check_assumptions_of_one_band_is_plain_json():
    report = check_assumptions(band_functions(MONOMER, 16))
    assert report["min_band_separation"] is None and report["bands_disjoint"]
    assert set(report) == {"bands_disjoint", "no_van_der_hove", "hermitian", "even", "min_band_separation",
                           "min_interior_slope", "evenness_defect", "failures"}
    assert json.loads(json.dumps(report, allow_nan=False)) == report


def test_banded_truncation():
    sym = exponential_symbol()
    assert banded_truncation(sym, 40).support == sym.support
    assert banded_truncation(sym, 100).support == sym.support
    t3 = banded_truncation(sym, 3)
    assert t3.support == [-3, -2, -1, 0, 1, 2, 3]
    assert abs(symbol_difference_sup_norm(sym, t3, samples=256) - 2.0 ** -2) < 1e-8
    t0 = banded_truncation(sym, 0)
    assert t0.support == [0]


def test_truncation_triangle_bound():
    sym = banded_truncation(exponential_symbol(), 20)
    for r in (1, 4, 7):
        trunc = banded_truncation(sym, r)
        measured = symbol_difference_sup_norm(sym, trunc, samples=256)
        bound = sum(float(np.sum(np.abs(sym.coeffs[s]))) for s in sym.support if abs(s) > r)
        assert measured <= bound + 1e-12


def test_symbol_sup_norm():
    assert abs(symbol_sup_norm(MONOMER, 4096) - 4.0) < 1e-12
    zero = Symbol(k=1, coeffs={0: [[0.0]]})
    assert symbol_sup_norm(zero, 64) == 0.0


@pytest.mark.parametrize("sym", [MONOMER, dimer_symbol(1.0, 2.0), exponential_symbol()])
def test_symbol_sup_norm_is_the_largest_sampled_band_value(sym):
    assert symbol_sup_norm(sym, 512) == float(np.max(np.abs(band_functions(sym, 512).values)))


def test_symbol_sup_norm_exponential_vs_dense_oracle():
    sym = exponential_symbol()
    dense = 0.0
    for a in np.linspace(-np.pi, np.pi, 100_000, endpoint=False)[::20]:
        dense = max(dense, abs(evaluate_symbol(sym, a)[0, 0]))
    # the maximum sits at alpha = 0, on both grids
    assert abs(symbol_sup_norm(sym, 4096) - 3.0) < 1e-10
    assert abs(symbol_sup_norm(sym, 4096) - dense) < 1e-6


def test_symbol_sup_norm_rejects_few_samples():
    for samples in (15, 17):
        with pytest.raises(ValueError, match=f"^grid must be an even number of at least 16, got {samples}$"):
            symbol_sup_norm(MONOMER, samples)


def test_cell_chain_symbol_matches_dimer():
    a = dimer_symbol(1.0, 2.0)
    b = cell_chain_symbol([1.0, 2.0])
    assert a.support == b.support
    for s in a.support:
        assert np.allclose(a.coeffs[s], b.coeffs[s])
    mono = cell_chain_symbol([1.0])
    assert np.allclose(mono.coeffs[0], [[2.0]])
    assert np.allclose(mono.coeffs[1], [[-1.0]])


@pytest.mark.parametrize("spacing,message", [(0.0, "spacings must be positive"), (-1.0, "spacings must be positive"),
                                             (float("inf"), "spacings must be finite"),
                                             (float("nan"), "spacings must be finite")])
def test_cell_chain_symbol_refuses_a_spacing_that_is_not_finite_and_positive(spacing, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dimer_symbol(1.0, spacing)


def test_serialization_round_trip(tmp_path):
    for sym in (SPEC_DIMER, banded_truncation(exponential_symbol(), 5)):
        path = tmp_path / "sym.json"
        save_symbol(sym, path)
        back = load_symbol(path)
        assert back.k == sym.k and back.support == sym.support
        for s in sym.support:
            assert np.allclose(back.coeffs[s], sym.coeffs[s])


def test_a_symbol_file_keeps_its_tail_bound(tmp_path):
    sym = exponential_symbol()
    save_symbol(sym, tmp_path / "exp.json")
    assert load_symbol(tmp_path / "exp.json").tail_bound == sym.tail_bound == 2.0 ** -39
    save_symbol(MONOMER, tmp_path / "monomer.json")  # no bound, no key
    assert "tail_bound" not in json.loads((tmp_path / "monomer.json").read_text())
    assert load_symbol(tmp_path / "monomer.json").tail_bound is None


@pytest.mark.parametrize("bound", [-1e-3, float("inf"), float("nan")])
def test_symbol_refuses_a_tail_bound_that_is_not_finite_and_nonnegative(bound):
    with pytest.raises(ValueError, match="tail bound must be finite and nonnegative"):
        Symbol(k=1, coeffs={0: [[1.0]]}, tail_bound=bound)


@pytest.mark.parametrize("bound", [True, "0.5"])
def test_symbol_refuses_a_tail_bound_that_is_not_a_number(bound):
    with pytest.raises(ValueError, match="tail_bound must be a number"):
        Symbol(k=1, coeffs={0: [[1.0]]}, tail_bound=bound)


@pytest.mark.parametrize("sym", [dimer_symbol(1.0, 2.0), _complex_k2(0.25)], ids=["dimer", "complex"])
def test_a_symbol_equals_its_round_trip_through_a_dict(sym):
    assert symbol_from_dict(json.loads(json.dumps(symbol_to_dict(sym)))) == sym
    assert sym != Symbol(k=sym.k, coeffs=sym.coeffs, tail_bound=0.5)
    assert sym != banded_truncation(sym, 0)


def test_a_symbol_leaves_comparison_with_another_type_to_it():
    assert dimer_symbol(1.0, 2.0).__eq__(3) is NotImplemented
    assert dimer_symbol(1.0, 2.0) != 3


def test_symbol_dict_format():
    d = symbol_to_dict(MONOMER)
    assert d["k"] == 1
    assert {e["s"] for e in d["coeffs"]} == {-1, 0, 1}
    assert symbol_from_dict(json.loads(json.dumps(d))).support == [-1, 0, 1]


def test_symbol_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        symbol_from_dict({"coeffs": "nope"})
    with pytest.raises(ValueError, match=r"'im' has shape \(1, 1\) but 're' has shape \(2, 2\)"):
        symbol_from_dict({"k": 2, "coeffs": [{"s": 0, "re": [[1, 0], [0, 1]], "im": [[0.0]]}]})
    with pytest.raises(ValueError, match="no coefficient blocks"):
        symbol_from_dict({"k": 10 ** 6, "coeffs": []})


def test_exponential_tail_model():
    sym = exponential_symbol()
    assert abs(sym.tail_bound - 2.0 ** -39) < 1e-25
    assert sym.tail_bound < 1e-10  # truncation radius keeps the dropped tail negligible
    assert abs(banded_truncation(sym, 3).tail_bound - 2.0 ** -2) < 1e-15


def test_banded_truncation_of_a_finite_symbol_bounds_its_dropped_blocks():
    assert dimer_symbol(1.0, 2.0).tail_bound is None
    assert banded_truncation(dimer_symbol(1.0, 2.0), 0).tail_bound == 1.0  # |-1/2| at s = 1 and s = -1
