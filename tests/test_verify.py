import numpy as np
import pytest

from bandrec import transform, verify


def test_unitarity_passes_at_its_registered_tolerance_and_fails_at_zero():
    assert verify.run_check("acceptance.09_unitarity").passed
    passed, _ = verify.acceptance_09_unitarity({"tol": 0.0}, np.random.default_rng(0))
    assert not passed


@pytest.mark.parametrize("name", ["acceptance.05_ssh", "acceptance.06_dislocated",
                                  "acceptance.07a_compact_defect_negative"])
def test_a_band_error_check_fails_without_the_bloch_refit(monkeypatch, name):
    # the registered tolerances sit at a hundred ulps; the untrimmed fit reads 1.96e-2, 1.87e-2 and 1.43e-2 on
    # these three runs, so a recovery that loses its refits fails them; one refit reads 05 and 06 at 1.58e-4 and
    # 3.73e-4 (07a at rounding), so a recovery that loses the second refit fails those two
    assert verify.run_check(name).passed
    if name != "acceptance.07a_compact_defect_negative":
        monkeypatch.setattr(transform, "BLOCH_REFITS", 1)
        result = verify.run_check(name)
        assert not result.passed and "band error" in result.detail, result.detail
    monkeypatch.setattr(transform, "TRIMMED_CELLS", 0)
    result = verify.run_check(name)
    assert not result.passed and "band error" in result.detail, result.detail


# a tolerance each check with tolerances cannot meet, with the keys it registers
UNMEETABLE = {
    "transform.dft_oracle": {"tol": -1.0},
    "transform.linearity_phase": {"tol": -1.0},
    "transform.circulant_quasiperiodicity": {"tol": -1.0},
    "symbol.hermitian_evaluation": {"tol": -1.0},
    "symbol.closed_form_bands": {"tol": -1.0},
    "symbol.truncation_bound": {"tol": -1.0},
    "matrices.chain_invariants": {"tol": -1.0},
    "matrices.perturbation_similarity": {"tol": -1.0},
    "spectra.eigen_contract": {"tol": -1.0},
    "reconstruct.error_trend": {"slack": 0.0},
    "reconstruct.rebase_invariance": {"tol": -1.0},
    "acceptance.01_circulant_exactness": {"tol": -1.0},
    "acceptance.02_even_index_exactness": {"tol": -1.0},
    "acceptance.03_odd_index_convergence": {"tol": -1.0},
    "acceptance.04_exponential_symbol": {"max30": 0.0, "mean30": 0.0},
    "acceptance.05_ssh": {"ipr_factor": 1e9, "max_bin": 0.0, "band_err": 0.0},
    "acceptance.06_dislocated": {"band_err": 0.0},
    "acceptance.07a_compact_defect_negative": {"band_err": 0.0, "drift": -1.0},
    "acceptance.09_unitarity": {"tol": -1.0},
    "acceptance.10_truncation_bounds": {"tail_tol": -1.0},
    "acceptance.11_delocalisation_trend": {"slack": 0.0},
}


def test_every_check_with_tolerances_has_an_unmeetable_one():
    assert {name: set(tol) for name, tol in UNMEETABLE.items()} == \
        {name: set(tol) for name, _, tol in verify.CHECKS if tol}


@pytest.mark.parametrize("name", UNMEETABLE)
def test_a_check_reports_an_unmeetable_tolerance_as_a_failure(name):
    fn = next(fn for check_name, fn, _ in verify.CHECKS if check_name == name)
    passed, detail = fn(UNMEETABLE[name], np.random.default_rng(0))
    assert not passed
    assert isinstance(detail, str) and detail


def test_a_check_that_raises_is_reported_as_a_failing_result(monkeypatch):
    def divide_by_zero(tol, rng):
        return 1 / 0 > 0, "unreachable"

    monkeypatch.setattr(verify, "CHECKS", [("test.divide_by_zero", divide_by_zero, {})])
    result = verify.run_check("test.divide_by_zero")
    assert result.name == "test.divide_by_zero" and not result.passed
    assert result.detail == "raised ZeroDivisionError: division by zero"
    assert [r.passed for r in verify.run_checks(only="divide")] == [False]
