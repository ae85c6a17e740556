"""The check gate: one test per `verify.CHECKS` entry, each printing its pass/fail line.

Criterion 7 is split by the sign of the compact defect: 07a (delta < 0)
asserts one bound state just below the upper band whose eigenvalue does not
move with the chain length, and 07b (delta > 0) asserts localized gap modes
(see README section "Tests and the acceptance suite").
"""

import pytest

from bandrec import verify

# runtime budgets in seconds; checks not listed here have none
BUDGETS = {
    "acceptance.01_circulant_exactness": 1.0,
    "acceptance.02_even_index_exactness": 1.0,
    "acceptance.03_odd_index_convergence": 5.0,
    "acceptance.04_exponential_symbol": 10.0,
    "acceptance.05_ssh": 5.0,
    "acceptance.06_dislocated": 5.0,
    "acceptance.07a_compact_defect_negative": 5.0,
    "acceptance.07b_compact_defect_positive": 5.0,
    "acceptance.08_near_far": 5.0,
    "acceptance.09_unitarity": 5.0,
    "acceptance.10_truncation_bounds": 5.0,
    "acceptance.11_delocalisation_trend": 5.0,
}


@pytest.mark.parametrize("name", [name for name, _, _ in verify.CHECKS])
def test_check(name):
    result = verify.run_check(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {name} ({result.seconds:.2f}s): {result.detail}")
    assert result.seconds < BUDGETS.get(name, float("inf")), \
        f"{name} exceeded its runtime budget ({result.seconds:.1f}s)"
    assert result.passed, result.detail


def test_every_budget_names_a_check():
    assert set(BUDGETS) <= {name for name, _, _ in verify.CHECKS}


@pytest.mark.parametrize("seed", [1, 2])
def test_randomized_criteria_stable_across_seeds(seed):
    for name in ("acceptance.01_circulant_exactness", "acceptance.08_near_far",
                 "reconstruct.rebase_invariance"):
        result = verify.run_check(name, seed=seed)
        assert result.passed, f"seed {seed}: {result.detail}"
