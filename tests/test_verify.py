import numpy as np
import pytest

from bandrec import verify


def test_run_check_unknown_name():
    with pytest.raises(ValueError):
        verify.run_check("no.such.check")


def test_run_checks_empty_filter():
    with pytest.raises(ValueError):
        verify.run_checks(only="zzz")


def test_unitarity_passes_at_its_registered_tolerance_and_fails_at_zero():
    assert verify.run_check("acceptance.09_unitarity").passed
    passed, _ = verify.acceptance_09_unitarity({"tol": 0.0}, np.random.default_rng(0))
    assert not passed
