import numpy as np
import pytest

from bandrec import verify


def test_run_check_unknown_name():
    with pytest.raises(ValueError):
        verify.run_check("no.such.check")


def test_run_checks_empty_filter():
    with pytest.raises(ValueError):
        verify.run_checks(only="zzz")


def test_override_scoping():
    # nothing overrides a registered tolerance; the check passes at it and fails at zero, so it is not vacuous
    assert verify.run_check("acceptance.09_unitarity").passed
    passed, _ = verify.acceptance_09_unitarity({"tol": 0.0}, np.random.default_rng(0))
    assert not passed
