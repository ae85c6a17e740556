import pytest

from bandrec import verify


def test_run_check_unknown_name():
    with pytest.raises(ValueError):
        verify.run_check("no.such.check")


def test_run_checks_empty_filter():
    with pytest.raises(ValueError):
        verify.run_checks(only="zzz")


def test_override_scoping():
    # a qualified override hits only its check; unqualified hits any with the key
    ok = verify.run_check("acceptance.09_unitarity", overrides={"transform.dft_oracle.tol": 0.0})
    assert ok.passed
    broken = verify.run_check("acceptance.09_unitarity", overrides={"tol": 0.0})
    assert not broken.passed
