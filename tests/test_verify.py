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


@pytest.mark.parametrize("key", ["tool", "acceptance.09_unitarity.tool", "no.such.check.tol",
                                 "acceptance.09_unitarity.slack"])
def test_run_checks_refuses_an_override_no_check_reads(key):
    with pytest.raises(ValueError, match=f"no check reads the tolerance {key};"):
        verify.run_checks(only="acceptance.09", overrides={key: 0.0})


def test_run_checks_accepts_an_override_another_check_reads():
    # slack belongs to reconstruct.error_trend and acceptance.11, not to the check that runs
    [result] = verify.run_checks(only="acceptance.09", overrides={"slack": 0.0})
    assert result.passed
