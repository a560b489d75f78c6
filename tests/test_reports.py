import pytest

from qcurrent.cohom import CocycleConditionError, FiltrationError
from qcurrent.reports import CheckError, run_checks


def test_check_errors_share_one_base():
    assert issubclass(CocycleConditionError, CheckError)
    assert issubclass(FiltrationError, CheckError)


def test_check_error_becomes_a_failed_check():
    def reject():
        raise CocycleConditionError("dH(gamma) != 0")

    def no_preimage():
        raise FiltrationError("no preimage within filtration degree 2")

    report = run_checks("demo", "A1", [("ok", "x = x", lambda: None),
                                       ("reject", "dH(gamma) = 0", reject),
                                       ("lift", "a preimage exists",
                                        no_preimage)])
    assert [c.passed for c in report.checks] == [True, False, False]
    assert report.checks[1].residual == "CocycleConditionError: dH(gamma) != 0"
    assert report.checks[2].residual == \
        "FiltrationError: no preimage within filtration degree 2"


def test_internal_error_in_a_check_propagates():
    def crash():
        raise TypeError("iota embeds LieElement or U(g) element values")

    with pytest.raises(TypeError, match="iota embeds"):
        run_checks("demo", "A1", [("ok", "x = x", lambda: None),
                                  ("crash", "y = y", crash)])
