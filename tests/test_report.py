from fractions import Fraction

import pytest

from nhlc.report import ValidationReport, Violation


def test_violation_equality_and_immutability():
    v = Violation("jacobi", witness=(0, 1), expected=0, actual=Fraction(1, 2))
    assert v == Violation("jacobi", (0, 1), 0, Fraction(1, 2))
    assert v != Violation("jacobi", (0, 2), 0, Fraction(1, 2))
    assert v != Violation("grading", (0, 1), 0, Fraction(1, 2))
    assert v != Violation("jacobi", (0, 1), 1, Fraction(1, 2))
    assert v != Violation("jacobi", (0, 1), 0, 1)
    assert v != ("jacobi", (0, 1), 0, Fraction(1, 2))
    for name in ("check", "witness", "expected", "actual", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert (v.check, v.witness, v.expected, v.actual) == (
        "jacobi", (0, 1), 0, Fraction(1, 2))
    assert Violation("x") == Violation("x", None, None, None)


def test_reports_share_no_state():
    """Each report owns its violations, notices and details."""
    a, b = ValidationReport(), ValidationReport()
    a.add("jacobi", witness=(0,))
    a.notice("skipped")
    a.details["checks"] = 3
    assert not a.ok and b.ok
    assert (b.violations, b.notices, b.details) == ([], [], {})
    assert ValidationReport().violations is not ValidationReport().violations
    assert b.merge(a) is b and b.violations == a.violations
    assert b.violations is not a.violations and b.details == {"checks": 3}
