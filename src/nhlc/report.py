"""Structured validation and verification reports."""

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class Violation:
    check: str
    witness: object = None
    expected: object = None
    actual: object = None

    def to_json(self):
        return {
            "check": self.check,
            "witness": _jsonable(self.witness),
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
        }


@dataclass
class ValidationReport:
    """A list of violations plus informational notices; empty list == valid."""

    violations: list = field(default_factory=list)
    notices: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.violations

    def add(self, check, witness=None, expected=None, actual=None):
        self.violations.append(Violation(check, witness, expected, actual))

    def notice(self, text):
        self.notices.append(text)

    def merge(self, other):
        self.violations.extend(other.violations)
        self.notices.extend(other.notices)
        self.details.update(other.details)
        return self


def _jsonable(obj):
    """Recursively convert report payloads to JSON-safe values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return str(obj.numerator)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    # GroupElement, HomMap, ... fall back to their repr
    return repr(obj)
