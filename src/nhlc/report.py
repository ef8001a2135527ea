"""Structured validation and verification reports."""

from fractions import Fraction


class Violation:
    """One failed check.  expected and actual hold values of the algebra
    (rationals, vectors, bools) or text, never a count, so an int in them
    is a rational in canonical form and prints as a Fraction would; the
    witness holds indices and degrees, and its ints stay numbers.
    Immutable, and equal to a violation with the same four fields."""

    __slots__ = ("check", "witness", "expected", "actual")

    def __init__(self, check, witness=None, expected=None, actual=None):
        init = object.__setattr__
        init(self, "check", check)
        init(self, "witness", witness)
        init(self, "expected", expected)
        init(self, "actual", actual)

    def __setattr__(self, name, value):
        raise AttributeError(f"Violation is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Violation is immutable; cannot delete {name!r}")

    def _fields(self):
        return (self.check, self.witness, self.expected, self.actual)

    def __eq__(self, other):
        if type(other) is Violation:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self):
        return "Violation(check={!r}, witness={!r}, expected={!r}, actual={!r})".format(
            *self._fields())

    def to_json(self):
        return {
            "check": self.check,
            "witness": _jsonable(self.witness),
            "expected": _jsonable(self.expected, rationals=True),
            "actual": _jsonable(self.actual, rationals=True),
        }


class ValidationReport:
    """A list of violations plus informational notices; empty list == valid.
    details holds named results of the check, such as counts and tables,
    under string keys."""

    def __init__(self):
        self.violations = []
        self.notices = []
        self.details = {}

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


def json_default(obj):
    """The `default` of a JSON encoder of reports: a Violation encodes as
    its to_json() dict, anything else as _jsonable gives it."""
    if isinstance(obj, Violation):
        return obj.to_json()
    return _jsonable(obj)


def _jsonable(obj, rationals=False):
    """Recursively convert report payloads to JSON-safe values.  A Fraction
    becomes its "p/q" string, and so does an int (but not a bool) when
    rationals is set."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return str(obj) if rationals else obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, rationals) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x, rationals) for x in obj]
    # GroupElement, HomMap, ... fall back to their repr
    return repr(obj)
