"""Bit-exact JSON algebra files and report payloads.

Rationals are serialized as "p/q" strings (bare "p" when the denominator is
one) so no float ever enters a file.  Degree vectors are the free
coordinates followed by the torsion residues.  Loading validates the
bicharacter axioms and, when they hold, the full algebra axioms; a failing
file is rejected with the offending report attached.
"""

import json
import sys

from .algebra import ColorAlgebra, validate_algebra
from .errors import AlgebraValidationError, FormatError
from .grading import Bicharacter, GradingGroup, integer, validate_bicharacter
from .linalg import Matrix, rational

# The most bits eps_bit_bound may give for a file to be loaded.  A product
# of two Fractions with numerators and denominators of this size takes
# about 16 ms on a 2-vCPU VM (Python 3.11), one of 2^18 bits 0.27 s.
MAX_EPS_BITS = 1 << 16


def parse_rational(value):
    """Parse "p/q" or "p" (string or int) into an exact rational in its
    canonical form (linalg.rational): an int when it is integral, so "4/2"
    is the int 2, and a Fraction only when it is not."""
    if isinstance(value, bool) or isinstance(value, float):
        raise FormatError(f"rationals must be strings or integers, got {value!r}")
    try:
        return rational(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise FormatError(f"bad rational {value!r}: {exc}") from None


def format_rational(x):
    """A rational as "p/q", or "p" when its denominator is one."""
    return str(rational(x))


def eps_bit_bound(eps, degrees, arity):
    """An upper bound on log2 of the numerator and of the denominator of
    every value of eps the engine forms on an algebra of this arity with
    these basis degrees.

    eps(g, h) is the product of t_ij^(g_i h_j) over the generators i, j,
    with t the bicharacter table, and a rational p/q to the power e has
    numerator and denominator at most 2^(|e| b(p/q)), where
    b(p/q) = ceil(log2 max(|p|, q)).  An entry +-1 has b = 0: it adds
    nothing, whatever its power.

    Every degree eps is evaluated on, in the algebra and in the maps the
    engine solves, is a signed sum of at most 2n basis degrees, n the
    arity.  In the n-ary identities of validation, the solver, the oracle
    and delta one side is a map degree (a difference of two basis
    degrees), a sum of two of them, or the degree of up to n - 1 leaves,
    and the other the degree of at most 2n - 2 leaves before a slot; the
    map algebras are binary on map degrees, so their degree sums hold at
    most four basis degrees a side.  A free coordinate i of such a sum is
    therefore at most C_i = 2n c_i in size, c_i the largest |coordinate i|
    of a basis degree.  A torsion coordinate is reduced below its modulus
    m, and validate_bicharacter raises the entries of its row and column
    to the power m, so there C_i = m.  C_i is taken at least 1, which
    covers that power against a free generator.  The bound is the
    sum of C_i C_j b(t_ij) over the table."""
    size = [max(1, 2 * arity * max((abs(d.free[i]) for d in degrees), default=0))
            for i in range(eps.group.free_rank)] + list(eps.group.torsion)
    return sum(size[i] * size[j]
               * (max(abs(t.numerator), t.denominator) - 1).bit_length()
               for i, row in enumerate(eps.table) for j, t in enumerate(row))


def algebra_to_dict(A):
    brackets = []
    for t in A.stored_tuples():
        value = {str(j): format_rational(c) for j, c in sorted(A.constants[t].items())}
        brackets.append({"args": list(t), "value": value})
    return {
        "name": A.name,
        "arity": A.arity,
        "group": {"free_rank": A.group.free_rank, "torsion": list(A.group.torsion)},
        "bicharacter": [[format_rational(x) for x in row] for row in A.eps.table],
        "basis": [{"name": nm, "degree": list(deg.free + deg.torsion)}
                  for nm, deg in A.basis],
        "alpha": [[format_rational(x) for x in row] for row in A.alpha.data],
        "brackets": brackets,
    }


def dict_to_algebra(doc, validate=True):
    try:
        name = doc["name"]
        arity = integer(doc["arity"], "arity")
        gdoc = doc["group"]
        group = GradingGroup(integer(gdoc["free_rank"], "free_rank"),
                             tuple(integer(m, "torsion modulus")
                                   for m in gdoc.get("torsion", [])))
        eps = Bicharacter(group, [[parse_rational(x) for x in row]
                                  for row in doc["bicharacter"]])
        basis = []
        names = set()
        for b in doc["basis"]:
            nm = str(b["name"])
            if nm in names:
                raise FormatError(f"duplicate basis name {nm!r}")
            names.add(nm)
            basis.append((nm, group.from_vector(b["degree"])))
        bits = eps_bit_bound(eps, [g for _, g in basis], arity)
        if bits > MAX_EPS_BITS:
            raise FormatError(
                f"degrees too large for the bicharacter: its values may need "
                f"{bits} bits, more than {MAX_EPS_BITS}")
        alpha = Matrix([[parse_rational(x) for x in row] for row in doc["alpha"]])
        constants = {}
        for entry in doc.get("brackets", []):
            t = tuple(integer(i, "bracket argument") for i in entry["args"])
            if t in constants:
                raise FormatError(f"duplicate bracket tuple {t}")
            value = entry["value"]
            if not isinstance(value, dict):
                raise FormatError(f"bracket value of {t} must be an object, "
                                  f"got {value!r}")
            constants[t] = {int(j): parse_rational(c)
                            for j, c in value.items()}
    except KeyError as exc:
        raise FormatError(f"missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed algebra file: {exc}") from None
    A = ColorAlgebra(name, arity, group, eps, basis, alpha, constants)
    if validate:
        check_axioms(A)
    return A


def check_axioms(A):
    """The axiom report of A: its bicharacter, then, if that passes, its
    identities; raises AlgebraValidationError when A fails it."""
    report = validate_bicharacter(A.eps)
    if report.ok:
        report.merge(validate_algebra(A))
    if not report.ok:
        raise AlgebraValidationError(f"algebra {A.name!r} fails validation", report)
    return report


def dumps(A):
    return json.dumps(algebra_to_dict(A), indent=2, sort_keys=True) + "\n"


def save(A, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(A))


def loads(text, validate=True):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("algebra file must be a JSON object")
    return dict_to_algebra(doc, validate=validate)


def load(path, validate=True):
    """Load an algebra file; "-" reads standard input."""
    if path == "-":
        return loads(sys.stdin.read(), validate=validate)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    return loads(text, validate=validate)


def matrix_to_grid(M):
    return [[format_rational(x) for x in row] for row in M.data]


def vector_to_list(v):
    return [format_rational(x) for x in v]


def parse_matrix(grid):
    return Matrix([[parse_rational(x) for x in row] for row in grid])


def parse_vector(lst):
    return [parse_rational(x) for x in lst]
