"""Abelian grading groups and skew-symmetric bicharacters over the rationals.

A grading group is presented as Z^r x Z/m_1 x ... x Z/m_t.  Degrees of
homogeneous elements live here, and the bicharacter evaluated on pairs of
degrees is the source of every Koszul sign in the bracket calculus.
"""

from fractions import Fraction

from .errors import DomainError, ShapeError
from .linalg import rational
from .report import ValidationReport


def integer(value, what):
    """value itself if it is an int; a bool, a float or anything else
    raises TypeError naming what it stands for."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


class GroupElement:
    """Element of Z^r x prod Z/m_i; torsion entries stored reduced.
    Immutable; equality, hashing and order are those of (free, torsion)."""

    __slots__ = ("free", "torsion", "_key")

    def __init__(self, free, torsion):
        init = object.__setattr__
        init(self, "free", free)
        init(self, "torsion", torsion)
        init(self, "_key", (free, torsion))

    def __setattr__(self, name, value):
        raise AttributeError(f"GroupElement is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GroupElement is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if type(other) is GroupElement:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    # a > b and a >= b fall back to b < a and b <= a
    def __lt__(self, other):
        if type(other) is GroupElement:
            return self._key < other._key
        return NotImplemented

    def __le__(self, other):
        if type(other) is GroupElement:
            return self._key <= other._key
        return NotImplemented

    def exponents(self):
        return self.free + self.torsion

    def __repr__(self):
        return f"({','.join(map(str, self.exponents()))})"


class GradingGroup:
    """Finitely generated abelian group Z^free_rank x prod Z/m.  Equality
    and hashing are those of (free_rank, torsion)."""

    def __init__(self, free_rank=0, torsion=()):
        if integer(free_rank, "free rank") < 0:
            raise ShapeError("free rank must be nonnegative")
        self.free_rank = free_rank
        self.torsion = tuple(integer(m, "torsion modulus") for m in torsion)
        if any(m < 2 for m in self.torsion):
            raise ShapeError("torsion moduli must be >= 2")
        # memo of add on checked pairs, keyed like Bicharacter.value; not
        # part of the group's value, so not compared or hashed
        self._sums = {}

    def __eq__(self, other):
        if type(other) is GradingGroup:
            return (self.free_rank == other.free_rank
                    and self.torsion == other.torsion)
        return NotImplemented

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    @property
    def generator_count(self):
        return self.free_rank + len(self.torsion)

    def zero(self):
        return GroupElement((0,) * self.free_rank, (0,) * len(self.torsion))

    def element(self, free=(), torsion=()):
        free = tuple(integer(x, "degree coordinate") for x in free)
        torsion = tuple(integer(x, "degree coordinate") for x in torsion)
        if len(free) != self.free_rank or len(torsion) != len(self.torsion):
            raise ShapeError(
                f"expected {self.free_rank} free and {len(self.torsion)} torsion "
                f"coordinates, got {len(free)} and {len(torsion)}"
            )
        torsion = tuple(x % m for x, m in zip(torsion, self.torsion))
        return GroupElement(free, torsion)

    def from_vector(self, vec):
        """Build an element from a flat vector free coordinates ++ torsion."""
        vec = list(vec)
        if len(vec) != self.generator_count:
            raise ShapeError(
                f"degree vector of length {len(vec)}, expected {self.generator_count}"
            )
        return self.element(vec[: self.free_rank], vec[self.free_rank:])

    def _check(self, a):
        if len(a.free) != self.free_rank or len(a.torsion) != len(self.torsion):
            raise ShapeError("element does not match group shape")

    def add(self, a, b):
        key = (a.free, a.torsion, b.free, b.torsion)
        got = self._sums.get(key)
        if got is None:
            self._check(a)
            self._check(b)
            free = tuple(x + y for x, y in zip(a.free, b.free))
            torsion = tuple((x + y) % m
                            for x, y, m in zip(a.torsion, b.torsion, self.torsion))
            got = self._sums[key] = GroupElement(free, torsion)
        return got

    def neg(self, a):
        self._check(a)
        free = tuple(-x for x in a.free)
        torsion = tuple((-x) % m for x, m in zip(a.torsion, self.torsion))
        return GroupElement(free, torsion)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def sum(self, elements):
        out = self.zero()
        for e in elements:
            out = self.add(out, e)
        return out


class Bicharacter:
    """Skew-symmetric bicharacter given by its values on group generators.

    table[i][j] is the value on (g_i, g_j); values on arbitrary elements
    follow by bimultiplicativity from the generator exponents.  Table
    entries and values are canonical rationals (linalg.rational) in Q^x:
    a 0 entry raises DomainError.
    """

    def __init__(self, group, table):
        n = group.generator_count
        table = tuple(tuple(rational(x) for x in row) for row in table)
        if len(table) != n or any(len(row) != n for row in table):
            raise ShapeError(f"bicharacter table must be {n}x{n}")
        for i, row in enumerate(table):
            for j, x in enumerate(row):
                if x == 0:
                    raise DomainError(f"bicharacter entry ({i}, {j}) is 0, "
                                      f"not in Q^x")
        self.group = group
        self.table = table
        self._memo = {}

    def value(self, g, h):
        """Evaluate on a pair of degrees; always a nonzero rational.  The
        powers are taken of Fractions, because an int to a negative power
        is a float, and the product is made canonical."""
        # keyed on the coordinate tuples, whose hash and equality run in C
        key = (g.free, g.torsion, h.free, h.torsion)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self.group._check(g)
        self.group._check(h)
        out = Fraction(1)
        for i, a in enumerate(g.exponents()):
            if a == 0:
                continue
            row = self.table[i]
            for j, b in enumerate(h.exponents()):
                if b == 0:
                    continue
                out *= Fraction(row[j]) ** (a * b)
        out = self._memo[key] = rational(out)
        return out

    def __eq__(self, other):
        return isinstance(other, Bicharacter) and self.table == other.table \
            and self.group == other.group

    def __repr__(self):
        return f"Bicharacter({self.table!r})"


def trivial_bicharacter(group):
    n = group.generator_count
    return Bicharacter(group, [[1] * n for _ in range(n)])


def validate_bicharacter(eps):
    """Check every bicharacter invariant; violations are report entries."""
    report = ValidationReport()
    table = eps.table
    n = eps.group.generator_count
    for i in range(n):
        for j in range(n):
            prod = table[i][j] * table[j][i]
            if prod != 1:
                report.add("bicharacter-skew", witness=(i, j),
                           expected=1, actual=prod)
    for i in range(n):
        if table[i][i] not in (1, -1):
            report.add("bicharacter-diagonal", witness=(i,),
                       expected="1 or -1", actual=table[i][i])
    # a torsion generator of order m forces m-th powers of its row and
    # column to be 1, otherwise values depend on the residue representative
    r = eps.group.free_rank
    for ti, m in enumerate(eps.group.torsion):
        i = r + ti
        for j in range(n):
            if table[i][j] ** m != 1:
                report.add("bicharacter-torsion", witness=(i, j),
                           expected=f"value^{m} = 1", actual=table[i][j])
            if table[j][i] ** m != 1:
                report.add("bicharacter-torsion", witness=(j, i),
                           expected=f"value^{m} = 1", actual=table[j][i])
    return report
