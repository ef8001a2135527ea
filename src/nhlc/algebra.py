"""Multiplicative n-ary Hom-Lie color algebras given by structure constants.

An algebra is a graded basis, a sparse table of bracket values on
non-decreasing index tuples, a twist endomorphism alpha, and a bicharacter
supplying the Koszul signs.  Arbitrary bracket arguments are reduced to the
stored tuples by sign-normalizing adjacent swaps.  Brackets are evaluated
on sparse arguments against a memo of sparse basis-bracket values.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from .errors import ArityError, InvertibilityError, ShapeError
from .grading import integer
from .linalg import F0, F1, Matrix, accumulate, dense, support
from .report import ValidationReport


def normalize_tuple(indices, degrees, eps):
    """Sort a bracket index tuple, accumulating the color sign.

    Each adjacent swap contributes -eps(|left|, |right|).  Returns
    (sorted_tuple, sign), or None when the bracket is forced to vanish by a
    repeated index whose degree has eps(g, g) = 1.
    """
    idx = list(indices)
    sign = F1
    n = len(idx)
    for a in range(1, n):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            sign *= -eps.value(degrees[idx[b - 1]], degrees[idx[b]])
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            b -= 1
    for a in range(n - 1):
        if idx[a] == idx[a + 1]:
            g = degrees[idx[a]]
            if eps.value(g, g) == 1:
                return None
    return tuple(idx), sign


class ColorAlgebra:
    """Finite-dimensional multiplicative n-Hom-Lie color algebra.

    constants maps non-decreasing basis index tuples to sparse coefficient
    dicts {target_index: rational}; unstored tuples bracket to zero.
    Instances are immutable after construction; the caches below are pure
    memos keyed on immutable data.
    """

    def __init__(self, name, arity, group, eps, basis, alpha, constants):
        arity = integer(arity, "arity")
        if arity < 2:
            raise ArityError("arity must be at least 2")
        self.name = str(name)
        self.arity = arity
        self.group = group
        self.eps = eps
        self.basis = tuple((str(nm), deg) for nm, deg in basis)
        self.dim = len(self.basis)
        self.degrees = tuple(deg for _, deg in self.basis)
        self.names = tuple(nm for nm, _ in self.basis)
        for deg in self.degrees:
            group._check(deg)
        if not isinstance(alpha, Matrix):
            alpha = Matrix(alpha)
        if alpha.rows != self.dim or alpha.cols != self.dim:
            raise ShapeError("alpha must be a dim x dim matrix")
        self.alpha = alpha
        self.constants = {}
        for t, value in constants.items():
            t = tuple(integer(i, "bracket index") for i in t)
            if len(t) != self.arity:
                raise ShapeError(f"tuple {t} has wrong length")
            if any(i < 0 or i >= self.dim for i in t):
                raise ShapeError(f"tuple {t} has out-of-range indices")
            if any(t[a] > t[a + 1] for a in range(len(t) - 1)):
                raise ShapeError(f"tuple {t} is not non-decreasing")
            vec = {integer(j, "bracket value index"): Fraction(c)
                   for j, c in value.items()}
            vec = {j: c for j, c in vec.items() if c}
            if any(j < 0 or j >= self.dim for j in vec):
                raise ShapeError(f"value of {t} has out-of-range indices")
            if vec:
                self.constants[t] = vec
        self._bracket_memo = {}
        self._sparse_memo = {}
        self._basis_vecs = {}
        self._alpha_powers = {0: Matrix.identity(self.dim), 1: self.alpha}
        self._space_cache = {}   # spaces.memo

    # -- basic helpers ----------------------------------------------------
    def degree_sum(self, degs):
        return self.group.sum(degs)

    def zero_vector(self):
        return [F0] * self.dim

    def basis_vector(self, i):
        got = self._basis_vecs.get(i)
        if got is None:
            v = [F0] * self.dim
            v[i] = F1
            got = self._basis_vecs[i] = tuple(v)
        return got

    def alpha_power(self, k):
        """alpha^k; negative k requires an invertible twist.

        Steps from the nearest cached power towards k, caching every power
        on the way.
        """
        powers = self._alpha_powers
        if k < 0 and -1 not in powers:
            inv = self.alpha.inverse()
            if inv is None:
                raise InvertibilityError(
                    f"twist of {self.name} is singular; negative powers undefined")
            powers[-1] = inv
        step = 1 if k > 0 else -1
        j = k
        while j not in powers:
            j -= step
        while j != k:
            powers[j + step] = powers[j] * powers[step]
            j += step
        return powers[k]

    def bracket_basis(self, indices):
        """Bracket of basis elements in any order, as a coordinate tuple."""
        got = self._bracket_memo.get(indices)
        if got is not None:
            return got
        norm = normalize_tuple(indices, self.degrees, self.eps)
        out = [F0] * self.dim
        if norm is not None:
            t, sign = norm
            for j, c in self.constants.get(t, {}).items():
                out[j] = sign * c
        out = tuple(out)
        self._bracket_memo[indices] = out
        return out

    def sparse_bracket(self, args):
        """Multilinear bracket of arity-many sparse vectors [(i, c), ...]
        (see linalg.support), as a sparse vector.

        The one evaluation path of every bracket: each ordered index tuple
        of the arguments' supports is looked up in a memo of the sparse
        value of its basis bracket, so a zero coefficient or a vanishing
        basis bracket costs no arithmetic.
        """
        memo = self._sparse_memo
        acc = {}
        for combo in product(*args):
            indices = tuple([i for i, _ in combo])
            term = memo.get(indices)
            if term is None:
                term = memo[indices] = support(self.bracket_basis(indices))
            if term:
                coeff = None
                for _, c in combo:
                    if c is not F1:
                        coeff = c if coeff is None else coeff * c
                accumulate(acc, term, coeff)
        return [(r, c) for r, c in acc.items() if c]

    def bracket(self, args):
        """Multilinear bracket of arity-many coordinate vectors."""
        if len(args) != self.arity:
            raise ShapeError(f"bracket takes {self.arity} arguments")
        for v in args:
            if len(v) != self.dim:
                raise ShapeError("argument length does not match dimension")
        return dense(self.sparse_bracket([support(v) for v in args]), self.dim)

    def stored_tuples(self):
        return sorted(self.constants)

    def all_tuples(self):
        return combinations_with_replacement(range(self.dim), self.arity)

    def __repr__(self):
        return f"ColorAlgebra({self.name!r}, arity={self.arity}, dim={self.dim})"


class HomMap:
    """Homogeneous linear endomorphism tagged with its degree."""

    __slots__ = ("degree", "matrix")

    def __init__(self, degree, matrix):
        if not isinstance(matrix, Matrix):
            matrix = Matrix(matrix)
        self.degree = degree
        self.matrix = matrix

    def apply(self, vec):
        return self.matrix.apply(vec)

    def respects_blocks(self, algebra):
        """Entry (j, i) may be nonzero only when deg(b_j) = deg(b_i) + degree."""
        degs = algebra.degrees
        g = algebra.group
        for j in range(algebra.dim):
            for i in range(algebra.dim):
                if self.matrix[j][i] != 0 and degs[j] != g.add(degs[i], self.degree):
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, HomMap) and self.degree == other.degree \
            and self.matrix == other.matrix

    def __repr__(self):
        return f"HomMap(degree={self.degree}, dim={self.matrix.rows})"


def validate_algebra(algebra):
    """Check every defining axiom; failures become report entries.

    Covers grading compatibility of the stored constants, the repeated-index
    sign rule, evenness and multiplicativity of the twist, and the full
    twisted n-ary Jacobi identity over all basis argument tuples.
    """
    A = algebra
    report = ValidationReport()
    g = A.group

    for t in A.stored_tuples():
        total = A.degree_sum(A.degrees[i] for i in t)
        for j, c in A.constants[t].items():
            if A.degrees[j] != total:
                report.add("grading", witness=(t, j), expected=total,
                           actual=A.degrees[j])
        for a in range(len(t) - 1):
            if t[a] == t[a + 1]:
                d = A.degrees[t[a]]
                if A.eps.value(d, d) == 1:
                    report.add("repeated-argument", witness=t,
                               expected="zero value", actual=A.constants[t])
                    break

    for i in range(A.dim):
        for j in range(A.dim):
            if A.alpha[j][i] != 0 and A.degrees[j] != A.degrees[i]:
                report.add("twist-even", witness=(j, i), expected=A.degrees[i],
                           actual=A.degrees[j])
    if not report.ok:
        # signs below would be meaningless with a broken grading layer
        return report

    n = A.arity
    dim = A.dim
    acols = [support(A.alpha.column(i)) for i in range(dim)]
    for t in A.all_tuples():
        lhs = A.alpha.apply(A.bracket_basis(t))
        rhs = dense(A.sparse_bracket([acols[i] for i in t]), dim)
        if lhs != rhs:
            report.add("twist-multiplicative", witness=t, expected=lhs, actual=rhs)

    ydata = []
    for ys in product(range(dim), repeat=n):
        prefixes = []
        p = g.zero()
        for i in range(n):
            prefixes.append(p)
            p = g.add(p, A.degrees[ys[i]])
        ydata.append((ys, support(A.bracket_basis(ys)), prefixes))
    for xs in product(range(dim), repeat=n - 1):
        xdeg = A.degree_sum(A.degrees[i] for i in xs)
        xac = [acols[i] for i in xs]
        # [xs, y] for every basis vector y, the inner value of each slot
        inners = [support(A.bracket_basis(xs + (y,))) for y in range(dim)]
        for ys, inner, prefixes in ydata:
            lhs = dense(A.sparse_bracket(xac + [inner]), dim)
            rhs = {}
            for i in range(n):
                sign = A.eps.value(xdeg, prefixes[i])
                args = [acols[y] for y in ys]
                args[i] = inners[ys[i]]
                accumulate(rhs, A.sparse_bracket(args), None if sign == 1 else sign)
            rhs = dense(rhs.items(), dim)
            if lhs != rhs:
                report.add("jacobi", witness=(xs, ys), expected=rhs, actual=lhs)
    return report
