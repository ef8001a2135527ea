"""Multiplicative n-ary Hom-Lie color algebras given by structure constants.

An algebra is a graded basis, a sparse table of bracket values on
non-decreasing index tuples, a twist endomorphism alpha, and a bicharacter
supplying the Koszul signs.  Arbitrary bracket arguments are reduced to the
stored tuples by sign-normalizing adjacent swaps.  Brackets are evaluated
on sparse arguments against a memo of sparse basis-bracket values.
"""

from itertools import combinations_with_replacement, permutations, product

from .errors import ArityError, DomainError, InvertibilityError, ShapeError
from .grading import integer, validate_bicharacter
from .linalg import F0, F1, Matrix, accumulate, dense, rational, support

# The most distinct powers of the twist that are formed: one of infinite
# order, such as diag(2, 1), repeats none, and alpha^k may need k bits.
MAX_TWIST_POWERS = 1 << 12


def normalize_tuple(indices, degrees, eps):
    """Sort a bracket index tuple, accumulating the color sign.

    Each adjacent swap contributes -eps(|left|, |right|).  Returns
    (sorted_tuple, sign), or None when the bracket is forced to vanish by a
    repeated index whose degree has eps(g, g) = 1.

    Each swap removes one inversion, so the sign is the product of
    -eps(|a|, |b|) over the inverted pairs (a before b, a > b), whatever
    the order of the swaps.  Hence, when eps is a valid bicharacter
    (validate_bicharacter: skew, so eps(g, g) = +-1, and well defined on
    torsion, so bimultiplicative), the bracket of homogeneous vectors is
    color-skew:

        [.., v, u, ..] = -eps(|v|, |u|) [.., u, v, ..].

    For basis vectors a < b in the slots of u, v this is the one extra
    inversion; for a > b it is the same identity read backwards, since
    eps(|a|, |b|) eps(|b|, |a|) = 1; for a = b of degree g both sides vanish
    when eps(g, g) = 1 and agree when eps(g, g) = -1.  Homogeneous u and v
    expand into basis vectors of one degree each.  The live sweeps of
    validate_algebra and of the oracle rest on this.
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


def live_tuples(degrees, eps, m):
    """The sorted m-tuples of range(len(degrees)), in lexicographic order,
    that repeat an index only when its degree g has eps(g, g) != 1, the test
    of normalize_tuple.  Only these tuples can carry a nonzero
    bracket or a nonzero Leibniz row.

    Proof.  eps is bimultiplicative (it is built from its values on the
    generators) and skew, eps(g, h) eps(h, g) = 1, so eps(g, g) = +-1; the
    twist a = alpha^k is even.  validate_bicharacter checks skewness and
    validate_algebra evenness.  Let a tuple repeat t, of degree g with
    eps(g, g) = 1; sorted, the repeat sits in adjacent slots q, q + 1.

    - A bracket with a repeated homogeneous argument u of degree g is zero:
      swapping the two copies gives [.., u, u, ..] = -eps(g, g) [.., u, u, ..].
      So [ys], [xs, [ys]] and [e_q, s, *tail] vanish when ys, xs or the tail
      repeats t, and ad(xs) is the zero map when the twist-fixed
      generators xs repeat one of degree g.
    - In the identity of spaces._leibniz_rows the value D(M) is D(0) = 0.  An
      unknown entry D_jt, with |e_j| = d + g, enters the slot terms of q and
      q + 1 as eps(d, P) X and eps(d, P + g) X', where P is the degree of
      the leaves before slot q, X has e_j in slot q and a e_t in slot
      q + 1, and X' has them swapped (inside [a xs, .] when the repeat is
      in ys of [xs, [ys]]).  Skew symmetry gives X' = -eps(g, d + g) X, so
      the two sum to eps(d, P) (1 - eps(d, g) eps(g, d) eps(g, g)) X
      = eps(d, P) (1 - eps(g, g)) X = 0.
    - Every other slot term holds a e_t twice, so it is zero.

    Every row of a dropped tuple is therefore zero: the nonzero rows reach
    RowReducer in the same order, and the echelon, the early stop and the
    kernel are unchanged.  The Jacobi sweep of validate_algebra and the
    oracle sweep live tuples too, each under a proof of its own;
    tests/helpers.py keeps the full ordered sweeps as the independent
    check.

    The test is on adjacent pairs, so a tuple is live exactly when its
    prefix is live and its last index is past the one before it, or equal
    to it and repeatable.  The tuples are built by that extension, one
    index at a time; extending each live prefix in order by its allowed
    indices in increasing order keeps the lexicographic order.
    """
    n = len(degrees)
    repeatable = [eps.value(g, g) != 1 for g in degrees]
    tuples = [()]
    for _ in range(m):
        tuples = [t + (i,) for t in tuples
                  for i in range(t[-1] + (not repeatable[t[-1]]) if t else 0, n)]
    return tuples


def skew_premises(algebra, D, k):
    """True when eps is a valid bicharacter (validate_bicharacter), the map
    D is homogeneous of its stated degree and the twist alpha^k is even:
    then every bracket of basis vectors and their images under D and the
    twist has homogeneous arguments and is color-skew (normalize_tuple).
    The premises under which the oracle sweeps live tuples alone."""
    A = algebra
    return (validate_bicharacter(A.eps).ok and D.respects_blocks(A)
            and HomMap(A.group.zero(), A.alpha_power(k)).respects_blocks(A))


class ColorAlgebra:
    """Finite-dimensional multiplicative n-Hom-Lie color algebra.

    constants maps non-decreasing basis index tuples to sparse coefficient
    dicts {target_index: rational}, canonical (linalg.rational); unstored
    tuples bracket to zero.
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
            vec = {integer(j, "bracket value index"): rational(c)
                   for j, c in value.items()}
            vec = {j: c for j, c in vec.items() if c}
            if any(j < 0 or j >= self.dim for j in vec):
                raise ShapeError(f"value of {t} has out-of-range indices")
            if vec:
                self.constants[t] = vec
        self._bracket_memo = {}
        self._sparse_memo = {}
        self._basis_vecs = {}
        self._twists = {}        # _twist_walk: step 1 or -1 -> its walk
        self._space_cache = {}   # spaces.memo

    def renamed(self, name):
        """This algebra under another name, sharing every memo with it."""
        view = object.__new__(ColorAlgebra)
        view.__dict__.update(self.__dict__)
        view.name = name
        return view

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
        """alpha^k from the twist record (_twist_walk); k < 0 inverts alpha."""
        j, walk = _twist_walk(self, abs(k), 1 if k >= 0 else -1)
        return walk["powers"][j][0]

    def alpha_columns(self, k):
        """The sparse columns of alpha^k, kept with it (alpha_power); read only."""
        j, walk = _twist_walk(self, abs(k), 1 if k >= 0 else -1)
        return walk["powers"][j][1]

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
                out[j] = rational(sign * c)
        out = tuple(out)
        self._bracket_memo[indices] = out
        return out

    def sparse_bracket(self, args):
        """Multilinear bracket of arity-many sparse vectors [(i, c), ...]
        (see linalg.support), as a sparse vector.

        The one evaluation path of every bracket: each ordered index tuple
        of the arguments' supports is looked up in a memo of the sparse
        value of its basis bracket, so a zero coefficient or a vanishing
        basis bracket costs no arithmetic, and neither does a unit
        coefficient: F1 is the int 1, which CPython keeps as one shared
        object, so the identity test skips it (a 1 that is another object
        is only multiplied in).
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
                for r, x in term:   # linalg.accumulate, inline
                    if coeff is not None:
                        x = coeff * x
                    got = acc.get(r)
                    acc[r] = x if got is None else got + x
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


def _twist_walk(A, m, step=1):
    """(j, walk): the least j >= 0 with a^j = a^m, read off the first
    repeat by its period (twist_class), for m >= 0 and a = alpha^step; and
    the twist record, the walk of a^0, a^1, ... kept on the algebra up to m
    or to the first repeat: {"base": a, "powers": [(a^k, its sparse
    columns)] and "seen": {a^k data: k} of the distinct powers, "repeat":
    (j, K) once a^K = a^j is found}.  A singular twist has no alpha^-1
    (InvertibilityError); MAX_TWIST_POWERS bounds the walk (DomainError)."""
    walk = A._twists.get(step)
    if walk is None:
        base = A.alpha if step == 1 else A.alpha.inverse()
        if base is None:
            raise InvertibilityError(
                f"twist of {A.name} is singular; negative powers undefined")
        walk = A._twists[step] = {"base": base, "powers": [], "seen": {},
                                  "repeat": None}
    powers, seen = walk["powers"], walk["seen"]
    while walk["repeat"] is None and len(powers) <= m:
        k = len(powers)
        if k == MAX_TWIST_POWERS:
            raise DomainError(f"twist power {step * m} refused: the first "
                              f"{k} powers of the twist of {A.name} repeat none")
        power = powers[-1][0] * walk["base"] if powers else Matrix.identity(A.dim)
        if power.data in seen:
            walk["repeat"] = (seen[power.data], k)
        else:
            seen[power.data] = k
            powers.append((power, [support(c) for c in zip(*power.data)]))
    j, K = walk["repeat"] or (0, m + 1)   # no repeat: m is its own class
    return (m if m < K else j + (m - j) % (K - j)), walk


def twist_class(algebra, k):
    """The least j >= 0 with alpha^j = alpha^k, for k >= 0; a negative k is
    its own class.

    Let alpha^K = alpha^j with j < K be the first repeated power
    (distinct_twists).  The powers below K are distinct, and
    alpha^(j+m) = alpha^(K+m) for every m >= 0, so from j on the powers
    repeat with period K - j: for k >= K the class is j + (k - j) mod
    (K - j).  So no power beyond the first repeat is computed, whatever k
    is.
    """
    return k if k < 0 else _twist_walk(algebra, k)[0]


def distinct_twists(algebra, k_max):
    """The k in [0, k_max] whose twist power alpha^k is new; verdicts and
    spaces depend on k only through alpha^k.

    The list ends at the first repeated power.  If alpha^j = alpha^k with
    j < k, then alpha^(j+m) = alpha^(k+m) for every m >= 0, so each power
    from k on equals one with a smaller exponent, and by induction one in
    [j, k): none of them is new.  Every power before the first repeat is
    new.  So a twist whose powers repeat (of finite order, or nilpotent)
    costs its number of distinct powers, whatever k_max is, and one whose
    powers never repeat one power and one lookup per k (_twist_walk).
    """
    found = len(_twist_walk(algebra, k_max)[1]["powers"])
    return list(range(min(k_max + 1, found)))


def distinct_twist_pairs(algebra, k_max):
    """The (k, s) with k + s <= k_max whose powers (alpha^k, alpha^s,
    alpha^(k+s)) are new, in lexicographic order.

    Since alpha^(k+s) = alpha^k alpha^s, the triple repeats an earlier one
    exactly when alpha^k or alpha^s repeats an earlier power: if
    alpha^k = alpha^k' for some k' < k, the pair (k', s) comes first with the
    same powers, and likewise for s; if neither repeats, an earlier pair
    with the same powers would need k' >= k and s' >= s, so it is not
    earlier.  So the pairs are
    those of distinct twists.  For the same reason a shift pair
    (alpha^k, alpha^(k+1)) is new exactly when alpha^k is.
    """
    ks = distinct_twists(algebra, k_max)
    return [(k, s) for k in ks for s in ks if k + s <= k_max]


def slot_brackets(algebra, ts, acols, dcols, tail):
    """For every slot q of ts: [acols[t_1], .., dcols[t_q], .., acols[t_m], *tail],
    paired with the degree |t_1| + .. + |t_(q-1)| of the leaves before it.
    Columns, tail and values are sparse vectors.  The one slot expansion of
    the Jacobi sweep, the oracle and delta_D; the solver keeps its own."""
    A = algebra
    out = []
    prefix = A.group.zero()
    for q, t in enumerate(ts):
        args = [acols[i] for i in ts] + tail
        args[q] = dcols[t]
        out.append((prefix, A.sparse_bracket(args)))
        prefix = A.group.add(prefix, A.degrees[t])
    return out


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

    The bicharacter comes first (validate_bicharacter): when it is invalid
    no Koszul sign below is defined, and its report is returned alone.
    Then come grading compatibility of the stored constants, the
    repeated-index sign rule and evenness of the twist, whose failures are
    likewise returned alone, and last multiplicativity of the twist and the
    full twisted n-ary Jacobi identity over all basis argument tuples.

    The Jacobi identity is swept once, on live (n-1)-tuples xs and live
    n-tuples ys (live_tuples).  The report lists every failing ordered
    pair, in lexicographic order: each failing live pair is expanded into
    its distinct orderings, so a passing algebra never pays for them.
    Proof that the live pairs and their orderings are the ordered sweep.
    Every bracket below has homogeneous arguments and is color-skew
    (normalize_tuple), since the bicharacter, grading and evenness checks
    have passed.  With a = alpha, X = |xs| and Y_i the degree of
    y_1, .., y_(i-1), the identity asks that

        J(xs; ys) = [a xs, [ys]] - sum_i eps(X, Y_i) [a y_1, .., [xs, y_i], .., a y_n]

    vanish; J is multilinear in its 2n - 1 arguments.

    - J is color-skew in xs: in every term xs are adjacent arguments of one
      bracket, [a xs, .] or [xs, y_i], and the signs see xs only through X.
    - J is color-skew in ys: swapping y_p and y_(p+1), of degrees g and h,
      multiplies [ys] and every term i != p, p + 1 by -eps(h, g), whose
      sign is unchanged.  The terms p and p + 1 trade places: with P = Y_p,
      eps(X, P + h) [.., a y_(p+1), [xs, y_p], ..]
      = -eps(X, P + h) eps(h, X + g) [.., [xs, y_p], a y_(p+1), ..]
      = -eps(h, g) eps(X, P) [.., [xs, y_p], a y_(p+1), ..],
      by bimultiplicativity and eps(X, h) eps(h, X) = 1, and likewise for
      the other one.

    So J vanishes when xs or ys repeats an index of degree g with
    eps(g, g) = 1, since swapping the two copies gives J = -J; and on an
    ordering (xp, yp) of a live pair (xs, ys) it is s_x s_y J(xs; ys),
    with the signs normalize_tuple gives xp and yp.  The reported sides
    scale alike: lhs = [a xs, [ys]] is a bracket of homogeneous arguments,
    a being even, so it is color-skew in xs and in ys with the same signs,
    and rhs = lhs - J.  So the failing ordered
    pairs are the orderings of the failing live pairs, with these values,
    and sorting them by witness gives the lexicographic order of the
    ordered sweep, which runs xs-major.

    Multiplicativity of the twist, alpha [t] = [alpha e_t1, .., alpha e_tn],
    is checked on the live n-tuples, a subsequence of the sorted ones.  A
    dead t repeats an index i of degree g with eps(g, g) = 1 in adjacent
    slots.  Its left side is alpha(0) = 0; on its right side alpha e_i,
    homogeneous since evenness is checked first, fills both slots, and
    color-skewness makes the bracket vanish.  So a dead tuple never fails,
    and the failures are the sorted sweep's, in order.
    """
    A = algebra
    report = validate_bicharacter(A.eps)
    if not report.ok:
        return report

    for t in A.stored_tuples():
        total = A.degree_sum(A.degrees[i] for i in t)
        for j, c in A.constants[t].items():
            if A.degrees[j] != total:
                report.add("grading", witness=(t, j), expected=total,
                           actual=A.degrees[j])
        if normalize_tuple(t, A.degrees, A.eps) is None:   # t is sorted
            report.add("repeated-argument", witness=t,
                       expected="zero value", actual=A.constants[t])

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
    acols = A.alpha_columns(1)
    live = live_tuples(A.degrees, A.eps, n)
    for t in live:
        lhs = A.alpha.apply(A.bracket_basis(t))
        rhs = dense(A.sparse_bracket([acols[i] for i in t]), dim)
        if lhs != rhs:
            report.add("twist-multiplicative", witness=t, expected=lhs, actual=rhs)

    def orbit(ts):
        """Each distinct ordering of ts with its sign from normalize_tuple."""
        return [(tp, normalize_tuple(tp, A.degrees, A.eps)[1])
                for tp in set(permutations(ts))]

    failures = []
    ydata = [(ys, support(A.bracket_basis(ys))) for ys in live]
    for xs in live_tuples(A.degrees, A.eps, n - 1):
        xdeg = A.degree_sum(A.degrees[i] for i in xs)
        xac = [acols[i] for i in xs]
        # [xs, y] for every basis vector y, the inner value of each slot
        inners = [support(A.bracket_basis(xs + (y,))) for y in range(dim)]
        for ys, inner in ydata:
            lhs = dense(A.sparse_bracket(xac + [inner]), dim)
            rhs = {}
            for prefix, term in slot_brackets(A, ys, acols, inners, []):
                sign = A.eps.value(xdeg, prefix)
                accumulate(rhs, term, None if sign == 1 else sign)
            rhs = dense(rhs.items(), dim)
            if lhs != rhs:
                yorbit = orbit(ys)
                failures += [((xp, yp), sx * sy, rhs, lhs)
                             for xp, sx in orbit(xs) for yp, sy in yorbit]
    failures.sort(key=lambda f: f[0])
    for witness, s, expected, actual in failures:
        report.add("jacobi", witness=witness,
                   expected=[rational(s * c) for c in expected],
                   actual=[rational(s * c) for c in actual])
    return report
