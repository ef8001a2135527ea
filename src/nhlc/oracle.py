"""Pointwise checkers for the defining identities of map spaces.

Derivations, double derivations and triple derivations all satisfy one
identity.  For a map D of degree d, twist power k and a multilinear map M,

    D(M(xs, ys)) = sum over the leaves t of M of
                   eps(d, degree of the leaves before t) * M(..., D t, ...)

where every leaf other than t is replaced by alpha^k t.  M(xs, ys) is the
bracket [ys] when the outer tuple set is [()], and the nested bracket
[xs, [ys]] otherwise; the leaves are xs followed by ys.  The kinds differ
only in their tuple sets (xtuples, ytuples):

- der:  ([()], sorted n-tuples);
- dder: (sorted (n-1)-tuples, sorted n-tuples);
- tder: (singletons, all ordered pairs), for binary algebras.

Every kind also requires D to commute with the twist.  The checkers
evaluate both sides by direct bracket evaluation on explicit vectors.  They
deliberately share no constraint-assembly code with the nullspace solvers
in spaces/triple, so the two routes cross-check each other; agreement on
bases and on random maps is part of the test contract.

Each side is evaluated once per linear map, not once per pair: the bracket
is linear in its last argument, so for each outer tuple xs the maps
w -> D[xs, w], w -> [alpha^k xs, w] and the signed sum of the x-slot terms
are kept as tables of their columns at the basis vectors, filled on first
use, and the signed y-slot terms of ys are summed into one vector once
per ys, which each xs scales by eps(d, |xs|) (proof in _leibniz).  The
residual of every pair is the same exact vector as the direct
evaluation's, so the verdicts, the witnesses and the order of the sweeps
are unchanged.

Each check sweeps once.  It sweeps live tuples (algebra.live_tuples) in
place of the sets above, for tder live pairs in place of ordered ones,
and the full sets only when a premise below fails; its verdict and its
witness are those of the full sweep.  The proof below is the oracle's
own: it holds for every linear D, solved or not, and does not rest on
the solver's proof in live_tuples.

Proof that a live pass is a full pass.  The reduction is used only when
eps is a valid bicharacter, D is homogeneous of its stated degree d and
alpha^k is even (algebra.skew_premises); then every bracket below has
homogeneous arguments and is color-skew (algebra.normalize_tuple), and a
stands for alpha^k.  Let R(xs, ys) be
D(M(xs, ys)) minus the sum of the slot terms; it is multilinear in the
leaves.  M is color-skew in xs and in ys, each being adjacent arguments of
one bracket.  Swap adjacent leaves u, v of one of them, of degrees g, h:

- D(M) and every slot term with D on another leaf gain -eps(h, g); the
  prefix sign of that leaf is unchanged;
- the slot terms with D on u and on v trade places.  With P the degree of
  the leaves before u, the swapped term with D on u is
  eps(d, P + h) [.., a v, D u, ..] = -eps(d, P + h) eps(h, d + g) [.., D u, a v, ..]
  = -eps(h, g) eps(d, P) [.., D u, a v, ..]
  by bimultiplicativity and eps(d, h) eps(h, d) = 1, -eps(h, g) times the
  unswapped term; likewise for D on v.

So R is color-skew in xs and in ys: on every ordered pair it is a nonzero
multiple of R on the sorted pair, and it vanishes when xs or ys repeats an
index of degree g with eps(g, g) = 1, since swapping the two copies gives
R = -R.  When a premise fails, the full sets are swept.

Proof that the live sweep's first failure is the full sweep's.  Both
sweep xs-major, each set in its own order, and R vanishes unless xs and ys
are live.  For der and dder the live sets are subsequences of the sorted
ones, in the same order, so the first failing pair is the same.  For tder,
R(x, z, y) = -eps(|z|, |y|) R(x, y, z): the least failing ordered pair
(y, z) for x has y <= z, else (z, y) fails before it, so it is live and
the first failing live pair, the live pairs being in product order too.
"""

from itertools import combinations_with_replacement, product

from .algebra import live_tuples, skew_premises, slot_sum
from .errors import ArityError
from .linalg import F1, accumulate, support


def _leibniz(algebra, D, k, live, full, witness):
    """(ok, witness): twist commutation, then the identity on every pair
    (xs, ys) of the tuple sets full = (xtuples, ytuples), swept once: on
    the live sets in their place when skew_premises holds.  witness(xs, ys)
    names the first failing pair of that sweep, which is the first of the
    full sets (proof in the module docstring).  The full sets may be
    iterators: only a failed premise draws from them.

    The residual of a pair is read off column tables.  Write
    M(xs, w) = [xs, w] for the last argument w (M((), w) = w), a = alpha^k,
    and P_q for the degree of the leaves before slot q.  The residual is

        X_xs([a ys]) + eps(d, |xs|) Ad_xs(u(ys)) - D M(xs, [ys]),

    with X_xs(w) = sum over the slots q of xs of eps(d, P_q) [.., D x_q, .., w],
    Ad_xs(w) = M(a xs, w), and u(ys) = sum over the slots q of ys of
    eps(d, P_q) [a y_1, .., D y_q, .., a y_n] (algebra.slot_sum).  It is the
    sum of the identity's terms regrouped: each y-slot term is
    eps(d, |xs| + P_q) [a xs, v_q], the bracket is linear in its last
    argument, and eps(d, |xs| + P_q) = eps(d, |xs|) eps(d, P_q) by
    bimultiplicativity.  That is exact on the free coordinates of the
    degrees, whose exponents add.  A torsion coordinate of order m is
    reduced mod m, so it is exact there whenever the bicharacter-torsion
    check of validate_bicharacter passes: every entry of that row and
    column then has m-th power 1, and its power depends on the exponent
    only mod m.  Every CLI path loads an algebra with that check.  So u is
    summed once per ys, and no slot term is signed here.  X_xs, Ad_xs and
    D M(xs, .) are linear maps, so each is applied as the combination of
    its columns at the e_r in the support of its argument, computed once
    per xs and only for the r that occur.  All of this is exact rational
    arithmetic on the same multilinear sparse_bracket, so each pair's
    residual is the same vector as that of the 2n brackets it replaces, on
    the live and on the full sweep: the same pairs fail, in the same
    order, with the same witnesses.
    """
    A = algebra
    if D.matrix * A.alpha != A.alpha * D.matrix:
        return False, ("twist-commute",)
    d = D.degree
    acols = A.alpha_columns(k)
    dcols = [support(D.matrix.column(i)) for i in range(A.dim)]
    inner = {}   # ys -> ([ys], [a ys], u(ys))

    def column(xs, table, r):
        # the column at e_r of D M(xs, .) (table 0), X_xs (1) or Ad_xs (2)
        unit = [(r, F1)]
        if table == 2:
            return A.sparse_bracket([acols[i] for i in xs] + [unit]) if xs else unit
        if table == 1:
            return list(slot_sum(A, d, xs, A.degrees, acols, dcols, [unit]).items())
        if not xs:
            return dcols[r]
        acc = {}
        for i, c in A.sparse_bracket([[(i, F1)] for i in xs] + [unit]):
            accumulate(acc, dcols[i], c)
        return list(acc.items())

    def failures(xtuples, ytuples):
        nested = xtuples != [()]   # only der has the x-set [()], a list
        ytuples = list(ytuples)
        for xs in xtuples:
            xsign = A.eps.value(d, A.degree_sum(A.degrees[i] for i in xs))
            cols = {}   # (table, r) -> column(xs, table, r)
            for ys in ytuples:
                if ys not in inner:
                    usum = slot_sum(A, d, ys, A.degrees, acols, dcols, [])
                    inner[ys] = (support(A.bracket_basis(ys)),
                                 A.sparse_bracket([acols[i] for i in ys])
                                 if nested else [],
                                 [(r, c) for r, c in usum.items() if c])
                value, value_k, usum = inner[ys]
                diff = {}
                for table, w, coeff in ((1, value_k, 1), (2, usum, xsign),
                                        (0, value, -1)):
                    for r, c in w:
                        col = cols.get((table, r))
                        if col is None:
                            col = cols[table, r] = column(xs, table, r)
                        accumulate(diff, col, coeff * c)
                if any(diff.values()):
                    yield witness(xs, ys)

    first = next(failures(*(live if skew_premises(A, D, k) else full)), None)
    return first is None, first


def _sorted_tuples(algebra, m):
    """(live m-tuples, an iterator over all sorted m-tuples)."""
    A = algebra
    return (live_tuples(A.degrees, A.eps, m),
            combinations_with_replacement(range(A.dim), m))


def is_derivation(algebra, D, k):
    """Twisted Leibniz rule on every non-decreasing basis tuple.

    Returns (ok, witness); witness names the failing check or tuple.
    """
    live, full = _sorted_tuples(algebra, algebra.arity)
    return _leibniz(algebra, D, k, ([()], live), ([()], full),
                    lambda xs, ys: ("tuple", ys))


def is_double_derivation(algebra, D, k):
    """Leibniz-type rule on nested brackets, over all sorted tuple pairs."""
    n = algebra.arity
    if n < 3:
        raise ArityError("double derivations need arity >= 3")
    xlive, xfull = _sorted_tuples(algebra, n - 1)
    ylive, yfull = _sorted_tuples(algebra, n)
    return _leibniz(algebra, D, k, (xlive, ylive), (xfull, yfull),
                    lambda xs, ys: ("tuple-pair", xs, ys))


def is_triple_derivation(algebra, D, k):
    """Nested-bracket rule for binary algebras, over all basis triples."""
    A = algebra
    if A.arity != 2:
        raise ArityError("triple derivations are defined for arity 2")
    singles = [(x,) for x in range(A.dim)]
    return _leibniz(A, D, k, (singles, live_tuples(A.degrees, A.eps, 2)),
                    (singles, product(range(A.dim), repeat=2)),
                    lambda xs, ys: ("triple", xs + ys))
