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

Each check first sweeps live tuples (algebra.live_tuples) in place of the
sets above, for tder live pairs in place of ordered ones, and sweeps the
full sets only when a live pair fails, to report the full sweep's first
witness (algebra.reduced_sweep).  The proof below is the oracle's own: it
holds for every linear D, solved or not, and does not rest on the
solver's proof in live_tuples.

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
"""

from itertools import combinations_with_replacement, product

from .algebra import live_tuples, reduced_sweep, skew_premises, slot_brackets
from .errors import ArityError
from .linalg import F1, accumulate, support


def _leibniz(algebra, D, k, live, full, witness):
    """(ok, witness): twist commutation, then the identity on every pair
    (xs, ys) of the tuple sets full = (xtuples, ytuples), swept on the live
    sets first when skew_premises holds; witness(xs, ys) names the first
    failing pair of the full sets.  The full sets may be iterators: only a
    failing live sweep, or a failed premise, draws from them."""
    A = algebra
    if D.matrix * A.alpha != A.alpha * D.matrix:
        return False, ("twist-commute",)
    d = D.degree
    acols = A.alpha_columns(k)
    dcols = [support(D.matrix.column(i)) for i in range(A.dim)]
    inner = {}

    def failures(xtuples, ytuples):
        nested = xtuples != [()]   # only der has the x-set [()], a list
        ytuples = list(ytuples)
        for xs in xtuples:
            xargs = [acols[i] for i in xs]
            xunits = [[(i, F1)] for i in xs]
            xdeg = A.degree_sum(A.degrees[i] for i in xs)
            for ys in ytuples:
                if ys not in inner:
                    inner[ys] = (support(A.bracket_basis(ys)),
                                 A.sparse_bracket([acols[i] for i in ys])
                                 if nested else None,
                                 slot_brackets(A, ys, acols, dcols, []))
                value, value_k, yslots = inner[ys]
                terms = yslots
                if nested:
                    value = A.sparse_bracket(xunits + [value])
                    terms = slot_brackets(A, xs, acols, dcols, [value_k]) + [
                        (A.group.add(xdeg, p), A.sparse_bracket(xargs + [v]))
                        for p, v in yslots]
                # rhs - D(value), accumulated in one dict
                diff = {}
                for prefix, term in terms:
                    sign = A.eps.value(d, prefix)
                    accumulate(diff, term, None if sign == 1 else sign)
                for i, c in value:
                    accumulate(diff, dcols[i], -c)
                if any(diff.values()):
                    yield witness(xs, ys)

    reduced = live if skew_premises(A, D, k) else None
    first = next(reduced_sweep(failures, reduced, full), None)
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
