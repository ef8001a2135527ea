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
bases and on random maps is part of the test contract.  For the same reason
they sweep every tuple of the sets above on purpose, also the repeated ones
the solver drops as carrying only zero rows (spaces.live_tuples), so the
oracle does not rest on that proof.
"""

from itertools import combinations_with_replacement, product

from .errors import ArityError
from .linalg import F1, accumulate, support


def slot_brackets(algebra, ts, acols, dcols, tail):
    """For every slot q of ts: [acols[t_1], .., dcols[t_q], .., acols[t_m], *tail],
    paired with the degree |t_1| + .. + |t_(q-1)| of the leaves before it.
    Columns, tail and values are sparse vectors."""
    A = algebra
    out = []
    prefix = A.group.zero()
    for q, t in enumerate(ts):
        args = [acols[i] for i in ts] + tail
        args[q] = dcols[t]
        out.append((prefix, A.sparse_bracket(args)))
        prefix = A.group.add(prefix, A.degrees[t])
    return out


def _leibniz(algebra, D, k, xtuples, ytuples, witness):
    """(ok, witness): twist commutation, then the identity on every pair
    (xs, ys); witness(xs, ys) names the first failing pair."""
    A = algebra
    if D.matrix * A.alpha != A.alpha * D.matrix:
        return False, ("twist-commute",)
    d = D.degree
    ak = A.alpha_power(k)
    acols = [support(ak.column(i)) for i in range(A.dim)]
    dcols = [support(D.matrix.column(i)) for i in range(A.dim)]
    nested = xtuples != [()]
    inner = {}
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
                return False, witness(xs, ys)
    return True, None


def _sorted_tuples(algebra, m):
    return list(combinations_with_replacement(range(algebra.dim), m))


def is_derivation(algebra, D, k):
    """Twisted Leibniz rule on every non-decreasing basis tuple.

    Returns (ok, witness); witness names the failing check or tuple.
    """
    return _leibniz(algebra, D, k, [()], _sorted_tuples(algebra, algebra.arity),
                    lambda xs, ys: ("tuple", ys))


def is_double_derivation(algebra, D, k):
    """Leibniz-type rule on nested brackets, over all sorted tuple pairs."""
    n = algebra.arity
    if n < 3:
        raise ArityError("double derivations need arity >= 3")
    return _leibniz(algebra, D, k, _sorted_tuples(algebra, n - 1),
                    _sorted_tuples(algebra, n),
                    lambda xs, ys: ("tuple-pair", xs, ys))


def is_triple_derivation(algebra, D, k):
    """Nested-bracket rule for binary algebras, over all basis triples."""
    if algebra.arity != 2:
        raise ArityError("triple derivations are defined for arity 2")
    return _leibniz(algebra, D, k, [(x,) for x in range(algebra.dim)],
                    list(product(range(algebra.dim), repeat=2)),
                    lambda xs, ys: ("triple", xs + ys))
