"""The induced double derivation delta_D on centerless perfect algebras.

Every element of a perfect algebra decomposes as a combination of basis
bracket values; delta_D replaces one slot of each bracket by D, with the
usual Koszul prefix signs.  On centerless algebras the value is independent
of the chosen decomposition, which the well-definedness verifier certifies
by applying the formula to a kernel basis of the decomposition matrix.
"""

from itertools import product

from . import oracle
from .algebra import (HomMap, distinct_twist_pairs, distinct_twists,
                      reduced_sweep, skew_premises, slot_brackets, twist_class)
from .errors import DomainError
from .linalg import (F0, Matrix, accumulate, dense, nullspace,
                     nullspace_of_columns, solve_particular, support)
from .report import ValidationReport
from .spaces import (GradedMapSpace, MapBlock, ad_map, color_commutator,
                     double_derivation_space, inner_generators, memo,
                     require, union_space)


def _decomposition(algebra):
    """(tuples, matrix, solutions, kernel), computed once per algebra: the
    nonzero basis-tuple bracket values in lexicographic tuple order and the
    matrix with them as columns, the matrix whose column q is a particular
    solution of matrix x = e_q (None when some basis vector lies outside
    the derived subalgebra), and a kernel basis of the matrix."""
    A = algebra

    def build():
        tuples = []
        cols = []
        for t in A.all_tuples():
            v = A.bracket_basis(t)
            if any(v):
                tuples.append(t)
                cols.append(v)
        matrix = Matrix.from_columns(cols, A.dim)
        sols = [solve_particular(matrix, A.basis_vector(q))
                for q in range(A.dim)]
        solutions = (None if None in sols
                     else Matrix.from_columns(sols, len(tuples)))
        return tuples, matrix, solutions, nullspace(matrix)
    return memo(A, ("decomposition",), build)


def _tuple_delta_image(algebra, t, D, acols, dcols):
    """One decomposition tuple's contribution: the sum of its slot terms,
    each times its Koszul prefix sign; acols and dcols are the sparse
    columns of alpha^k and of D."""
    A = algebra
    acc = {}
    for prefix, term in slot_brackets(A, t, acols, dcols, []):
        accumulate(acc, term, A.eps.value(D.degree, prefix))
    return dense(acc.items(), A.dim)


def _images(algebra, D, k):
    """The matrix whose columns are the decomposition tuples' images."""
    tuples = _decomposition(algebra)[0]
    acols = algebra.alpha_columns(k)
    dcols = [support(D.matrix.column(i)) for i in range(algebra.dim)]
    images = [_tuple_delta_image(algebra, t, D, acols, dcols)
              for t in tuples]
    return Matrix.from_columns(images, algebra.dim)


def delta_of(algebra, D, k):
    """The induced map delta_D for a double derivation D at twist power k.

    The algebra must have arity >= 3 and be perfect and centerless
    (HypothesisError otherwise), and D must lie in DDer^k, the solved
    double-derivation space at twist power k (DomainError otherwise).
    """
    A = algebra
    require(A, k, "arity", "perfect", "centerless")
    if not double_derivation_space(A, k).contains(D):
        raise DomainError("input map is not a double derivation")
    # A is perfect, so every basis vector decomposes
    solutions = _decomposition(A)[2]
    return HomMap(D.degree, _images(A, D, k) * solutions)


def _basis_deltas(algebra, k):
    """[(D, delta_D)] for the basis maps D of DDer^k, computed once per
    twist class of k."""
    A = algebra
    return memo(A, ("delta", twist_class(A, k)), lambda: [
        (D, delta_of(A, D, k)) for D in double_derivation_space(A, k).maps()])


def verify_delta_well_defined(algebra, D, k):
    """Apply the slot-replacement formula to every kernel vector of the
    decomposition matrix; all images must vanish."""
    A = algebra
    require(A, k, "arity", "perfect", "centerless")
    report = ValidationReport()
    kernel = _decomposition(A)[3]
    images = _images(A, D, k)
    for idx, kv in enumerate(kernel):
        total = images.apply(kv)
        if any(x != 0 for x in total):
            report.add("delta-well-defined", witness=("kernel-vector", idx),
                       expected=[F0] * A.dim, actual=total)
    report.details["kernel_dimension"] = len(kernel)
    return report


def verify_delta_well_defined_all(algebra, k_max):
    """verify_delta_well_defined on every double-derivation basis map, once
    per distinct twist power alpha^k for k in [0, k_max]."""
    A = algebra
    require(A, k_max, "arity", "perfect", "centerless")
    report = ValidationReport()
    for k in distinct_twists(A, k_max):
        for D in double_derivation_space(A, k).maps():
            report.merge(verify_delta_well_defined(A, D, k))
    return report


def _slot_failures(algebra, E, k, idx, tuples):
    """Per tuple t and slot s, in order, where E[t] differs from the signed
    slot term of s (_tuple_delta_image): (witness, E[t], slot term)."""
    A = algebra
    acols = A.alpha_columns(k)
    dcols = [support(E.matrix.column(i)) for i in range(A.dim)]
    for t in tuples:
        lhs = E.apply(A.bracket_basis(t))
        slots = slot_brackets(A, t, acols, dcols, [])
        for slot, (prefix, term) in enumerate(slots):
            sign = A.eps.value(E.degree, prefix)
            rhs = dense([(r, sign * c) for r, c in term], A.dim)
            if lhs != rhs:
                yield (k, idx, slot, t), lhs, rhs


def verify_delta_residual_laws(algebra, k_max):
    """Laws of the residual map E = D - delta_D for double derivations D:
    E satisfies the single-slot replacement identity in every slot, and
    delta_E = -n E exactly.

    The slot identity is a law on all ordered n-tuples; details.checks
    counts it so, maps * (dim^n * n + 1).  It is swept on the sorted tuples,
    repeats included, and on the ordered ones only when a sorted tuple
    fails, whose failures are the ones reported (algebra.reduced_sweep).
    Proof that a sorted pass is a full pass, used only under
    algebra.skew_premises for E and alpha^k (a below), so that brackets are
    color-skew (algebra.normalize_tuple).  Let d = |E| and
    S_s(t) = E[t] - eps(d, |t_1| + .. + |t_(s-1)|) [a t_1, .., E t_s, .., a t_n].
    Swap t_p and t_(p+1), of degrees g, h, into t', and let P be the degree
    before slot p.  E[t'] and the terms of the slots s != p, p + 1 gain
    -eps(h, g), so S_s(t') = -eps(h, g) S_s(t).  The terms of slots p and
    p + 1 trade places:
    eps(d, P + h) [.., a t_(p+1), E t_p, ..]
    = -eps(d, P + h) eps(h, d + g) [.., E t_p, a t_(p+1), ..]
    = -eps(h, g) eps(d, P) [.., E t_p, a t_(p+1), ..],
    so S_(p+1)(t') = -eps(h, g) S_p(t), and likewise
    S_p(t') = -eps(h, g) S_(p+1)(t).  So the slot residuals of an ordered
    tuple are nonzero multiples of those of the sorted tuple.  A repeated
    tuple stays: its two slot terms cancel in the sum (live_tuples) but
    not one by one, and the identity is checked slot by slot.
    """
    A = algebra
    require(A, k_max, "arity", "perfect", "centerless")
    report = ValidationReport()
    n = A.arity
    checks = 0
    for k in distinct_twists(A, k_max):
        for idx, (D, delta) in enumerate(_basis_deltas(A, k)):
            E = HomMap(D.degree, D.matrix - delta.matrix)
            reduced = (A.all_tuples(),) if skew_premises(A, E, k) else None
            full = (product(range(A.dim), repeat=n),)
            for witness, expected, actual in reduced_sweep(
                    lambda ts: _slot_failures(A, E, k, idx, ts), reduced, full):
                report.add("residual-slot-identity", witness=witness,
                           expected=expected, actual=actual)
            checks += A.dim ** n * n
            delta_e = delta_of(A, E, k)
            checks += 1
            if delta_e.matrix != E.matrix.scale(-n):
                report.add("residual-delta-scaling", witness=(k, idx),
                           expected=f"-{n} * residual", actual="different matrix")
    report.details["checks"] = checks
    return report


def verify_delta_derivation_criterion(algebra, k_max):
    """delta preserves and detects derivations: delta_D is a derivation iff
    D is, with delta_D = D exactly on derivations; and commutators with
    inner generators expand by the slot formula with delta_D in slot one."""
    A = algebra
    require(A, k_max, "arity", "perfect", "centerless")
    report = ValidationReport()
    n = A.arity
    ks = distinct_twists(A, k_max)
    for k in ks:
        for idx, (D, delta) in enumerate(_basis_deltas(A, k)):
            d_is_der = oracle.is_derivation(A, D, k)[0]
            delta_is_der = oracle.is_derivation(A, delta, k)[0]
            if d_is_der != delta_is_der:
                report.add("delta-derivation-equivalence", witness=(k, idx),
                           expected="both or neither derivations",
                           actual=(d_is_der, delta_is_der))
            if d_is_der and delta.matrix != D.matrix:
                report.add("delta-fixes-derivations", witness=(k, idx),
                           expected="delta_D = D", actual="different matrix")
    gens = {s: inner_generators(A, s) for s in ks}
    for k, s in distinct_twist_pairs(A, k_max):
        for idx, (D, delta) in enumerate(_basis_deltas(A, k)):
            d = D.degree
            for gidx, (xs, degs, inner) in enumerate(gens[s]):
                lhs = color_commutator(D, inner, A.eps).matrix
                first = ad_map(A, [delta.apply(xs[0])] + xs[1:], k + s)
                rhs = first.matrix
                prefix = A.group.zero()
                for j in range(1, n - 1):
                    prefix = A.group.add(prefix, degs[j - 1])
                    sign = A.eps.value(d, prefix)
                    args = xs[:j] + [D.apply(xs[j])] + xs[j + 1:]
                    rhs = rhs + ad_map(A, args, k + s).matrix.scale(sign)
                if lhs != rhs:
                    report.add("delta-inner-commutator",
                               witness=(k, s, idx, gidx),
                               expected="slot expansion", actual="mismatch")
    return report


def verify_delta_homomorphism(algebra, k_max):
    """delta turns color commutators of double derivations into color
    commutators of their images: delta_[D1,D2] = [delta_D1, delta_D2]."""
    A = algebra
    require(A, k_max, "arity", "perfect", "centerless")
    report = ValidationReport()
    checks = 0
    for k, s in distinct_twist_pairs(A, k_max):
        for i, (D1, delta1) in enumerate(_basis_deltas(A, k)):
            for j, (D2, delta2) in enumerate(_basis_deltas(A, s)):
                C = color_commutator(D1, D2, A.eps)
                lhs = delta_of(A, C, k + s).matrix
                rhs = color_commutator(delta1, delta2, A.eps).matrix
                checks += 1
                if lhs != rhs:
                    report.add("delta-commutator-homomorphism",
                               witness=(k, s, i, j),
                               expected="equal matrices", actual="mismatch")
    report.details["checks"] = checks
    return report


def inner_centralizer_in_double_derivations(algebra, k_max):
    """The subspace of double derivations commuting with every inner map.

    For perfect algebras with nonzero inner space this is expected to be
    zero.

    Inner and DDer spaces depend on k only through alpha^k, so, as in
    union_space, there is one block per degree and distinct twist power
    alpha^k with k <= k_max; a repeated power would repeat its blocks.
    """
    A = algebra
    require(A, k_max, "arity", "perfect")
    inner_maps = union_space(A, "inner", k_max).maps()
    zero = Matrix.zeros(A.dim, A.dim)
    blocks = []
    for k in distinct_twists(A, k_max):
        for block in double_derivation_space(A, k).blocks:
            basis = block.basis
            kern = nullspace_of_columns(
                [[c for I in inner_maps
                  for c in color_commutator(B, I, A.eps).matrix.flatten()]
                 for B in basis], len(basis))
            if kern:
                blocks.append(MapBlock(k, block.degree, [
                    HomMap(block.degree, sum((B.matrix.scale(c)
                                              for c, B in zip(v, basis)), zero))
                    for v in kern]))
    return GradedMapSpace(A, "centralizer", blocks)


def verify_inner_centralizer_trivial(algebra, k_max):
    """The double derivations commuting with every inner map form the zero
    space (perfect algebras with nonzero inner space)."""
    require(algebra, k_max, "arity", "perfect", "inner")
    space = inner_centralizer_in_double_derivations(algebra, k_max)
    report = ValidationReport()
    if space.dimension() > 0:
        report.add("inner-centralizer-trivial",
                   witness=tuple((b.k, repr(b.degree), len(b.basis))
                                 for b in space.blocks),
                   expected="zero space",
                   actual=f"dimension {space.dimension()}")
    report.details["dimension"] = space.dimension()
    return report
