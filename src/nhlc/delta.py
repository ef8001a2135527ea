"""The induced double derivation delta_D on centerless perfect algebras.

Every element of a perfect algebra decomposes as a combination of basis
bracket values; delta_D replaces one slot of each bracket by D, with the
usual Koszul prefix signs.  On centerless algebras the value is independent
of the chosen decomposition, which the well-definedness verifier certifies
by applying the formula to a kernel basis of the decomposition matrix.
"""

from itertools import product

from .algebra import (HomMap, distinct_twist_pairs, distinct_twists,
                      live_tuples, slot_brackets, slot_sum, twist_class)
from .errors import DomainError
from .linalg import (F0, Matrix, coords_in_basis, dense, linear_combination,
                     nullspace, nullspace_of_columns, solve_particular,
                     support)
from .report import ValidationReport
from .spaces import (GradedMapSpace, MapBlock, _unflatten, color_commutator,
                     double_derivation_space, inner_generators, memo,
                     oracle_verdict, require, union_space)


def _decomposition(algebra):
    """(tuples, matrix, solutions, kernel), computed once per algebra: the
    nonzero basis-tuple bracket values in lexicographic tuple order and the
    matrix with them as columns, the matrix whose column q is a particular
    solution of matrix x = e_q (None when some basis vector lies outside
    the derived subalgebra), and a kernel basis of the matrix.  Only live
    tuples are read: a sorted tuple that is not live repeats an index of
    degree g with eps(g, g) = 1, and bracket_basis gives it zero
    (normalize_tuple)."""
    A = algebra

    def build():
        tuples = []
        cols = []
        for t in live_tuples(A.degrees, A.eps, A.arity):
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


def _images(algebra, D, k):
    """The matrix whose columns are the decomposition tuples' images: the
    signed slot formula (slot_sum) of each tuple t, with D in one slot and
    alpha^k in the others."""
    A = algebra
    acols = A.alpha_columns(k)
    dcols = [support(D.matrix.column(i)) for i in range(A.dim)]
    return Matrix.from_columns(
        [dense(slot_sum(A, D.degree, t, A.degrees, acols, dcols, []).items(),
               A.dim) for t in _decomposition(A)[0]], A.dim)


def _span_deltas(algebra, k, degree, span):
    """delta_R = _images(A, R, k) * solutions for each row R, as a map of
    the given degree, of span, the canonical span of DDer^k of that degree
    (GradedMapSpace.span); computed once per twist class of k and degree."""
    A = algebra

    def build():
        # delta_of has required A perfect, so every basis vector decomposes
        solutions = _decomposition(A)[2]
        return [_images(A, HomMap(degree, _unflatten(A, row)), k) * solutions
                for row in span]
    return memo(A, ("delta images", twist_class(A, k), degree), build)


def delta_of(algebra, D, k):
    """The induced map delta_D for a double derivation D at twist power k.

    The algebra must have arity >= 3 and be perfect and centerless
    (HypothesisError otherwise), and D must lie in DDer^k, the solved
    double-derivation space at twist power k (DomainError otherwise).

    delta_D is read off D's coordinates c in the canonical span R_1, ..,
    R_m of DDer^k of D's degree d: delta_D = sum of c_i delta_(R_i), with
    the delta_(R_i) of _span_deltas.  Proof: for a fixed degree d, the
    signs eps(d, prefix) of the slot formula do not depend on the map, and
    each slot term is a bracket with one column of the map in one slot, so
    _images(A, D, k) is linear in D's matrix; D = sum c_i R_i exactly, as
    the membership test finds no residue, and the product with solutions
    is linear too.  All of it is exact, so the matrix is the formula's.
    The sum is one accumulation per row over the kept sparse rows of the
    delta_(R_i) with c_i nonzero (linalg.linear_combination).
    """
    A = algebra
    require(A, k, "arity", "perfect", "centerless")
    span = double_derivation_space(A, k).span(D.degree)
    coords = coords_in_basis(span, D.matrix.flatten())
    if coords is None:
        raise DomainError("input map is not a double derivation")
    return HomMap(D.degree, linear_combination(
        coords, _span_deltas(A, k, D.degree, span), A.dim, A.dim))


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
    slot term of s (slot_brackets): (witness, E[t], slot term)."""
    A = algebra
    acols = A.alpha_columns(k)
    dcols = [support(E.matrix.column(i)) for i in range(A.dim)]
    for t in tuples:
        lhs = E.apply(A.bracket_basis(t))
        slots = slot_brackets(A, t, A.degrees, acols, dcols, [])
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
    counts it so, maps * (dim^n * n + 1).  It is swept on them all, in
    order, only for a nonzero E; a zero E passes it unswept.  Proof: for
    E = 0 both sides of every slot identity are zero.  And a nonzero E
    fails one of the two laws, so a passing input never pays for the
    sweep: if the slot identity holds, each decomposition tuple t has n
    signed slot terms equal to E[t], so their sum, the tuple's image in
    delta_E (_images), is n E[t]; every x of the perfect algebra is a
    combination of the [t], so delta_E = n E, and with delta_E = -n E
    that forces E = 0.
    """
    A = algebra
    require(A, k_max, "arity", "perfect", "centerless")
    report = ValidationReport()
    n = A.arity
    checks = 0
    for k in distinct_twists(A, k_max):
        for idx, (D, delta) in enumerate(_basis_deltas(A, k)):
            E = HomMap(D.degree, D.matrix - delta.matrix)
            if not E.matrix.is_zero():
                for witness, expected, actual in _slot_failures(
                        A, E, k, idx, product(range(A.dim), repeat=n)):
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
    inner generators expand by the slot formula with delta_D in slot one.
    D and delta_D each get the oracle's verdict (spaces.oracle_verdict).

    The expansion of [D, ad(x_1, .., x_(n-1))] at twist power k + s is read
    one column at a time: its column at e_q is the signed slot sum
    (algebra.slot_sum) over the generator's slots, with delta_D x_1 in slot
    one, D x_j in slot j, the generator's x's in the other slots and the
    sparse column alpha^(k+s) e_q last, each slot signed by the degrees of
    the x's before it.  Column by column, that is the signed sum of the ad
    maps of the slot formula.

    spaces.ad_map refuses an argument that is not homogeneous or not fixed
    by the twist.  No such argument reaches the sum on a valid input:

    - the x_j are vectors of the fixed graded basis;
    - D commutes with alpha, by the twist-commutation rows of its solve;
    - delta_D commutes with alpha on a perfect, centerless, multiplicative
      algebra: alpha commutes with D and alpha^k, so by multiplicativity
      alpha delta_D [t] is the slot formula on [alpha t_1, .., alpha t_n]
      = alpha [t], which well-definedness makes delta_D alpha [t];
    - D and delta_D are homogeneous of degree |D|.

    So D x_j and delta_D x_1 are homogeneous and fixed by the twist."""
    A = algebra
    require(A, k_max, "arity", "perfect", "centerless")
    report = ValidationReport()
    for k in distinct_twists(A, k_max):
        for idx, (D, delta) in enumerate(_basis_deltas(A, k)):
            d_is_der = oracle_verdict(A, "der", D, k)[0]
            delta_is_der = oracle_verdict(A, "der", delta, k)[0]
            if d_is_der != delta_is_der:
                report.add("delta-derivation-equivalence", witness=(k, idx),
                           expected="both or neither derivations",
                           actual=(d_is_der, delta_is_der))
            if d_is_der and delta.matrix != D.matrix:
                report.add("delta-fixes-derivations", witness=(k, idx),
                           expected="delta_D = D", actual="different matrix")
    slots = range(A.arity - 1)
    for k, s in distinct_twist_pairs(A, k_max):
        tails = A.alpha_columns(k + s)
        for idx, (D, delta) in enumerate(_basis_deltas(A, k)):
            for gidx, (xs, degs, inner) in enumerate(inner_generators(A, s)):
                lhs = color_commutator(D, inner, A.eps).matrix
                xcols = [support(x) for x in xs]
                dcols = [support(delta.apply(xs[0]))] + \
                    [support(D.apply(x)) for x in xs[1:]]
                rhs = Matrix.from_columns([dense(slot_sum(
                    A, D.degree, slots, degs, xcols, dcols, [tail]).items(),
                    A.dim) for tail in tails], A.dim)
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

    Inner and DDer spaces depend on k only through alpha^k, so the blocks
    are those of union_space, one per degree and distinct twist power
    alpha^k with k <= k_max; a repeated power would repeat its blocks.
    """
    A = algebra
    require(A, k_max, "arity", "perfect")
    inner_maps = union_space(A, "inner", k_max).maps()
    blocks = []
    for block in union_space(A, "dder", k_max).blocks:
        basis = block.basis
        kern = nullspace_of_columns(
            [[c for I in inner_maps
              for c in color_commutator(B, I, A.eps).matrix.flatten()]
             for B in basis], len(basis))
        if kern:
            mats = [B.matrix for B in basis]
            blocks.append(MapBlock(block.k, block.degree, [
                HomMap(block.degree,
                       linear_combination(v, mats, A.dim, A.dim))
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
