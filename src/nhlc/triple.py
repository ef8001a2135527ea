"""Triple derivations of binary map algebras.

A triple derivation of a binary color algebra satisfies the Leibniz-type
rule only on nested brackets [x, [y, z]].  The solver imposes it on the
basis triples with y <= z, and with y = z only where eps(|y|, |y|) = -1,
which carry every constraint (see triple_derivation_space and
algebra.live_tuples); the oracle checks the same live triples under a
proof of its own, and all basis triples only when a premise fails or to
report a failure.  The instance
theorems compare the triple-derivation space of the inner- and
derivation-map algebras of a centerless perfect algebra against the plain
derivation space; equality is expected exactly under those hypotheses.
"""

from .algebra import distinct_twists, live_tuples
from .errors import ArityError, HypothesisError
from .linalg import nullspace_of_columns, span_basis, subspace_contains
from .report import ValidationReport
from .spaces import (_cached_space, _solve_blocks, derivation_space, holds,
                     maps_as_color_algebra, require, union_space)


def triple_derivation_space(algebra, k):
    """Nullspace of the nested-bracket rule on the basis triples (x, y, z)
    with y <= z, and y = z only where eps(|y|, |y|) = -1.

    The triples with y > z add no constraint.  For D of degree d write
    R(x, y, z) = D[x, [y, z]] - [Dx, [ay, az]] - eps(d, x) [ax, [Dy, az]]
    - eps(d, x + y) [ax, [ay, Dz]], with a = alpha^k and basis elements
    named by their degrees.  The twist is even, so ay has the degree of y,
    and Dy has degree d + y.  Skew symmetry [u, v] = -eps(u, v) [v, u] and
    bimultiplicativity of eps give

    - D[x, [z, y]] = -eps(z, y) D[x, [y, z]];
    - [Dx, [az, ay]] = -eps(z, y) [Dx, [ay, az]];
    - eps(d, x) [ax, [Dz, ay]] = -eps(z, y) eps(d, x + y) [ax, [ay, Dz]],
      since eps(d + z, y) = eps(d, y) eps(z, y);
    - eps(d, x + z) [ax, [az, Dy]] = -eps(z, y) eps(d, x) [ax, [Dy, az]],
      since eps(z, y + d) = eps(z, y) eps(z, d) and eps(d, z) eps(z, d) = 1.

    So R(x, z, y) = -eps(z, y) R(x, y, z): the rows of (x, z, y) are nonzero
    multiples of those of (x, y, z), the row space is the same, and so are
    its unique reduced echelon form and the kernel basis read off it.  The
    rows of (x, y, y) with eps(|y|, |y|) = 1 are all zero
    (algebra.live_tuples), so dropping them changes nothing either.
    """
    A = algebra
    if A.arity != 2:
        raise ArityError("triple derivations are defined for arity 2")
    return _cached_space(A, "tder", k, lambda j: _solve_blocks(
        A, j, [(x,) for x in range(A.dim)], live_tuples(A.degrees, A.eps, 2)))


def verify_triple_invariance(algebra, k_max):
    """Triple derivations of the double-derivation algebra keep the inner
    subspace invariant, and vanish identically if they vanish on it."""
    A = algebra
    require(A, k_max, "arity", "perfect", "centerless", "inner")
    dd_union = union_space(A, "dder", k_max)
    inner_maps = union_space(A, "inner", k_max).maps()
    A2 = maps_as_color_algebra(dd_union)
    inn_coords = []
    for m in inner_maps:
        co = dd_union.coordinates(m)
        if co is None:
            raise HypothesisError("inner maps do not lie in the double-derivation span")
        inn_coords.append(co)
    inn_basis = span_basis(inn_coords)
    report = ValidationReport()
    report.details["algebra"] = A2.name
    report.details["inner_dim"] = len(inn_basis)
    for k in distinct_twists(A2, k_max):
        tder = triple_derivation_space(A2, k)
        for block in tder.blocks:
            images = [[T.apply(list(v)) for v in inn_basis]
                      for T in block.basis]
            for idx, imgs in enumerate(images):
                if not all(subspace_contains(inn_basis, im) for im in imgs):
                    report.add("triple-invariance",
                               witness=(k, block.degree, idx),
                               expected="image inside inner subspace",
                               actual="outside")
            # maps in the triple span vanishing on the inner subspace
            kern = nullspace_of_columns(
                [[c for im in imgs for c in im] for imgs in images],
                len(block.basis))
            if kern:
                report.add("triple-vanishing-on-inner",
                           witness=(k, block.degree),
                           expected="only the zero map vanishes on the inner subspace",
                           actual=f"kernel dimension {len(kern)}")
    return report


def verify_triple_equals_derivations(algebra2, k_max):
    """Compare triple derivations with derivations of a binary algebra.

    Containment of derivations in triple derivations must always hold.
    Strict containment is a violation when the algebra is centerless
    perfect (the verdicts of spaces.holds, kept with the algebra), and an
    out-of-hypothesis notice otherwise.
    """
    A2 = algebra2
    if A2.arity != 2:
        raise ArityError("comparison is defined for arity 2")
    hypothesis_met = (holds(A2, k_max, "perfect")
                      and holds(A2, k_max, "centerless"))
    report = ValidationReport()
    report.details["algebra"] = A2.name
    report.details["hypothesis_met"] = hypothesis_met
    table = []
    for k in distinct_twists(A2, k_max):
        der = derivation_space(A2, k)
        tder = triple_derivation_space(A2, k)
        for d in sorted(set(der.degrees()) | set(tder.degrees())):
            der_maps = [D for D in der.maps() if D.degree == d]
            dim_der, dim_tder = len(der_maps), len(tder.span(d))
            contained = all(tder.contains(D) for D in der_maps)
            equal = contained and dim_der == dim_tder
            table.append({"k": k, "degree": repr(d), "dim_der": dim_der,
                          "dim_tder": dim_tder, "equal": equal})
            if not contained:
                report.add("derivations-inside-triple", witness=(k, d),
                           expected="derivations contained in triple derivations",
                           actual="containment fails")
            elif not equal:
                if hypothesis_met:
                    report.add("triple-equals-derivations", witness=(k, d),
                               expected=f"equal spaces (dim {dim_der})",
                               actual=f"triple dim {dim_tder}")
                else:
                    report.notice(
                        f"strict containment at k={k} degree {d!r} "
                        f"(dim {dim_der} < {dim_tder}); "
                        "out of hypothesis: algebra is not centerless perfect")
    report.details["table"] = table
    return report
