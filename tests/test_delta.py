import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nhlc.delta as delta_mod
import nhlc.spaces as spaces_mod
from helpers import (conjugate_algebra, in_map_span, is_canonical,
                     random_basis_change, random_hom_map, reference_bracket)
from nhlc import oracle
from nhlc.algebra import (ColorAlgebra, HomMap, distinct_twist_pairs,
                          distinct_twists, twist_class, validate_algebra)
from nhlc.delta import (delta_of, inner_centralizer_in_double_derivations,
                        verify_delta_derivation_criterion,
                        verify_delta_homomorphism, verify_delta_residual_laws,
                        verify_delta_well_defined)
from nhlc.builders import build_simple_nlie, build_yau_twist
from nhlc.errors import DomainError, HypothesisError
from nhlc.linalg import Matrix, nullspace_of_columns, solve_particular
from nhlc.spaces import (GradedMapSpace, MapBlock, center, color_commutator,
                         derivation_space, double_derivation_space,
                         inner_generators, inner_space, is_perfect)

F = Fraction


@pytest.fixture(scope="module")
def skewed_sum(a4):
    """Two copies of the simple algebra, transported through a basis mixing
    the summands: isomorphic to the plain sum, but with redundant bracket
    decompositions (the well-definedness checks become non-vacuous)."""
    from helpers import direct_sum
    plain = direct_sum(a4, a4, "A4_PLUS_A4")
    data = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
    for i in range(4):
        data[i + 4][i] = 1
    out = conjugate_algebra(plain, Matrix(data), "A4_SUM_SKEWED")
    assert validate_algebra(out).ok
    assert is_perfect(out) and not center(out)
    return out


def _fresh(A):
    """A copy of A with an empty space cache."""
    return ColorAlgebra(A.name, A.arity, A.group, A.eps, A.basis, A.alpha,
                        A.constants)


def _decompose(A, x):
    """(tuples, coefficients, kernel basis) of x over the basis-tuple
    brackets of delta's decomposition matrix; coefficients is None when x
    lies outside the derived subalgebra."""
    tuples, matrix, _, kernel = delta_mod._decomposition(A)
    return tuples, solve_particular(matrix, x), kernel


def test_decomposition_of_target_basis_vector(a4):
    tuples, coefficients, kernel = _decompose(a4, a4.basis_vector(3))
    assert kernel == []
    nz = [(t, c) for t, c in zip(tuples, coefficients) if c != 0]
    assert nz == [((0, 1, 2), F(1))]


def test_decomposition_of_zero(a4):
    _, coefficients, _ = _decompose(a4, a4.zero_vector())
    assert all(c == 0 for c in coefficients)


def test_decomposition_outside_derived(abelian3):
    assert _decompose(abelian3, abelian3.basis_vector(0))[1] is None


def test_decomposition_reconstructs(skewed_sum):
    A = skewed_sum
    x = [F(1), F(-2), F(3), F(1, 2), F(0), F(7), F(-1, 3), F(2)]
    tuples, coefficients, kernel = _decompose(A, x)
    assert len(kernel) > 0
    total = [F(0)] * A.dim
    for t, c in zip(tuples, coefficients):
        if c:
            w = A.bracket_basis(t)
            for r in range(A.dim):
                total[r] += c * w[r]
    assert total == x


def test_delta_fixes_derivations(a4, twisted_a4, skewed_sum):
    for A in (a4, twisted_a4):
        for D in derivation_space(A, 0).maps():
            assert delta_of(A, D, 0).matrix == D.matrix
    # derivations are double derivations, so they pass the input check
    for D in derivation_space(skewed_sum, 0).maps()[:2]:
        assert delta_of(skewed_sum, D, 0).matrix == D.matrix


def test_delta_of_zero_map(a4):
    z = HomMap(a4.group.zero(), Matrix([[0] * 4 for _ in range(4)]))
    assert delta_of(a4, z, 0).matrix.is_zero()


def test_delta_linear_in_map(skewed_sum):
    A = skewed_sum
    maps = derivation_space(A, 0).maps()
    D1, D2 = maps[0], maps[5]
    lam = F(5, 3)
    combo = HomMap(D1.degree, D1.matrix + D2.matrix.scale(lam))
    got = delta_of(A, combo, 0).matrix
    expect = delta_of(A, D1, 0).matrix + \
        delta_of(A, D2, 0).matrix.scale(lam)
    assert got == expect


def test_delta_commutes_with_twist(twisted_a4):
    A = twisted_a4
    for D in double_derivation_space(A, 0).maps():
        dm = delta_of(A, D, 0)
        assert dm.matrix * A.alpha == A.alpha * dm.matrix


def test_delta_output_is_double_derivation(a4):
    for D in double_derivation_space(a4, 0).maps():
        dm = delta_of(a4, D, 0)
        assert oracle.is_double_derivation(a4, dm, 0)[0]


def test_delta_requires_hypotheses(abelian3, super_heis):
    z3 = HomMap(abelian3.group.zero(), Matrix([[0] * 3 for _ in range(3)]))
    with pytest.raises(HypothesisError):
        delta_of(abelian3, z3, 0)


def test_delta_rejects_non_double_derivation(a4):
    bad = HomMap(a4.group.zero(), Matrix.identity(4))
    with pytest.raises(ValueError, match="double derivation"):
        delta_of(a4, bad, 0)


@pytest.mark.parametrize("name", ["a4", "twisted_a4", "color_a4",
                                  "color_simple4"])
def test_delta_by_coordinates_is_the_formula(name, request):
    """delta_of, read off the coordinates of D in the span of DDer^k, is
    the slot formula applied to D itself, _images(A, D, k) * solutions, at
    k = 0..2: on basis maps, commutators of basis maps and random rational
    combinations of one degree's basis maps.  A map outside the span still
    raises DomainError."""
    A = request.getfixturevalue(name)
    solutions = delta_mod._decomposition(A)[2]
    rng = random.Random(5)
    outside = 0
    for k in range(3):
        space = double_derivation_space(A, k)
        maps = list(space.maps())
        maps += [color_commutator(D1, D2, A.eps)
                 for s in range(k + 1)
                 for D1 in double_derivation_space(A, s).maps()[:3]
                 for D2 in double_derivation_space(A, k - s).maps()[:3]]
        zero = Matrix([[0] * A.dim for _ in range(A.dim)])
        for block in space.blocks:
            for _ in range(2):
                maps.append(HomMap(block.degree, sum(
                    (B.matrix.scale(F(rng.randint(-3, 3), rng.randint(1, 3)))
                     for B in block.basis), zero)))
        for D in maps:
            assert delta_of(A, D, k).matrix == \
                delta_mod._images(A, D, k) * solutions, (k, D)
        for d in space.degrees():
            raw = random_hom_map(A, d, rng)
            if not in_map_span(space.maps(), raw):
                outside += 1
                with pytest.raises(DomainError, match="double derivation"):
                    delta_of(A, raw, k)
    assert outside > 0


def test_well_defined_on_instances(a4, twisted_a4, color_a4, color_simple4):
    for A in (a4, twisted_a4, color_a4, color_simple4):
        for k in (0, 1):
            for D in double_derivation_space(A, k).maps():
                report = verify_delta_well_defined(A, D, k)
                assert report.ok, (A.name, k)


def test_well_defined_nonvacuous_on_redundant_presentation(skewed_sum):
    """Here the decomposition kernel is genuinely nonzero, so the check
    exercises decomposition-independence rather than passing vacuously."""
    A = skewed_sum
    for D in derivation_space(A, 0).maps()[:3]:
        report = verify_delta_well_defined(A, D, 0)
        assert report.ok
        assert report.details["kernel_dimension"] > 0


def test_well_defined_catches_corrupted_formula(skewed_sum, monkeypatch):
    """Flipping the Koszul prefix sign of one replacement slot breaks
    decomposition-independence and must be reported."""
    A = skewed_sum

    def corrupted(algebra, d, ts, degrees, acols, dcols, tail):
        out = {}
        prefix = algebra.group.zero()
        for s in range(len(ts)):
            sign = algebra.eps.value(d, prefix)
            if s == 1:
                sign = -sign  # deliberately wrong sign in the middle slot
            args = [acols[t] for t in ts] + tail
            args[s] = dcols[ts[s]]
            for r, x in algebra.sparse_bracket(args):
                out[r] = out.get(r, 0) + sign * x
            prefix = algebra.group.add(prefix, degrees[ts[s]])
        return out

    # a derivation touching both summands; single-summand maps are blind
    # to the mixed-tuple relations
    maps = derivation_space(A, 0).maps()
    acc = maps[0].matrix
    for m in maps[1:]:
        acc = acc + m.matrix
    D = HomMap(maps[0].degree, acc)
    assert verify_delta_well_defined(A, D, 0).ok
    monkeypatch.setattr(delta_mod, "slot_sum", corrupted)
    report = verify_delta_well_defined(A, D, 0)
    assert not report.ok


@pytest.fixture(scope="module")
def a4_conjugate(a4):
    """A4 in a dense rational basis."""
    return conjugate_algebra(a4, random_basis_change(a4, random.Random(4)),
                             "A4_P")


@pytest.mark.parametrize("name", ["a4", "twisted_a4", "a4_conjugate"])
@given(data=st.data())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_delta_of_is_canonical(name, request, data):
    """delta_D of a rational combination D of one DDer^k block has
    canonical entries (ints, and Fractions only where not integral), in an
    integer basis and in a dense rational one."""
    A = request.getfixturevalue(name)
    k = data.draw(st.integers(0, 1))
    block = data.draw(st.sampled_from(double_derivation_space(A, k).blocks))
    coeffs = data.draw(st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        min_size=len(block.basis), max_size=len(block.basis)))
    D = HomMap(block.degree, sum((B.matrix.scale(c)
                                  for c, B in zip(coeffs, block.basis)),
                                 Matrix([[0] * A.dim for _ in range(A.dim)])))
    for M in (D.matrix, delta_of(A, D, k).matrix):
        assert all(is_canonical(x) for row in M.data for x in row)


def test_residual_laws(a4, twisted_a4, color_a4, color_simple4):
    for A in (a4, twisted_a4, color_a4, color_simple4):
        report = verify_delta_residual_laws(A, 1)
        assert report.ok, (A.name, report.violations[:2])


def _ordered_slot_failures(A, E, k, idx):
    """The slot identity of E at twist power k on every ordered tuple, by
    dense brackets of basis vectors: (witness, E[t], signed slot term) per
    tuple t and slot s where the two differ, in order."""
    ak = A.alpha_power(k)
    out = []
    for t in product(range(A.dim), repeat=A.arity):
        lhs = E.apply(A.bracket([A.basis_vector(i) for i in t]))
        for slot in range(A.arity):
            args = [ak.column(i) for i in t]
            args[slot] = E.apply(A.basis_vector(t[slot]))
            prefix = A.degree_sum(A.degrees[i] for i in t[:slot])
            sign = A.eps.value(E.degree, prefix)
            rhs = [sign * c for c in A.bracket(args)]
            if lhs != rhs:
                out.append(((k, idx, slot, t), lhs, rhs))
    return out


@pytest.mark.parametrize("name", ["a4", "twisted_a4", "color_a4"])
def test_residual_laws_witnesses_are_the_ordered_sweeps(name, request,
                                                        monkeypatch):
    """The slot identity reports nothing on the algebra, and, when delta_D
    is replaced by D / 2, which breaks it, the witnesses of an independent
    sweep of every ordered tuple, in the same order.  details.checks counts
    every ordered tuple.  The basis maps' deltas are memoised per algebra,
    so the mutant runs on a fresh copy of the algebra, whose space cache
    starts empty."""
    A = request.getfixturevalue(name)

    def run(B):
        report = verify_delta_residual_laws(B, 1)
        return ([(v.witness, v.expected, v.actual) for v in report.violations
                 if v.check == "residual-slot-identity"],
                report.violations, report.details)

    def halved(algebra, D, k):
        return HomMap(D.degree, D.matrix.scale(F(1, 2)))

    good = run(A)
    assert not good[1]
    with monkeypatch.context() as patch:
        patch.setattr(delta_mod, "delta_of", halved)
        broken = run(_fresh(A))
    expected = [failure for k in distinct_twists(A, 1)
                for idx, D in enumerate(double_derivation_space(A, k).maps())
                for failure in _ordered_slot_failures(
                    A, HomMap(D.degree, D.matrix.scale(F(1, 2))), k, idx)]
    assert expected and broken[0] == expected
    assert broken[2] == good[2]
    maps = sum(double_derivation_space(A, k).dimension()
               for k in distinct_twists(A, 1))
    assert good[2]["checks"] == maps * (A.dim ** A.arity * A.arity + 1)
    if name == "a4":
        assert good[2]["checks"] == 1158





@pytest.mark.parametrize("name", ["a4", "twisted_a4", "color_a4"])
def test_basis_deltas_are_delta_of_once_per_twist_class(name, request):
    """_basis_deltas(A, k) pairs each basis map of DDer^k with delta_of at
    k, and the twist powers of one class share one entry of the cache."""
    A = _fresh(request.getfixturevalue(name))
    for k in range(4):
        pairs = delta_mod._basis_deltas(A, k)
        maps = double_derivation_space(A, k).maps()
        assert [D for D, _ in pairs] == maps
        assert [delta for _, delta in pairs] == \
            [delta_of(A, D, k) for D in maps]
        assert pairs is delta_mod._basis_deltas(A, twist_class(A, k))
    assert sorted(key for key in A._space_cache if key[0] == "delta") == \
        sorted({("delta", twist_class(A, k)) for k in range(4)})


def test_basis_map_deltas_computed_once(twisted_a4, monkeypatch):
    """The residual laws, the derivation criterion and the homomorphism
    read one delta per basis map of DDer^k and twist class; beyond those,
    delta_of runs only on the residuals E and the commutators [D1, D2]."""
    A = _fresh(twisted_a4)
    k_max = 3
    calls = []
    real = delta_mod.delta_of

    def counted(algebra, D, k):
        calls.append(k)
        return real(algebra, D, k)
    monkeypatch.setattr(delta_mod, "delta_of", counted)
    for verifier in (verify_delta_residual_laws,
                     verify_delta_derivation_criterion,
                     verify_delta_homomorphism):
        assert verifier(A, k_max).ok
    size = {k: double_derivation_space(A, k).dimension()
            for k in distinct_twists(A, k_max)}
    assert len(size) == 2
    assert len(calls) == 2 * sum(size.values()) + sum(
        size[k] * size[s] for k, s in distinct_twist_pairs(A, k_max))


def test_derivation_criterion(a4, twisted_a4, color_a4, color_simple4):
    for A in (a4, twisted_a4, color_a4, color_simple4):
        assert verify_delta_derivation_criterion(A, 1).ok


def test_derivation_criterion_needs_no_dense_bracket(
        a4, twisted_a4, color_a4, color_simple4, monkeypatch):
    """Once the inner generators are built, the criterion expands each
    commutator through sparse slot sums and never calls the dense
    ColorAlgebra.bracket."""
    algebras = [_fresh(A) for A in (a4, twisted_a4, color_a4, color_simple4)]
    for A in algebras:
        for s in distinct_twists(A, 1):
            inner_generators(A, s)

    def no_dense_bracket(self, args):
        raise AssertionError("dense bracket called")
    monkeypatch.setattr(ColorAlgebra, "bracket", no_dense_bracket)
    for A in algebras:
        assert verify_delta_derivation_criterion(A, 1).ok, A.name


def test_derivation_criterion_k0_edge(a4):
    assert verify_delta_derivation_criterion(a4, 0).ok


def test_delta_homomorphism(a4, twisted_a4, color_a4, color_simple4):
    for A in (a4, twisted_a4, color_a4, color_simple4):
        assert verify_delta_homomorphism(A, 1).ok, A.name


def test_delta_homomorphism_even_self_pairs(a4):
    """Even-degree self pairs: both sides vanish identically."""
    D = double_derivation_space(a4, 0).maps()[0]
    C = color_commutator(D, D, a4.eps)
    assert C.matrix.is_zero()
    assert delta_of(a4, C, 0).matrix.is_zero()


def _tamper(solve, bad_k, gain):
    """solve with its space at the twist alpha^bad_k replaced: it gains a
    block holding the identity map (gain), or its first block loses its
    last basis map."""
    def wrong(algebra, k):
        space = solve(algebra, k)
        if algebra.alpha_power(k) != algebra.alpha_power(bad_k):
            return space
        blocks = list(space.blocks)
        if gain:
            zero = algebra.group.zero()
            blocks.append(MapBlock(blocks[0].k, zero, [
                HomMap(zero, Matrix.identity(algebra.dim))]))
        else:
            b = blocks[0]
            blocks[0] = MapBlock(b.k, b.degree, b.basis[:-1])
        return GradedMapSpace(algebra, space.kind, blocks)
    return wrong


@pytest.mark.parametrize("name", ["a4", "twisted_a4", "color_a4"])
@pytest.mark.parametrize("tamper", ["gain", "lose"])
@pytest.mark.parametrize("bad_k", [0, 1])
def test_criterion_verdicts_are_the_oracles_on_a_wrong_solver(
        name, request, monkeypatch, tamper, bad_k):
    """Der at the twist alpha^bad_k is replaced by a wrong space: "gain"
    adds the identity map, which is no derivation of these algebras, and
    "lose" drops a basis map.  On "gain" DDer gains the identity too, so
    the criterion judges it and its delta, maps a wrong Der contains.  The
    report must be the one the criterion gives when every map goes
    straight to the oracle."""
    base = request.getfixturevalue(name)
    identity = HomMap(base.group.zero(), Matrix.identity(base.dim))
    assert not oracle.is_derivation(base, identity, bad_k)[0]
    monkeypatch.setattr(spaces_mod, "derivation_space", _tamper(
        spaces_mod.derivation_space, bad_k, tamper == "gain"))
    if tamper == "gain":
        wrong_dder = _tamper(
            spaces_mod.double_derivation_space, bad_k, True)
        monkeypatch.setattr(spaces_mod, "double_derivation_space", wrong_dder)
        monkeypatch.setattr(delta_mod, "double_derivation_space", wrong_dder)
    report = verify_delta_derivation_criterion(_fresh(base), 1)
    monkeypatch.setattr(delta_mod, "oracle_verdict",
                        lambda A, kind, D, t: oracle.is_derivation(A, D, t))
    direct = verify_delta_derivation_criterion(_fresh(base), 1)
    assert report.violations == direct.violations


@pytest.mark.parametrize("mutant", ["double", "plus_identity"])
def test_delta_laws_catch_a_wrong_delta(a4, monkeypatch, mutant):
    """_basis_deltas gives (D, 2D) or (D, D + I), with I the identity, no
    derivation of A4.  Every basis map D is a derivation, and delta_D = D
    satisfies each law, so the violations are read off the mutation:

    - the criterion: 2D is a derivation other than D, and D + I is no
      derivation; in the inner-generator expansion, delta_D enters slot one
      only, so its right side gains ad(D x_1, x_2), resp. ad(x_1, x_2);
    - the homomorphism: [2 D_1, 2 D_2] = 4 [D_1, D_2], which differs from
      delta_[D_1, D_2] = [D_1, D_2] exactly where that is nonzero, while
      [D_1 + I, D_2 + I] = [D_1, D_2] passes."""
    A = _fresh(a4)
    identity = Matrix.identity(A.dim)
    assert not oracle.is_derivation(A, HomMap(A.group.zero(), identity), 0)[0]
    real = delta_mod._basis_deltas
    double = mutant == "double"

    def wrong(algebra, k):
        return [(D, HomMap(D.degree, D.matrix.scale(2) if double
                           else D.matrix + identity))
                for D, _ in real(algebra, k)]
    monkeypatch.setattr(delta_mod, "_basis_deltas", wrong)
    maps = double_derivation_space(A, 0).maps()
    gens = inner_generators(A, 0)

    def ad_is_zero(x1, x2):
        return not any(any(reference_bracket(A, [x1, x2, A.basis_vector(q)]))
                       for q in range(A.dim))

    expected = []
    for idx in range(len(maps)):
        if not double:
            expected.append(("delta-derivation-equivalence", (0, idx)))
        expected.append(("delta-fixes-derivations", (0, idx)))
    expected += [("delta-inner-commutator", (0, 0, idx, gidx))
                 for idx, D in enumerate(maps)
                 for gidx, (xs, _, _) in enumerate(gens)
                 if not double or not ad_is_zero(D.apply(xs[0]), xs[1])]
    report = verify_delta_derivation_criterion(A, 0)
    assert [(v.check, v.witness) for v in report.violations] == expected
    assert {v.actual for v in report.violations
            if v.check == "delta-derivation-equivalence"} <= {(True, False)}
    expected = [("delta-commutator-homomorphism", (0, 0, i, j))
                for i, D1 in enumerate(maps) for j, D2 in enumerate(maps)
                if double and not color_commutator(D1, D2, A.eps).matrix.is_zero()]
    report = verify_delta_homomorphism(A, 0)
    assert [(v.check, v.witness) for v in report.violations] == expected
    assert report.details["checks"] == len(maps) ** 2


def test_inner_centralizer_trivial_on_a4(a4):
    space = inner_centralizer_in_double_derivations(a4, 1)
    assert space.dimension() == 0


def test_inner_centralizer_requires_perfect(abelian3):
    with pytest.raises(HypothesisError):
        inner_centralizer_in_double_derivations(abelian3, 1)


FINITE_ORDER_TWISTS = [
    ("SIGN_A4", [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ("QUARTER_TURN_A4",
     [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])]


@pytest.mark.parametrize("name, phi", FINITE_ORDER_TWISTS)
def test_inner_centralizer_per_twist_power_matches_every_block(name, phi):
    """One kernel per (alpha^k, degree) gives the blocks of the kernel of
    every DDer^k block against every inner map of Inn^0..Inn^k_max, one k
    per distinct twist power.  The sign twist of A4 has order 2 and the
    quarter turn order 4, so powers repeat below k_max, and both have a
    nonzero inner centralizer."""
    A = build_yau_twist(build_simple_nlie(3), Matrix(phi), name=name)
    k_max = 5
    inner = [I for k in range(k_max + 1) for I in inner_space(A, k).maps()]
    expected = []
    for k in distinct_twists(A, k_max):
        for block in double_derivation_space(A, k).blocks:
            kern = nullspace_of_columns(
                [[c for I in inner
                  for c in color_commutator(B, I, A.eps).matrix.flatten()]
                 for B in block.basis], len(block.basis))
            if kern:
                expected.append((k, block.degree, [
                    sum((B.matrix.scale(c) for c, B in zip(v, block.basis)),
                        Matrix([[0] * 4 for _ in range(4)])) for v in kern]))
    space = inner_centralizer_in_double_derivations(A, k_max)
    assert expected
    assert [(b.k, b.degree, [m.matrix for m in b.basis])
            for b in space.blocks] == expected


@pytest.mark.parametrize("name, phi", FINITE_ORDER_TWISTS)
def test_inner_centralizer_at_huge_k_max_is_read_per_twist_class(name, phi):
    """Past the first repeated power no block is new: the centralizer at
    k_max = 10^9 equals the one at k_max = 5, computed as fast."""
    A = build_yau_twist(build_simple_nlie(3), Matrix(phi), name=name)
    start = time.perf_counter()
    huge = inner_centralizer_in_double_derivations(A, 10 ** 9)
    assert time.perf_counter() - start < 1
    small = inner_centralizer_in_double_derivations(A, 5)
    assert huge.dimension() > 0
    assert [(b.k, b.degree, b.basis) for b in huge.blocks] == \
        [(b.k, b.degree, b.basis) for b in small.blocks]
