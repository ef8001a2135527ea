import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nhlc.delta as delta_mod
from helpers import conjugate_algebra, is_canonical, random_basis_change
from nhlc import oracle
from nhlc.algebra import (ColorAlgebra, HomMap, distinct_twist_pairs,
                          distinct_twists, twist_class, validate_algebra)
from nhlc.delta import (delta_of, inner_centralizer_in_double_derivations,
                        verify_delta_derivation_criterion,
                        verify_delta_homomorphism, verify_delta_residual_laws,
                        verify_delta_well_defined)
from nhlc.builders import build_simple_nlie, build_yau_twist
from nhlc.errors import HypothesisError
from nhlc.linalg import Matrix, nullspace_of_columns, solve_particular
from nhlc.spaces import (center, color_commutator, derivation_space,
                         double_derivation_space, inner_space, is_perfect)

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
    z = HomMap(a4.group.zero(), Matrix.zeros(4, 4))
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
    z3 = HomMap(abelian3.group.zero(), Matrix.zeros(3, 3))
    with pytest.raises(HypothesisError):
        delta_of(abelian3, z3, 0)


def test_delta_rejects_non_double_derivation(a4):
    bad = HomMap(a4.group.zero(), Matrix.identity(4))
    with pytest.raises(ValueError, match="double derivation"):
        delta_of(a4, bad, 0)


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

    def corrupted(algebra, t, D, acols, dcols):
        ak = algebra.alpha_power(0)   # the check below runs at k = 0
        out = [F(0)] * algebra.dim
        prefix = algebra.group.zero()
        for s in range(algebra.arity):
            sign = algebra.eps.value(D.degree, prefix)
            if s == 1:
                sign = -sign  # deliberately wrong sign in the middle slot
            args = [ak.column(t[u]) for u in range(s)] + \
                   [D.matrix.column(t[s])] + \
                   [ak.column(t[u]) for u in range(s + 1, algebra.arity)]
            term = algebra.bracket(args)
            for r in range(algebra.dim):
                out[r] += sign * term[r]
            prefix = algebra.group.add(prefix, algebra.degrees[t[s]])
        return out

    # a derivation touching both summands; single-summand maps are blind
    # to the mixed-tuple relations
    maps = derivation_space(A, 0).maps()
    acc = maps[0].matrix
    for m in maps[1:]:
        acc = acc + m.matrix
    D = HomMap(maps[0].degree, acc)
    assert verify_delta_well_defined(A, D, 0).ok
    monkeypatch.setattr(delta_mod, "_tuple_delta_image", corrupted)
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
                                 Matrix.zeros(A.dim, A.dim)))
    for M in (D.matrix, delta_of(A, D, k).matrix):
        assert all(is_canonical(x) for row in M.data for x in row)


def test_residual_laws(a4, twisted_a4, color_a4, color_simple4):
    for A in (a4, twisted_a4, color_a4, color_simple4):
        report = verify_delta_residual_laws(A, 1)
        assert report.ok, (A.name, report.violations[:2])


@pytest.mark.parametrize("name", ["a4", "twisted_a4", "color_a4"])
def test_residual_laws_sorted_and_ordered_sweeps_agree(name, request,
                                                       monkeypatch):
    """The slot identity, swept on sorted tuples and on the ordered ones
    only after a failure, reports what the ordered sweep alone reports
    (skew_premises forced false): nothing on the algebra, and the same
    witnesses in the same order when delta_D is replaced by D / 2, which
    breaks the identity.  details.checks counts every ordered tuple.
    The basis maps' deltas are memoised per algebra, so each mutant runs
    on a fresh copy of the algebra, whose space cache starts empty."""
    A = request.getfixturevalue(name)

    def run(B=A):
        report = verify_delta_residual_laws(B, 1)
        return ([(v.check, v.witness, v.expected, v.actual)
                 for v in report.violations], report.details)

    def halved(algebra, D, k):
        return HomMap(D.degree, D.matrix.scale(F(1, 2)))

    results = []
    for full in (False, True):
        if full:
            monkeypatch.setattr(delta_mod, "skew_premises",
                                lambda *args: False)
        with monkeypatch.context() as patch:
            patch.setattr(delta_mod, "delta_of", halved)
            broken = run(_fresh(A))
        results.append((run(), broken))
    (good, broken), (good_full, broken_full) = results
    assert good == good_full and not good[0]
    assert broken == broken_full
    assert any(check == "residual-slot-identity" for check, *_ in broken[0])
    maps = sum(double_derivation_space(A, k).dimension()
               for k in distinct_twists(A, 1))
    assert good[1]["checks"] == maps * (A.dim ** A.arity * A.arity + 1)
    if name == "a4":
        assert good[1]["checks"] == 1158





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
                        Matrix.zeros(4, 4)) for v in kern]))
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
