import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from itertools import combinations_with_replacement

from helpers import (a4_injection_mutants, conjugate_algebra, is_canonical,
                     random_basis_change, reference_bracket,
                     reference_jacobi_failures)
from nhlc.algebra import (ColorAlgebra, HomMap, live_tuples, normalize_tuple,
                          validate_algebra)
from nhlc.builders import build_abelian, build_simple_nlie, build_yau_twist
from nhlc.errors import ShapeError
from nhlc.grading import Bicharacter, GradingGroup, trivial_bicharacter
from nhlc.linalg import F1, Matrix, dense, support

F = Fraction


def _mutated_a4(args, target, coeff):
    """A4 with one extra rational injected into the value of one tuple."""
    a4 = build_simple_nlie(3)
    constants = {t: dict(v) for t, v in a4.constants.items()}
    entry = constants[args]
    entry[target] = entry.get(target, F(0)) + F(coeff)
    if entry[target] == 0:
        del entry[target]
    return ColorAlgebra("A4_mutant", 3, a4.group, a4.eps, list(a4.basis),
                        a4.alpha, constants)


# -- normalize_tuple ----------------------------------------------------------

def test_normalize_single_swap():
    g = GradingGroup()
    eps = trivial_bicharacter(g)
    degrees = [g.zero()] * 4
    assert normalize_tuple((1, 0, 2), degrees, eps) == ((0, 1, 2), F(-1))


def test_normalize_repeated_even_index_vanishes():
    g = GradingGroup()
    eps = trivial_bicharacter(g)
    degrees = [g.zero()] * 3
    assert normalize_tuple((0, 0, 1), degrees, eps) is None


def test_normalize_repeated_odd_index_survives():
    g = GradingGroup(torsion=(2,))
    eps = Bicharacter(g, [[F(-1)]])
    odd = g.element(torsion=(1,))
    assert normalize_tuple((0, 0), [odd, odd], eps) == ((0, 0), F(1))


def test_normalize_full_reversal_sign():
    g = GradingGroup()
    eps = trivial_bicharacter(g)
    degrees = [g.zero()] * 3
    # reversing three distinct entries needs three adjacent swaps
    assert normalize_tuple((2, 1, 0), degrees, eps) == ((0, 1, 2), F(-1))


# -- bracket evaluation -------------------------------------------------------

def test_a4_bracket_value(a4):
    assert a4.bracket_basis((0, 1, 2)) == (F(0), F(0), F(0), F(1))


def test_bracket_with_zero_argument(a4):
    out = a4.bracket([a4.zero_vector(), a4.basis_vector(1), a4.basis_vector(2)])
    assert all(x == 0 for x in out)


def test_super_heis_square(super_heis):
    sh = super_heis
    out = sh.bracket([sh.basis_vector(0), sh.basis_vector(0)])
    assert out == [F(0), F(0), F(1)]


def test_bracket_multilinearity(a4):
    x = [F(2), F(0), F(1, 3), F(0)]
    y = [F(0), F(1), F(0), F(-1)]
    z = [F(1), F(1), F(1), F(1)]
    lhs = a4.bracket([x, y, z])
    two_x = [2 * c for c in x]
    assert a4.bracket([two_x, y, z]) == [2 * c for c in lhs]


def test_permutation_sign_consistency(a4, super_heis):
    rng = random.Random(7)
    for A in (a4, super_heis):
        for _ in range(50):
            t = tuple(rng.randrange(A.dim) for _ in range(A.arity))
            norm = normalize_tuple(t, A.degrees, A.eps)
            got = A.bracket_basis(t)
            if norm is None:
                assert all(x == 0 for x in got)
            else:
                srt, sign = norm
                expect = tuple(sign * c for c in A.bracket_basis(srt))
                assert got == expect


# -- validation ---------------------------------------------------------------

def test_builtins_validate(a4, abelian3, twisted_a4, super_heis, regraded_a4):
    for A in (abelian3, a4, twisted_a4, super_heis, regraded_a4):
        report = validate_algebra(A)
        assert report.ok, (A.name, report.violations[:3])


def test_single_scaling_mutation_is_still_valid():
    """Rescaling one diagonal structure constant keeps the identity intact
    (the whole diagonal family satisfies it), so scalings are useless as
    negative tests; coefficient injections below are the real ones."""
    a4 = build_simple_nlie(3)
    constants = {t: {j: 2 * c for j, c in v.items()} if t == (0, 1, 2) else dict(v)
                 for t, v in a4.constants.items()}
    scaled = ColorAlgebra("A4_scaled", 3, a4.group, a4.eps, list(a4.basis),
                          a4.alpha, constants)
    assert validate_algebra(scaled).ok


def test_injection_mutation_fails_with_witness():
    mutant = _mutated_a4((0, 1, 2), 0, 1)
    report = validate_algebra(mutant)
    assert not report.ok
    assert any(v.check == "jacobi" for v in report.violations)


def test_non_monotone_tuple_rejected(a4):
    with pytest.raises(ShapeError):
        ColorAlgebra("bad", 3, a4.group, a4.eps, list(a4.basis), a4.alpha,
                     {(1, 0, 2): {3: F(1)}})


@pytest.mark.parametrize("arity,constants", [
    (3.7, {(0, 1, 2): {3: 1}}),
    (3, {(0.0, 1, 2): {3: 1}}),
    (3, {(0, 1, 2.9): {3: 1}}),
    (3, {(0, 1, 2): {3.2: 1}}),
    (3, {(0, 1, 2): {3.0: 1}}),
    (3, {(0, 1, 2): {3: 1, 2.5: 0}}),
], ids=["arity", "tuple-index", "tuple-index-truncated", "value-index",
        "value-index-integral-float", "value-index-of-a-zero"])
def test_non_integer_fields_rejected(a4, arity, constants):
    """The arity, the bracket tuple indices and the value indices must be
    ints; a float is not truncated to one."""
    with pytest.raises(TypeError):
        ColorAlgebra("bad", arity, a4.group, a4.eps, list(a4.basis), a4.alpha,
                     constants)


def test_repeated_index_even_degree_reported(abelian3):
    A = abelian3
    bad = ColorAlgebra("bad", 3, A.group, A.eps, list(A.basis), A.alpha,
                       {(0, 0, 1): {2: F(1)}})
    report = validate_algebra(bad)
    assert any(v.check == "repeated-argument" for v in report.violations)


def test_uneven_alpha_reported(super_heis):
    sh = super_heis
    alpha = Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # swaps odd x with even z
    bad = ColorAlgebra("bad", 2, sh.group, sh.eps, list(sh.basis), alpha,
                       sh.constants)
    report = validate_algebra(bad)
    assert any(v.check == "twist-even" for v in report.violations)


def test_grading_violation_reported(regraded_a4):
    A = regraded_a4
    constants = {t: dict(v) for t, v in A.constants.items()}
    constants[(0, 1, 2)] = {0: F(1)}  # degree 0 tuple sent to a degree-1 vector
    bad = ColorAlgebra("bad", 3, A.group, A.eps, list(A.basis), A.alpha, constants)
    report = validate_algebra(bad)
    assert any(v.check == "grading" for v in report.violations)


def test_nonmultiplicative_twist_reported(a4):
    alpha = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    bad = ColorAlgebra("bad", 3, a4.group, a4.eps, list(a4.basis), alpha,
                       a4.constants)
    report = validate_algebra(bad)
    assert any(v.check == "twist-multiplicative" for v in report.violations)


# -- builders -----------------------------------------------------------------

def test_simple_nlie_family_validates():
    for n in (2, 3, 4):
        A = build_simple_nlie(n)
        assert A.dim == n + 1
        assert validate_algebra(A).ok


def test_yau_twist_by_minus_id(a4, twisted_a4):
    tw = twisted_a4
    assert tw.alpha == Matrix.identity(4).scale(-1)
    for t in a4.stored_tuples():
        assert tw.bracket_basis(t) == tuple(-c for c in a4.bracket_basis(t))
    assert validate_algebra(tw).ok


def test_yau_twist_identity_is_same_algebra(a4):
    out = build_yau_twist(a4, Matrix.identity(4), name="A4_COPY")
    assert out.constants == a4.constants
    assert out.alpha == a4.alpha


def test_yau_twist_rejects_non_morphism(a4):
    phi = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    with pytest.raises(ShapeError, match="morphism"):
        build_yau_twist(a4, phi, name="A4_REFLECTED")


def test_abelian_builder_rejects_uneven_alpha():
    g = GradingGroup(torsion=(2,))
    degs = [g.zero(), g.element(torsion=(1,))]
    alpha = Matrix([[0, 1], [1, 0]])
    with pytest.raises(ShapeError):
        build_abelian(2, group=g, degrees=degs, alpha=alpha, arity=2)


def test_abelian_builder_alpha_need_not_be_invertible():
    A = build_abelian(1, alpha=Matrix([[0]]), arity=2)
    assert validate_algebra(A).ok


def test_super_heis_center_structure(super_heis):
    sh = super_heis
    # z is central: its bracket with everything vanishes
    for i in range(3):
        assert all(x == 0 for x in sh.bracket_basis((2, i)))


def test_hom_map_block_structure(regraded_a4, super_heis):
    for A in (regraded_a4, super_heis):
        assert HomMap(A.group.zero(), A.alpha).respects_blocks(A)
    off = HomMap(super_heis.group.zero(),
                 Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))
    assert not off.respects_blocks(super_heis)


def test_validated_algebra_satisfies_identity_on_random_vectors(a4):
    """The tuple-level validator implies the identity for arbitrary
    homogeneous arguments; spot-check with random rational vectors."""
    rng = random.Random(11)
    A = a4

    def rvec():
        return [F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(A.dim)]

    for _ in range(200):
        xs = [rvec() for _ in range(A.arity - 1)]
        ys = [rvec() for _ in range(A.arity)]
        axs = [A.alpha.apply(v) for v in xs]
        lhs = A.bracket(axs + [A.bracket(ys)])
        rhs = [F(0)] * A.dim
        for i in range(A.arity):
            inner = A.bracket(xs + [ys[i]])
            args = [A.alpha.apply(ys[u]) for u in range(i)] + [inner] + \
                   [A.alpha.apply(ys[u]) for u in range(i + 1, A.arity)]
            term = A.bracket(args)
            for r in range(A.dim):
                rhs[r] += term[r]
        assert lhs == rhs


# -- the bracket kernel against the textbook expansion ------------------------

@pytest.fixture(scope="module")
def a4_rebased(a4):
    """A4 in a dense rational basis: every stored value is dense."""
    return conjugate_algebra(a4, random_basis_change(a4, random.Random(4)),
                             "A4_REBASED")


def _argument(dim):
    """A zero, basis, sparse (at most two entries) or dense rational vector."""
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.one_of(
        st.just([F(0)] * dim),
        st.integers(0, dim - 1).map(lambda i: [F(int(j == i)) for j in range(dim)]),
        st.dictionaries(st.integers(0, dim - 1), rational, max_size=2).map(
            lambda d: [d.get(j, F(0)) for j in range(dim)]),
        st.lists(rational, min_size=dim, max_size=dim))


@pytest.mark.parametrize("name", ["a4", "super_heis", "color_heis3",
                                  "rational_heis", "a4_rebased"])
@given(data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bracket_matches_reference(name, request, data):
    """bracket and sparse_bracket (fed supports, with unit coefficients as
    the shared F1 or not) equal the dense expansion over all index tuples."""
    A = request.getfixturevalue(name)
    args = [data.draw(_argument(A.dim)) for _ in range(A.arity)]
    want = reference_bracket(A, args)
    got = A.bracket(args)
    assert got == want
    assert all(is_canonical(x) for x in got)
    supports = [support(v) for v in args]
    units = [[(i, F1 if c == 1 else c) for i, c in sup] for sup in supports]
    for sparse in (A.sparse_bracket(supports), A.sparse_bracket(units)):
        assert dense(sparse, A.dim) == want
        assert all(c for _, c in sparse)


# -- the Jacobi sweep against the full ordered reference ----------------------

def _jacobi_witnesses(A):
    return [(v.witness, v.expected, v.actual)
            for v in validate_algebra(A).violations if v.check == "jacobi"]


def test_jacobi_witnesses_of_the_acceptance_mutants(a4):
    """validate_algebra sweeps live pairs and, on a failure, the ordered
    ones: its jacobi witnesses equal the full ordered reference's, in order
    and number, on every acceptance mutant (the first is the pinned
    a4_mutant, with 72)."""
    counts = []
    for mutation, mutant in a4_injection_mutants(a4):
        want = reference_jacobi_failures(mutant)
        assert want and _jacobi_witnesses(mutant) == want, mutation
        counts.append(len(want))
    assert counts[0] == 72


JACOBI_FIXTURES = ["a4", "twisted_a4", "regraded_a4", "super_heis",
                   "color_heis3", "color_a4", "cross3", "rational_heis"]


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", JACOBI_FIXTURES)
def test_jacobi_sweep_of_valid_algebras_matches_the_reference(name, seed,
                                                              request):
    """No jacobi witness on the fixtures and on random conjugates of them
    (dense tables), by both sweeps."""
    A = request.getfixturevalue(name)
    if seed is not None:
        A = conjugate_algebra(A, random_basis_change(A, random.Random(seed)),
                              A.name + "_P")
    assert _jacobi_witnesses(A) == reference_jacobi_failures(A) == []


def _invalid_sign_heis3(color_heis3):
    """COLOR_HEIS3 with eps(odd, odd) = 2: not a bicharacter of Z/2, so
    validate_algebra sweeps the ordered pairs at once."""
    A = color_heis3
    return ColorAlgebra("HEIS3_BAD_EPS", 3, A.group,
                        Bicharacter(A.group, [[F(2)]]), list(A.basis),
                        A.alpha, A.constants)


@pytest.mark.parametrize("name", ["a4", "twisted_a4", "regraded_a4",
                                  "super_heis", "color_heis3", "cross3",
                                  "invalid_eps"])
def test_jacobi_witnesses_of_random_graded_mutants(name, request):
    """A rational added to the value of a random live tuple at a random
    target of the right degree, six times: the jacobi witnesses equal the
    reference's on every mutant, and some mutants fail, so the fallback
    runs.  (COLOR_A4 and RATIONAL_HEIS are left out: each of their live
    tuples has one target of the right degree, and rescaling it keeps the
    identity.)"""
    if name == "invalid_eps":
        A = _invalid_sign_heis3(request.getfixturevalue("color_heis3"))
    else:
        A = request.getfixturevalue(name)
    rng = random.Random(5)
    tuples = live_tuples(A.degrees, A.eps, A.arity)
    failing = 0
    for _ in range(6):
        t = rng.choice(tuples)
        total = A.degree_sum(A.degrees[i] for i in t)
        j = rng.choice([j for j in range(A.dim) if A.degrees[j] == total])
        constants = {tt: dict(v) for tt, v in A.constants.items()}
        entry = constants.setdefault(t, {})
        entry[j] = entry.get(j, F(0)) + F(rng.choice([1, -1, 2]),
                                          rng.choice([1, 3]))
        mutant = ColorAlgebra(A.name + "_mutant", A.arity, A.group, A.eps,
                              list(A.basis), A.alpha, constants)
        want = reference_jacobi_failures(mutant)
        assert _jacobi_witnesses(mutant) == want, (t, j)
        failing += bool(want)
    assert failing


# -- twist multiplicativity against the all-sorted reference ------------------

def _twist_witnesses(A):
    return [(v.witness, v.expected, v.actual)
            for v in validate_algebra(A).violations
            if v.check == "twist-multiplicative"]


def _reference_twist_failures(A):
    """alpha [t] = [alpha e_t1, .., alpha e_tn] on every sorted n-tuple t,
    dead ones included, by the dense reference bracket: the failing t as
    (t, lhs, rhs)."""
    units = [A.basis_vector(i) for i in range(A.dim)]
    cols = [A.alpha.column(i) for i in range(A.dim)]
    out = []
    for t in combinations_with_replacement(range(A.dim), A.arity):
        lhs = A.alpha.apply(reference_bracket(A, [units[i] for i in t]))
        rhs = reference_bracket(A, [cols[i] for i in t])
        if lhs != rhs:
            out.append((t, lhs, rhs))
    return out


@pytest.mark.parametrize("name", ["a4", "twisted_a4", "regraded_a4",
                                  "super_heis", "color_heis3", "color_a4",
                                  "cross3", "rational_heis"])
def test_twist_witnesses_of_twist_breaking_mutants(name, request):
    """validate_algebra checks twist multiplicativity on live tuples only;
    with the twist's column i doubled, for each i, its witnesses equal the
    all-sorted reference's, in order and number, and some mutants fail."""
    A = request.getfixturevalue(name)
    failing = 0
    for i in range(A.dim):
        alpha = Matrix([[2 * x if c == i else x for c, x in enumerate(row)]
                        for row in A.alpha.data])
        mutant = ColorAlgebra(A.name + "_twist", A.arity, A.group, A.eps,
                              list(A.basis), alpha, A.constants)
        want = _reference_twist_failures(mutant)
        assert _twist_witnesses(mutant) == want, i
        failing += bool(want)
    assert failing
