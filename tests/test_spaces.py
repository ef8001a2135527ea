import random
import time
from functools import partial
from itertools import combinations_with_replacement

import pytest
from fractions import Fraction

from helpers import (conjugate_algebra, direct_sum, in_map_span,
                     naive_space_dimension, plain_power, random_basis_change,
                     random_hom_map, subspace_eq)
from nhlc import oracle, spaces
from nhlc.algebra import (MAX_TWIST_POWERS, HomMap, distinct_twist_pairs,
                          distinct_twists, twist_class, validate_algebra)
from nhlc.builders import (build_abelian, build_simple_nlie, build_twisted_a4,
                           build_yau_twist)
from nhlc.errors import (ArityError, DomainError, HypothesisError,
                         InvertibilityError)
from nhlc.grading import GradingGroup
from nhlc.linalg import (Matrix, nullspace_of_columns, span_basis,
                         subspace_contains, support)
from nhlc.spaces import (GradedMapSpace, MapBlock, _allowed_positions,
                         _alpha_commute_rows, _leibniz_rows,
                         ad_map, alpha_shift, candidate_degrees, center,
                         centralizer, color_commutator, derivation_space,
                         derived_subalgebra, double_derivation_space,
                         fixed_point_basis, inner_generators, inner_space,
                         is_perfect, live_tuples, maps_as_color_algebra,
                         union_space,
                         verify_double_derivation_closure, verify_inner_ideal)

F = Fraction


def _flat(space):
    return [m.matrix.flatten() for m in space.maps()]


def _conjugated(A):
    """A in the dense rational basis {P e_i} of a seeded P."""
    return conjugate_algebra(A, random_basis_change(A, random.Random(4)),
                             A.name + "_P")


# -- candidate degrees --------------------------------------------------------

def test_candidate_degrees_trivial(a4):
    assert candidate_degrees(a4) == [a4.group.zero()]


def test_candidate_degrees_z2(regraded_a4):
    g = regraded_a4.group
    assert candidate_degrees(regraded_a4) == sorted(
        [g.zero(), g.element(torsion=(1,))])


def test_candidate_degrees_free_grading():
    g = GradingGroup(free_rank=1)
    degs = [g.element(free=(d,)) for d in (0, 1, 3)]
    A = build_abelian(3, group=g, degrees=degs, arity=2)
    got = candidate_degrees(A)
    expect = sorted(g.element(free=(d,)) for d in (-3, -2, -1, 0, 1, 2, 3))
    assert got == expect


# -- derivation / double derivation spaces ------------------------------------

def test_derivation_dims_match_independent_route(a4, abelian3, twisted_a4,
                                                 regraded_a4, super_heis,
                                                 color_a4, color_simple4):
    # frozen values from the brute-force computation done before the build;
    # the colour-signed simple algebras have the dimensions of so(n + 1), and
    # the naive DDer of the 4-ary one is left out (12 s)
    frozen = {
        (a4, "der"): 6, (a4, "dder"): 6,
        (abelian3, "der"): 9, (abelian3, "dder"): 9,
        (twisted_a4, "der"): 6, (twisted_a4, "dder"): 6,
        (regraded_a4, "der"): 6,
        (super_heis, "der"): 4,
        (color_a4, "der"): 6, (color_a4, "dder"): 6,
        (color_simple4, "der"): 10,
    }
    for (A, kind), expected in frozen.items():
        space = (derivation_space if kind == "der" else double_derivation_space)(A, 0)
        assert space.dimension() == expected, (A.name, kind)
        assert naive_space_dimension(A, kind, 0) == expected, (A.name, kind)
    assert double_derivation_space(color_simple4, 0).dimension() == 10


def test_derivation_space_k1_dimension(a4):
    assert derivation_space(a4, 1).dimension() == 6
    assert naive_space_dimension(a4, "der", 1) == 6


def test_abelian_derivations_are_all_commuting_maps():
    g = GradingGroup(torsion=(2,))
    degs = [g.zero(), g.element(torsion=(1,))]
    alpha = Matrix([[1, 0], [0, -1]])
    A = build_abelian(2, group=g, degrees=degs, alpha=alpha, arity=2)
    # alpha is diagonal, so every block-structured map commutes with it
    assert derivation_space(A, 0).dimension() == 2
    assert naive_space_dimension(A, "der", 0) == 2


def test_double_derivation_rejects_binary(super_heis):
    with pytest.raises(ArityError):
        double_derivation_space(super_heis, 0)


def test_negative_twist_power_requires_invertibility(a4):
    assert derivation_space(a4, -1).dimension() == 6
    sing = build_abelian(1, alpha=Matrix([[0]]), arity=2)
    with pytest.raises(InvertibilityError):
        derivation_space(sing, -1)


def test_derivation_basis_passes_oracle_and_spans_match(a4):
    space = derivation_space(a4, 0)
    for D in space.maps():
        assert oracle.is_derivation(a4, D, 0)[0]
    assert subspace_eq(_flat(space), _flat(double_derivation_space(a4, 0)))


def test_der_contained_in_dder(a4, abelian3, twisted_a4, regraded_a4,
                               color_heis3):
    """A twisted derivation of a multiplicative algebra is a double
    derivation of the same twist power: expand D([xs, [ys]]) twice.  The
    conjugated inputs hold it in a dense rational basis."""
    for A in (a4, abelian3, twisted_a4, regraded_a4, color_heis3,
              build_simple_nlie(4), _conjugated(a4), _conjugated(twisted_a4),
              _conjugated(color_heis3)):
        for k in (0, 1):
            dd = double_derivation_space(A, k)
            for D in derivation_space(A, k).maps():
                assert dd.contains(D), (A.name, k, D.degree)


def _quarter_turn_a4():
    """A4 Yau-twisted by the quarter turn e1 -> e2 -> -e1 of the
    (e1, e2)-plane; alpha^0 and alpha^1 give different DDer spaces."""
    F1, F0 = F(1), F(0)
    phi = Matrix([[F0, -F1, F0, F0], [F1, F0, F0, F0],
                  [F0, F0, F1, F0], [F0, F0, F0, F1]])
    return build_yau_twist(build_simple_nlie(3), phi, name="QUARTER_TURN_A4")


def test_contains_cache_tells_spaces_apart(color_heis3):
    """A map of DDer^1 outside DDer^0 (by the independent route) lies in
    DDer^0 + DDer^1 and not in DDer^0.  Each space keeps its own spans,
    so contains answers right whichever space is asked first, and again
    from the kept spans; the solved spaces are cached by kind too, so Der
    and DDer of COLOR_HEIS3 are told apart at the same twist."""
    probe = _quarter_turn_a4()
    d0 = double_derivation_space(probe, 0).maps()
    D = next(m for m in double_derivation_space(probe, 1).maps()
             if not in_map_span(d0, m))
    for union_first in (False, True):
        A = _quarter_turn_a4()
        part = double_derivation_space(A, 0)
        union = GradedMapSpace(A, "dder", part.blocks +
                               double_derivation_space(A, 1).blocks)
        order = [union, part] if union_first else [part, union]
        for space in order + order:
            assert space.contains(D) == (space is union), union_first
    dd = double_derivation_space(color_heis3, 0)
    der = derivation_space(color_heis3, 0)
    E = next(m for m in dd.maps() if not in_map_span(der.maps(), m))
    assert dd.contains(E) and not der.contains(E)


@pytest.mark.parametrize("build", [lambda: build_simple_nlie(3),
                                   build_twisted_a4, _quarter_turn_a4],
                         ids=["a4", "twisted_a4", "quarter_turn_a4"])
def test_solved_space_is_one_object_per_twist_class(build):
    """der, dder and inner at twist powers k and k' of one class are one
    cached space, its blocks labelled by the class, and so are the inner
    generators."""
    A = build()
    for k in range(6):
        j = twist_class(A, k)
        for solve in (derivation_space, double_derivation_space, inner_space,
                      inner_generators):
            assert solve(A, k) is solve(A, j), (solve.__name__, k)
        for solve in (derivation_space, double_derivation_space, inner_space):
            assert {b.k for b in solve(A, k).blocks} <= {j}


# -- inner maps ---------------------------------------------------------------

def test_ad_map_on_a4(a4):
    ad = ad_map(a4, [a4.basis_vector(0), a4.basis_vector(1)], 0)
    assert ad.apply(a4.basis_vector(2)) == [F(0), F(0), F(0), F(1)]
    assert ad.apply(a4.basis_vector(3)) == [F(0), F(0), F(-1), F(0)]
    assert ad.apply(a4.basis_vector(0)) == [F(0)] * 4
    assert ad.apply(a4.basis_vector(1)) == [F(0)] * 4


def test_ad_map_zero_argument(a4):
    ad = ad_map(a4, [a4.zero_vector(), a4.basis_vector(1)], 0)
    assert ad.matrix.is_zero()


def test_ad_map_multilinear(a4):
    x, xp = a4.basis_vector(0), a4.basis_vector(1)
    y = a4.basis_vector(2)
    lam = F(3, 2)
    combo = [a + lam * b for a, b in zip(x, xp)]
    left = ad_map(a4, [combo, y], 0).matrix
    right = ad_map(a4, [x, y], 0).matrix + ad_map(a4, [xp, y], 0).matrix.scale(lam)
    assert left == right


def test_ad_map_rejects_unfixed_argument(twisted_a4):
    with pytest.raises(ValueError, match="fixed"):
        ad_map(twisted_a4, [twisted_a4.basis_vector(0),
                            twisted_a4.basis_vector(1)], 0)


def test_ad_map_rejects_inhomogeneous(super_heis):
    sh = super_heis
    mixed = [F(1), F(0), F(1)]  # odd x plus even z
    with pytest.raises(ValueError, match="homogeneous"):
        ad_map(sh, [mixed], 0)


def test_inner_space_dimensions(a4, twisted_a4, abelian3, super_heis):
    assert inner_space(a4, 0).dimension() == 6
    assert inner_space(twisted_a4, 0).dimension() == 0
    assert inner_space(twisted_a4, 1).dimension() == 0
    assert inner_space(abelian3, 0).dimension() == 0
    assert inner_space(super_heis, 0).dimension() == 2


def test_inner_equals_derivations_on_a4(a4):
    assert subspace_eq(_flat(inner_space(a4, 0)), _flat(derivation_space(a4, 0)))


def test_inner_maps_are_shifted_derivations(a4, super_heis, color_heis3):
    """Inn^k lies in Der^(k+1), in the stock and in a dense rational basis."""
    for A in (a4, super_heis, _conjugated(a4), _conjugated(color_heis3),
              _conjugated(super_heis)):
        for k in (0, 1):
            for I in inner_space(A, k).maps():
                assert oracle.is_derivation(A, I, k + 1)[0]


def test_fixed_point_basis_respects_grading(super_heis, twisted_a4):
    assert len(fixed_point_basis(super_heis)) == 3
    assert fixed_point_basis(twisted_a4) == []


# -- algebra-level subspaces --------------------------------------------------

def test_derived_subalgebra_and_perfect(a4, abelian3, super_heis):
    assert len(derived_subalgebra(a4)) == 4 and is_perfect(a4)
    assert derived_subalgebra(abelian3) == [] and not is_perfect(abelian3)
    sub = derived_subalgebra(super_heis)
    assert subspace_eq(sub, [[F(0), F(0), F(1)]])
    assert not is_perfect(super_heis)


def test_center_values(a4, abelian3, super_heis):
    assert center(a4) == []
    assert len(center(abelian3)) == 3
    assert subspace_eq(center(super_heis), [[F(0), F(0), F(1)]])


def test_centralizer_of_whole_algebra_is_center(a4, super_heis, abelian3):
    for A in (a4, super_heis, abelian3):
        whole = [A.basis_vector(i) for i in range(A.dim)]
        assert subspace_eq(centralizer(A, whole), center(A))


def test_centralizer_of_zero_is_everything(a4):
    assert len(centralizer(a4, [])) == 4


def test_centralizer_pointwise(a4):
    got = centralizer(a4, [a4.basis_vector(0)])
    # verify the defining property pointwise on the returned basis
    for v in got:
        for i in range(4):
            assert all(x == 0 for x in
                       a4.bracket([v, a4.basis_vector(0), a4.basis_vector(i)]))
    # e1 itself centralizes: [e1, e1, -] = 0
    assert subspace_contains(span_basis(got), a4.basis_vector(0))


# -- commutators and the closure/ideal theorems -------------------------------

def test_color_commutator_even_square(a4):
    D = derivation_space(a4, 0).maps()[0]
    assert color_commutator(D, D, a4.eps).matrix.is_zero()


def test_color_commutator_with_identity(a4):
    D = derivation_space(a4, 0).maps()[2]
    ident = HomMap(a4.group.zero(), Matrix.identity(4))
    assert color_commutator(ident, D, a4.eps).matrix.is_zero()


def test_color_commutator_odd_pair(super_heis):
    sh = super_heis
    odd = sh.group.element(torsion=(1,))
    # [D, D'] = DD' + D'D for two odd maps
    m1 = HomMap(odd, Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))
    m2 = HomMap(odd, Matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
    got = color_commutator(m1, m2, sh.eps).matrix
    expect = m1.matrix * m2.matrix + m2.matrix * m1.matrix
    assert got == expect


def test_closure_theorem_instances(a4, twisted_a4, abelian3):
    for A in (a4, twisted_a4, abelian3):
        report = verify_double_derivation_closure(A, 2)
        assert report.ok, (A.name, report.violations[:2])


# first-occurrence enumerations keyed on the alpha-power data itself

def _first_of_each(items, key):
    seen = set()
    for item in items:
        kv = key(item)
        if kv not in seen:
            seen.add(kv)
            yield item


def _pairs_up_to(k_max):
    return ((k, s) for k in range(k_max + 1) for s in range(k_max + 1 - k))


def _keyed_shifts(A, k_max):
    """The k whose pair (alpha^k, alpha^(k+1)) is new."""
    P = partial(plain_power, A.alpha)
    return list(_first_of_each(range(k_max + 1),
                               lambda k: (P(k).data, P(k + 1).data)))


def _keyed_twist_pairs(A, k_max):
    """The (k, s), k + s <= k_max, whose (alpha^k, alpha^s, alpha^(k+s)) is new."""
    P = partial(plain_power, A.alpha)
    return list(_first_of_each(_pairs_up_to(k_max), lambda p: (
        P(p[0]).data, P(p[1]).data, P(p[0] + p[1]).data)))


def _keyed_commutator_pairs(A, k_max):
    """The (k, s) whose unordered {alpha^k, alpha^s} and alpha^(k+s) are new."""
    P = partial(plain_power, A.alpha)
    return list(_first_of_each(_pairs_up_to(k_max), lambda p: (
        frozenset((P(p[0]).data, P(p[1]).data)), P(p[0] + p[1]).data)))


def _twist_probes():
    """Twists of every kind of power sequence: the identity, -id and the
    quarter turn (orders 1, 2, 4), an idempotent singular twist, a
    nilpotent twist and a twist of infinite order."""
    def diag(*xs):
        return Matrix([[F(x) if i == j else F(0) for j in range(len(xs))]
                       for i, x in enumerate(xs)])
    nilpotent = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    return [build_simple_nlie(3), build_twisted_a4(), _quarter_turn_a4(),
            build_abelian(3, alpha=diag(1, 0, 0)),
            build_abelian(3, alpha=nilpotent),
            build_abelian(2, alpha=diag(2, 1))]


@pytest.mark.parametrize("k_max", range(8))
def test_twist_classes_are_the_first_occurrences(k_max):
    """distinct_twists, distinct_twist_pairs and its k <= s part equal the
    first-occurrence enumerations keyed on alpha^k, alpha^(k+1), alpha^s
    and alpha^(k+s): a shift or a pair repeats exactly when one of its
    exponents does."""
    for A in _twist_probes():
        ks = list(range(k_max + 1))
        keyed = list(_first_of_each(ks, lambda k: plain_power(A.alpha, k).data))
        pairs = distinct_twist_pairs(A, k_max)
        assert distinct_twists(A, k_max) == keyed == _keyed_shifts(A, k_max)
        assert pairs == _keyed_twist_pairs(A, k_max), A.name
        assert [(k, s) for k, s in pairs if k <= s] == \
            _keyed_commutator_pairs(A, k_max), A.name


@pytest.mark.parametrize("k_max", [0, 1, 5, 11])
def test_twist_class_is_the_least_equal_power(k_max):
    """twist_class(A, k) is the least j with alpha^j = alpha^k on every
    probe twist, and far beyond the first repeat it needs no further
    power: A4 at 10**9, the quarter turn at 10**9 + 3 and the nilpotent
    twist, whose powers repeat from alpha^3 = 0 on; once that repeat is
    found, the powers before it are still their own classes."""
    for A in _twist_probes():
        powers = [plain_power(A.alpha, k) for k in range(k_max + 1)]
        for k in range(k_max + 1):
            assert twist_class(A, k) == powers.index(powers[k])
        assert twist_class(A, -1) == -1
    a4, _, quarter, _, nilpotent, _ = _twist_probes()
    start = time.perf_counter()
    assert twist_class(a4, 10 ** 9) == 0
    assert twist_class(quarter, 10 ** 9 + 3) == 3
    assert twist_class(nilpotent, 10 ** 9) == 3
    assert time.perf_counter() - start < 1
    assert [twist_class(nilpotent, k) for k in range(6)] == [0, 1, 2, 3, 3, 3]


def test_distinct_twists_stop_at_the_first_repeat(a4, twisted_a4):
    """A twist of finite order costs its order, whatever k_max is: at
    k_max = 10**6 the identity twist of A4 gives [0] and the order-2 twist
    of TWISTED_A4 [0, 1], in well under a second."""
    start = time.perf_counter()
    assert distinct_twists(a4, 10 ** 6) == [0]
    assert distinct_twists(twisted_a4, 10 ** 6) == [0, 1]
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("probe", [2, 5], ids=["quarter_turn", "diag_2_1"])
def test_alpha_powers_are_plain_powers(probe):
    """alpha_power(m) and alpha_power(-m), m <= 9, equal the plain powers
    of alpha and of alpha.inverse() on the quarter turn (period 4) and on
    diag(2, 1) (no repeat), and alpha_columns gives their sparse columns."""
    A = _twist_probes()[probe]
    for m in range(10):
        for k in (m, -m):
            want = plain_power(A.alpha, k)
            assert A.alpha_power(k) == want, k
            assert A.alpha_columns(k) == [support(want.column(i))
                                          for i in range(A.dim)], k


def test_alpha_power_stops_at_the_first_repeat():
    """A power far past the first repeat is read at its twist class: the
    quarter turn keeps its four distinct powers, each way, and the
    nilpotent twist its four (alpha^3 = 0)."""
    _, _, quarter, _, nilpotent, _ = _twist_probes()
    start = time.perf_counter()
    assert quarter.alpha_power(10 ** 9 + 3) == plain_power(quarter.alpha, 3)
    assert quarter.alpha_power(-10 ** 9 - 1) == plain_power(quarter.alpha, 3)
    assert nilpotent.alpha_power(10 ** 9) == Matrix([[0] * 3 for _ in range(3)])
    assert time.perf_counter() - start < 1
    assert [len(quarter._twists[s]["powers"]) for s in (1, -1)] == [4, 4]
    assert len(nilpotent._twists[1]["powers"]) == 4


@pytest.mark.parametrize("probe", [3, 4], ids=["idempotent", "nilpotent"])
def test_negative_power_of_a_singular_twist_refused(probe):
    """A singular twist has no alpha^-1, however far the power."""
    A = _twist_probes()[probe]
    for k in (-1, -10 ** 9):
        with pytest.raises(InvertibilityError,
                           match="singular; negative powers undefined"):
            A.alpha_power(k)
    assert A.alpha_power(1) == A.alpha


def test_twist_walk_of_infinite_order_is_bounded():
    """diag(2, 1) repeats no power, so its walk never ends at a repeat: the
    powers below MAX_TWIST_POWERS are formed, and a power, class or
    distinct list past them is refused instead of walked to."""
    A = _twist_probes()[5]
    top = MAX_TWIST_POWERS - 1
    assert A.alpha_power(top) == Matrix([[2 ** top, 0], [0, 1]])
    assert twist_class(A, top) == top
    assert distinct_twists(A, top) == list(range(MAX_TWIST_POWERS))
    for call in (A.alpha_power, A.alpha_columns, lambda k: twist_class(A, k),
                 lambda k: distinct_twists(A, k)):
        with pytest.raises(DomainError, match="repeat none"):
            call(10 ** 9)
    with pytest.raises(DomainError, match="repeat none"):
        A.alpha_power(-MAX_TWIST_POWERS)


def _closure_by_oracle(A, k_max):
    """The checks of verify_double_derivation_closure, every one sent to
    the oracle: the failures as (check, witness), and the check count."""
    dd = {k: spaces.double_derivation_space(A, k) for k in range(k_max + 1)}
    fails, checks = [], 0
    for k in _keyed_shifts(A, k_max):
        for idx, D in enumerate(dd[k].maps()):
            ok, wit = oracle.is_double_derivation(A, alpha_shift(A, D), k + 1)
            checks += 1
            if not ok:
                fails.append(("closure-shift", (k, idx, wit)))
    for k, s in _keyed_commutator_pairs(A, k_max):
        for i, D1 in enumerate(dd[k].maps()):
            for j, D2 in enumerate(dd[s].maps()):
                if k == s and j < i:
                    continue
                C = color_commutator(D1, D2, A.eps)
                ok, wit = oracle.is_double_derivation(A, C, k + s)
                checks += 1
                if not ok:
                    fails.append(("closure-commutator", (k, s, i, j, wit)))
    return fails, checks


@pytest.mark.parametrize("build", [lambda: build_simple_nlie(3),
                                   build_twisted_a4, _quarter_turn_a4],
                         ids=["a4", "twisted_a4", "quarter_turn_a4"])
@pytest.mark.parametrize("tamper", ["gain", "lose"])
@pytest.mark.parametrize("bad_k", [0, 1])
def test_closure_verdicts_are_the_oracles_on_a_wrong_solver(
        monkeypatch, build, tamper, bad_k):
    """DDer at the twist alpha^bad_k is replaced by a wrong space: "gain"
    adds the identity map, which is not a double derivation of these
    algebras; "lose" drops a basis map.  The closure's verdicts, witnesses
    and check count must still be those of the oracle on every check."""
    A = build()
    solve = spaces.double_derivation_space
    zero = A.group.zero()

    def wrong_solve(algebra, k):
        space = solve(algebra, k)
        if algebra.alpha_power(k) != algebra.alpha_power(bad_k):
            return space
        blocks = [(b.degree, [m.matrix for m in b.basis]) for b in space.blocks]
        for n, (d, mats) in enumerate(blocks):
            if d == zero:
                blocks[n] = (d, mats + [Matrix.identity(A.dim)]
                             if tamper == "gain" else mats[:-1])
        return GradedMapSpace(algebra, "dder", [
            MapBlock(k, d, [HomMap(d, M) for M in mats]) for d, mats in blocks])

    monkeypatch.setattr(spaces, "double_derivation_space", wrong_solve)
    fails, checks = _closure_by_oracle(A, 1)
    report = verify_double_derivation_closure(A, 1)
    assert [(v.check, v.witness) for v in report.violations] == fails
    assert report.details["checks"] == checks
    assert bool(fails) == (tamper == "gain")


def _gain_block(solve, M):
    """solve with each space gaining a block holding the degree-zero map M."""
    def wrong(algebra, k):
        space = solve(algebra, k)
        zero = algebra.group.zero()
        return GradedMapSpace(algebra, space.kind, space.blocks + [
            MapBlock(space.blocks[0].k, zero, [HomMap(zero, M)])])
    return wrong


def _random_a4_map():
    """A random map of A4, no double derivation of it."""
    a4 = build_simple_nlie(3)
    N = random_hom_map(a4, a4.group.zero(), random.Random(3))
    assert not oracle.is_double_derivation(a4, N, 0)[0]
    return N.matrix


def test_closure_commutator_violations_are_the_oracles(monkeypatch):
    """DDer of A4 gains a random map N: its shift and its commutators with
    the basis maps are no double derivations, and the closure reports each
    with the oracle's witness."""
    A = build_simple_nlie(3)
    monkeypatch.setattr(spaces, "double_derivation_space", _gain_block(
        spaces.double_derivation_space, _random_a4_map()))
    fails, checks = _closure_by_oracle(A, 0)
    report = verify_double_derivation_closure(A, 0)
    assert [(v.check, v.witness) for v in report.violations] == fails
    assert report.details["checks"] == checks
    assert {check for check, _ in fails} == {"closure-shift",
                                             "closure-commutator"}


@pytest.mark.parametrize("tamper", ["inner-shift", "inner-commutator"])
def test_inner_ideal_reports_maps_outside_the_inner_span(monkeypatch, tamper):
    """inner-shift: Inn^1 of A4 loses its last basis map, whose shift (the
    twist is the identity) lies in Inn^0 but not in the rest.
    inner-commutator: DDer of A4 gains a random map, whose commutators
    with inner maps leave the inner span.  The witnesses are those of
    membership by the independent route (helpers.in_map_span)."""
    A = build_simple_nlie(3)
    zero = A.group.zero()
    if tamper == "inner-shift":
        solve = spaces.inner_space

        def wrong(algebra, k):
            space = solve(algebra, k)
            if k == 0:
                return space
            (block,) = space.blocks
            return GradedMapSpace(algebra, "inner", [
                MapBlock(block.k, block.degree, block.basis[:-1])])
        monkeypatch.setattr(spaces, "inner_space", wrong)
        expected = [(tamper, (0, zero, idx))
                    for idx, I in enumerate(spaces.inner_space(A, 0).maps())
                    if not in_map_span(spaces.inner_space(A, 1).maps(),
                                       alpha_shift(A, I))]
        assert expected == [(tamper, (0, zero, 5))]
    else:
        monkeypatch.setattr(spaces, "double_derivation_space", _gain_block(
            spaces.double_derivation_space, _random_a4_map()))
        inner = spaces.inner_space(A, 0).maps()
        dder = spaces.double_derivation_space(A, 0).maps()
        expected = [(tamper, (0, 0, i, zero, j))
                    for i, D in enumerate(dder) for j, I in enumerate(inner)
                    if not in_map_span(inner, color_commutator(D, I, A.eps))]
        assert expected and {w[2] for _, w in expected} == {6}
    report = verify_inner_ideal(A, 0)
    assert [(v.check, v.witness) for v in report.violations] == expected


def test_inner_ideal_instance(a4):
    assert verify_inner_ideal(a4, 2).ok


def test_inner_ideal_span_stability(a4):
    """Scaling an inner basis map leaves every containment intact."""
    inn = span_basis(_flat(inner_space(a4, 0)))
    D = double_derivation_space(a4, 0).maps()[0]
    I = inner_space(a4, 0).maps()[0]
    scaled = HomMap(I.degree, I.matrix.scale(7))
    C = color_commutator(D, scaled, a4.eps)
    assert subspace_contains(inn, C.matrix.flatten())


def test_inner_ideal_rejects_non_perfect(abelian3):
    with pytest.raises(HypothesisError):
        verify_inner_ideal(abelian3, 1)


def test_alpha_shift_of_inner_is_next_level(a4):
    for I in inner_space(a4, 0).maps():
        shifted = alpha_shift(a4, I)
        target = span_basis(_flat(inner_space(a4, 1)))
        assert subspace_contains(target, shifted.matrix.flatten())


# -- map algebras --------------------------------------------------------------

def test_inner_map_algebra_of_a4(a4):
    A2 = maps_as_color_algebra(inner_space(a4, 0))
    assert A2.dim == 6 and A2.arity == 2
    assert validate_algebra(A2).ok
    assert is_perfect(A2) and not center(A2)


def test_derivation_map_algebra_of_abelian(abelian3):
    A2 = maps_as_color_algebra(derivation_space(abelian3, 0))
    assert A2.dim == 9
    assert validate_algebra(A2).ok
    # the full endomorphism algebra under commutator is not perfect
    assert not is_perfect(A2)


def test_derivation_map_algebra_of_a4_is_perfect(a4):
    A2 = maps_as_color_algebra(derivation_space(a4, 0))
    assert A2.dim == 6 and is_perfect(A2)
    assert validate_algebra(A2).ok


def test_merged_basis_matches_algebra_order(a4):
    space = inner_space(a4, 0)
    basis = space.merged_basis()
    A2 = maps_as_color_algebra(space)
    assert len(basis) == A2.dim
    for bm, (_, deg) in zip(basis, A2.basis):
        assert bm.degree == deg


def test_coordinates_in_the_merged_basis(a4, super_heis):
    """A merged basis map has a unit coordinate vector and a map outside
    the span has none, also when no block has its degree; there the zero
    map has zero coordinates."""
    inn = inner_space(super_heis, 0)
    dd = double_derivation_space(a4, 0)
    for space in (inn, dd):
        basis = space.merged_basis()
        for p, bm in enumerate(basis):
            assert space.coordinates(bm) == [F(int(q == p))
                                             for q in range(len(basis))]
    # E_11 is not a double derivation of A4
    E11 = Matrix([[1, 0, 0, 0]] + [[0] * 4] * 3)
    assert dd.coordinates(HomMap(a4.group.zero(), E11)) is None
    # the inner maps of SUPER_HEIS at k = 0 are all odd
    even = super_heis.group.zero()
    n = super_heis.dim
    assert even not in inn.degrees()
    zero = Matrix([[0] * n for _ in range(n)])
    assert inn.coordinates(HomMap(even, zero)) == \
        [F(0)] * len(inn.merged_basis())
    assert inn.coordinates(HomMap(even, Matrix.identity(n))) is None


def test_map_space_invariants(a4, regraded_a4, super_heis):
    """Basis maps respect their degree blocks, commute with the twist, and
    are independent within each block."""
    for A in (a4, regraded_a4, super_heis):
        spaces = [derivation_space(A, 0), inner_space(A, 0)]
        if A.arity >= 3:
            spaces.append(double_derivation_space(A, 0))
        for space in spaces:
            for block in space.blocks:
                rows = [m.matrix.flatten() for m in block.basis]
                assert len(span_basis(rows)) == len(block.basis)
                for m in block.basis:
                    assert m.degree == block.degree
                    assert m.respects_blocks(A)
                    assert m.matrix * A.alpha == A.alpha * m.matrix


# -- ternary colored instance: strict containment of Der in DDer ---------------

def test_color_heis3_validates(color_heis3):
    from nhlc.algebra import validate_algebra
    assert validate_algebra(color_heis3).ok
    assert not is_perfect(color_heis3)
    assert len(center(color_heis3)) == 1


def test_color_heis3_dims_both_routes(color_heis3):
    B = color_heis3
    der = derivation_space(B, 0)
    dd = double_derivation_space(B, 0)
    assert der.dimension() == 8
    assert dd.dimension() == 16
    assert naive_space_dimension(B, "der", 0) == 8
    assert naive_space_dimension(B, "dder", 0) == 16
    assert sorted(len(b.basis) for b in der.blocks) == [4, 4]
    # derivations sit strictly inside the double derivations here
    dd_basis = span_basis(_flat(dd))
    for v in _flat(der):
        assert subspace_contains(dd_basis, v)
    assert not subspace_eq(_flat(der), _flat(dd))


def test_color_heis3_bases_pass_oracles(color_heis3):
    from nhlc import oracle as orc
    B = color_heis3
    for D in derivation_space(B, 0).maps():
        assert orc.is_derivation(B, D, 0)[0]
    for D in double_derivation_space(B, 0).maps():
        assert orc.is_double_derivation(B, D, 0)[0]
    for I in inner_space(B, 0).maps():
        assert orc.is_derivation(B, I, 1)[0]


def test_color_heis3_inner_and_closure(color_heis3):
    B = color_heis3
    assert inner_space(B, 0).dimension() == 3
    assert verify_double_derivation_closure(B, 1).ok


def test_color_heis3_repeated_odd_triple_is_unconstrained(color_heis3):
    from nhlc.algebra import normalize_tuple
    B = color_heis3
    # [x1, x1, x1]: adjacent swaps contribute -eps(1,1) = +1, so the tuple
    # normalizes with sign 1 instead of being forced to zero
    assert normalize_tuple((0, 0, 0), B.degrees, B.eps) == ((0, 0, 0), F(1))
    assert all(x == 0 for x in B.bracket_basis((0, 0, 0)))


def test_map_algebra_truncation_on_unclosed_span(a4):
    """A subset of the derivation space that is not commutator-closed is
    rejected with a truncation error rather than silently mis-built; a
    failed build is not cached, so a second call raises too."""
    from nhlc.errors import TruncationError
    der = derivation_space(a4, 0)
    block = der.blocks[0]
    partial = GradedMapSpace(a4, "der",
                             [MapBlock(0, block.degree, block.basis[:2])])
    for _ in range(2):
        with pytest.raises(TruncationError):
            maps_as_color_algebra(partial)


def test_map_algebra_failing_validation_raises_on_every_call(twisted_a4):
    """The twist-shift D -> D alpha of the algebra of Der on TWISTED_A4 is
    not multiplicative, so the algebra fails validation, on every call:
    the failure is not cached."""
    from nhlc.errors import AlgebraValidationError
    for _ in range(2):
        with pytest.raises(AlgebraValidationError):
            maps_as_color_algebra(union_space(twisted_a4, "der", 1))


def test_inn_and_der_views_share_memos_and_keep_names(a4):
    """Inn = Der on A4: the two map algebras are views of one validated
    algebra, sharing its space cache, bracket memos and twist record, each
    under the name of its kind."""
    inn = maps_as_color_algebra(union_space(a4, "inner", 1))
    der = maps_as_color_algebra(union_space(a4, "der", 1))
    assert (inn.name, der.name) == (f"Inn({a4.name})", f"Der({a4.name})")
    for memo_name in ("_space_cache", "_bracket_memo", "_sparse_memo",
                      "_twists"):
        assert getattr(inn, memo_name) is getattr(der, memo_name), memo_name
    assert inn.alpha_power(1) is der.alpha_power(1)


# -- change of basis -------------------------------------------------------------

@pytest.mark.parametrize("name", ["a4", "twisted_a4", "super_heis"])
def test_invariants_under_change_of_basis(name, request):
    """B is A in the basis {P e_i} for a seeded P with dense rational
    entries; the dimensions of every solved space per (k, degree), of the
    center and of the derived subalgebra, and perfectness agree."""
    A = request.getfixturevalue(name)
    B = _conjugated(A)
    assert validate_algebra(B).ok
    assert B.constants != A.constants

    def dims(space):
        return [(b.k, b.degree, len(b.basis)) for b in space.blocks]

    solvers = [derivation_space, inner_space]
    if A.arity >= 3:
        solvers.append(double_derivation_space)
    for k in (0, 1):
        for solve in solvers:
            assert dims(solve(A, k)) == dims(solve(B, k))
    assert any(dims(solve(A, 0)) for solve in solvers)
    assert len(center(A)) == len(center(B))
    assert len(derived_subalgebra(A)) == len(derived_subalgebra(B))
    assert is_perfect(A) == is_perfect(B)


TWISTS_OF_A4 = {
    "sign_a4": lambda: build_yau_twist(
        build_simple_nlie(3), Matrix([[-1, 0, 0, 0], [0, -1, 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 1]]),
        name="SIGN_A4"),
    "quarter_turn_a4": _quarter_turn_a4,
}


@pytest.mark.parametrize("name", ["a4", "color_a4", "sign_a4",
                                  "quarter_turn_a4"])
def test_verify_verdicts_under_change_of_basis(name, request):
    """Every check of `nhlc verify --all --k-max 1` keeps its status and
    its number of violations when A is rewritten in a dense rational
    basis: the passes of A4 and COLOR_A4, and the inner-centralizer-trivial
    and triple-invariance FAILs of the sign and quarter-turn twists of A4
    (their inner maps' images do not span A), which move with the basis."""
    from nhlc.cli import _run_verify
    A = (TWISTS_OF_A4[name]() if name in TWISTS_OF_A4
         else request.getfixturevalue(name))
    B = _conjugated(A)

    def verdicts(X):
        return [(e["check"], e["status"], len(e.get("violations", [])))
                for e in _run_verify(X, 1, False)[0]]

    before = verdicts(A)
    assert verdicts(B) == before
    failed = {check for check, status, _ in before if status == "violated"}
    assert failed == ({"inner-centralizer-trivial", "triple-invariance"}
                      if name in TWISTS_OF_A4 else set())


# -- direct sums ----------------------------------------------------------------

@pytest.mark.parametrize("left, right", [("a4", "a4"), ("a4", "abelian3"),
                                         ("color_heis3", "color_heis3")])
def test_center_and_perfectness_of_direct_sum(left, right, request):
    """center(A + B) is center(A) + center(B), embedded in the first and
    the last coordinates, and A + B is perfect iff both summands are."""
    A, B = request.getfixturevalue(left), request.getfixturevalue(right)
    S = direct_sum(A, B, f"{A.name}_PLUS_{B.name}")
    assert validate_algebra(S).ok
    embedded = ([list(v) + [F(0)] * B.dim for v in center(A)]
                + [[F(0)] * A.dim + list(v) for v in center(B)])
    assert subspace_eq(center(S), embedded)
    assert is_perfect(S) == (is_perfect(A) and is_perfect(B))


@pytest.mark.parametrize("n, dim", [(3, 6), (4, 10)])
def test_derivations_of_a_sum_of_two_copies(n, dim):
    """On a perfect centerless A, Der^0(A + A) = Der^0(A) + Der^0(A): the
    simple 3- and 4-Lie algebras give 12 and 20."""
    A = build_simple_nlie(n)
    assert is_perfect(A) and not center(A)
    assert derivation_space(A, 0).dimension() == dim
    S = direct_sum(A, A, f"{A.name}_PLUS_{A.name}")
    assert derivation_space(S, 0).dimension() == 2 * dim


@pytest.mark.parametrize("right, dims", [("sign_a4", (7, 8, 8)),
                                         ("twisted_a4", (6, 12, 12))],
                         ids=["sign_a4", "twisted_a4"])
def test_spaces_of_a_twisted_sum_are_block_sums(right, dims, request, a4):
    """A4 + B with the block twist id + beta validates, and at k = 0, 1 its
    Inn^k, Der^k and DDer^k are those of A4 and of B side by side: the
    dimensions add up, and each summand's basis maps, embedded as a block
    of the sum, lie in the sum's space.  Both summands are perfect and
    centerless, so no map runs from one summand into the other."""
    B = (TWISTS_OF_A4[right]() if right in TWISTS_OF_A4
         else request.getfixturevalue(right))
    S = direct_sum(a4, B, f"A4_PLUS_{B.name}")
    assert validate_algebra(S).ok

    def embedded(D, offset):
        data = [[F(0)] * S.dim for _ in range(S.dim)]
        for j in range(D.matrix.rows):
            for i in range(D.matrix.cols):
                data[offset + j][offset + i] = D.matrix[j][i]
        return HomMap(D.degree, Matrix(data))

    for k in (0, 1):
        got = []
        for solve in (inner_space, derivation_space, double_derivation_space):
            space = solve(S, k)
            assert space.dimension() == (solve(a4, k).dimension()
                                         + solve(B, k).dimension())
            for X, offset in ((a4, 0), (B, a4.dim)):
                for D in solve(X, k).maps():
                    assert space.contains(embedded(D, offset)), (
                        solve.__name__, k, X.name)
            got.append(space.dimension())
        assert tuple(got) == dims


# -- live tuple sets: the solver drops only tuples with zero rows -------------

def _full_tuples(A, m):
    return list(combinations_with_replacement(range(A.dim), m))


def _tuple_set_algebra(request, name):
    """A fixture by name; "simple4" is simple 4-Lie, "quarter_turn_a4" the
    quarter-turn twist of A4, and "kind:fixture" the binary algebra of the
    Inn, Der or DDer maps of a fixture at twist powers 0 and 1."""
    if name == "simple4":
        return build_simple_nlie(4)
    if name == "quarter_turn_a4":
        return _quarter_turn_a4()
    if ":" in name:
        kind, base = name.split(":")
        return maps_as_color_algebra(
            union_space(request.getfixturevalue(base), kind, 1))
    return request.getfixturevalue(name)


TUPLE_SET_ALGEBRAS = [
    "a4", "twisted_a4", "regraded_a4", "color_heis3", "super_heis", "cross3",
    "sl2_heis3", "rational_heis", "quarter_turn_a4", "simple4",
    "inner:a4", "der:a4", "dder:a4",
    "inner:color_heis3", "der:color_heis3", "dder:color_heis3"]


@pytest.mark.parametrize("name", TUPLE_SET_ALGEBRAS)
def test_live_tuples_give_the_nonzero_rows_of_all_sorted_tuples(request, name):
    """On the live tuple sets the row builder yields exactly the nonzero
    rows of all sorted tuples, row for row and in order, for Der, DDer
    (arity >= 3) and TDer (arity 2), at every candidate degree.  A4_Z2 has
    odd degrees with trivial signs, so its repeats are dropped; COLOR_HEIS3,
    SUPER_HEIS and the odd maps of the COLOR_HEIS3 map algebras have
    eps(g, g) = -1, so theirs are kept.  Rows depend on k only through
    alpha^k, so each alpha^k among k = 0, 1 is checked once."""
    A = _tuple_set_algebra(request, name)
    n = A.arity

    def live(m):
        return live_tuples(A.degrees, A.eps, m)

    cases = [([()], live(n), [()], _full_tuples(A, n))]
    if n >= 3:
        cases.append((live(n - 1), live(n),
                      _full_tuples(A, n - 1), _full_tuples(A, n)))
    else:
        singles = [(x,) for x in range(A.dim)]
        cases.append((singles, live(2), singles, _full_tuples(A, 2)))
    for k in distinct_twists(A, 1):
        for d in candidate_degrees(A):
            vars_ = _allowed_positions(A, d)
            var_index = {v: x for x, v in enumerate(vars_)}
            for xlive, ylive, xfull, yfull in cases:
                full = [row for row in _leibniz_rows(
                    A, k, d, var_index, xfull, yfull) if any(row)]
                assert list(_leibniz_rows(A, k, d, var_index,
                                          xlive, ylive)) == full, (k, d)


@pytest.mark.parametrize("name", ["a4", "twisted_a4", "color_a4",
                                  "color_heis3"])
def test_reducer_rows_are_sparse(name, request):
    """The Leibniz and twist-commutation rows reach the reducer sparse:
    nonempty, columns strictly increasing and in range, no zero entry.
    Checked on the algebra and on its conjugate by a dense rational basis
    change, for Der and DDer at every candidate degree and distinct twist
    power among k = 0, 1."""
    A = request.getfixturevalue(name)
    B = _conjugated(A)
    for X in (A, B):
        n = X.arity
        live = [live_tuples(X.degrees, X.eps, m) for m in (n - 1, n)]
        for k in distinct_twists(X, 1):
            for d in candidate_degrees(X):
                vars_ = _allowed_positions(X, d)
                var_index = {v: x for x, v in enumerate(vars_)}
                rows = _alpha_commute_rows(X, vars_)
                for xtuples in ([()], live[0]):
                    rows += _leibniz_rows(X, k, d, var_index,
                                          xtuples, live[1])
                for row in rows:
                    cols = [vx for vx, _ in row]
                    assert cols and cols == sorted(set(cols)), (X.name, k, d)
                    assert 0 <= cols[0] and cols[-1] < len(vars_)
                    assert all(c for _, c in row)


@pytest.mark.parametrize("name", [
    "a4", "twisted_a4", "regraded_a4", "color_heis3", "super_heis", "cross3",
    "sl2_heis3", "rational_heis", "quarter_turn_a4", "simple4", "abelian3"])
def test_live_tuples_keep_center_centralizer_and_inner_generators(request,
                                                                  name):
    """center, centralizer, derived_subalgebra and inner_generators sweep
    live tuples; each equals the same computation on all sorted tuples."""
    A = _tuple_set_algebra(request, name)
    n = A.arity
    assert center(A) == nullspace_of_columns(
        [[c for tail in _full_tuples(A, n - 1)
          for c in A.bracket_basis((q,) + tail)] for q in range(A.dim)], A.dim)
    vector = [F(1), F(1, 2), F(0), F(-1), F(2), F(3)][:A.dim]
    for span in ([A.basis_vector(i) for i in range(A.dim)], [vector]):
        assert centralizer(A, span) == nullspace_of_columns(
            [[c for s in span for tail in _full_tuples(A, n - 2)
              for c in A.bracket([A.basis_vector(q), s]
                                 + [A.basis_vector(t) for t in tail])]
             for q in range(A.dim)], A.dim)
    assert derived_subalgebra(A) == span_basis(
        [A.bracket_basis(t) for t in _full_tuples(A, n)])
    fixed = fixed_point_basis(A)
    for k in (0, 1):
        reference = []
        for combo in combinations_with_replacement(range(len(fixed)), n - 1):
            xs = [fixed[i][1] for i in combo]
            m = ad_map(A, xs, k)
            if not m.matrix.is_zero():
                reference.append((xs, [fixed[i][0] for i in combo], m))
        assert inner_generators(A, k) == reference


FIXTURES = ["a4", "abelian3", "twisted_a4", "super_heis", "regraded_a4",
            "cross3", "color_heis3", "rational_heis", "sl2_heis3", "color_a4",
            "color_simple4"]


@pytest.mark.parametrize("name", FIXTURES)
def test_live_tuples_are_the_filtered_sorted_tuples(request, name):
    """live_tuples, built by extension, is the list of sorted tuples that
    repeat an index only when its degree g has eps(g, g) != 1, in
    lexicographic order: for the basis degrees of every fixture and for
    the degrees of its fixed-point basis (inner_generators), at
    m = 0..arity + 1."""
    A = request.getfixturevalue(name)

    def filtered(degrees, m):
        return [t for t in combinations_with_replacement(range(len(degrees)), m)
                if all(a != b or A.eps.value(degrees[a], degrees[a]) != 1
                       for a, b in zip(t, t[1:]))]

    for degrees in (A.degrees, [g for g, _ in fixed_point_basis(A)]):
        for m in range(A.arity + 2):
            assert live_tuples(degrees, A.eps, m) == filtered(degrees, m), m


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_simple_nlie_der_and_dder_are_so(n):
    """Der^0 = DDer^0 of simple n-Lie, of dimension n(n+1)/2, the
    dimension of so(n+1)."""
    A = build_simple_nlie(n)
    der = derivation_space(A, 0)
    dder = double_derivation_space(A, 0)
    assert der.dimension() == dder.dimension() == n * (n + 1) // 2
    assert all(dder.contains(D) for D in der.maps())


def test_oracle_certifies_dder_of_simple_4_lie():
    """The oracle's full sweep passes every DDer^0 basis map of simple
    4-Lie, solved on live tuples."""
    A = build_simple_nlie(4)
    assert all(oracle.is_double_derivation(A, D, 0)[0]
               for D in double_derivation_space(A, 0).maps())
