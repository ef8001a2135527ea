import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from helpers import (RESIDUALS, in_map_span, naive_space_dimension,
                     project_onto_maps, random_hom_map)
from nhlc import oracle
from nhlc.algebra import HomMap, validate_algebra
from nhlc.errors import ArityError
from nhlc.grading import validate_bicharacter
from nhlc.linalg import Matrix
from nhlc.spaces import (candidate_degrees, derivation_space,
                         double_derivation_space, maps_as_color_algebra,
                         union_space)
from nhlc.triple import triple_derivation_space

F = Fraction


def _zero_map(A):
    return HomMap(A.group.zero(), Matrix([[0] * A.dim for _ in range(A.dim)]))


def test_zero_map_passes_everything(a4, super_heis):
    assert oracle.is_derivation(a4, _zero_map(a4), 0)[0]
    assert oracle.is_double_derivation(a4, _zero_map(a4), 0)[0]
    assert oracle.is_triple_derivation(super_heis, _zero_map(super_heis), 0)[0]


def test_solver_bases_pass_oracles(a4, twisted_a4):
    for A in (a4, twisted_a4):
        for k in (0, 1):
            for D in derivation_space(A, k).maps():
                assert oracle.is_derivation(A, D, k)[0]
            for D in double_derivation_space(A, k).maps():
                assert oracle.is_double_derivation(A, D, k)[0]


def test_projection_is_not_a_derivation(a4):
    bad = HomMap(a4.group.zero(), Matrix([[1, 0, 0, 0], [0, 0, 0, 0],
                                          [0, 0, 0, 0], [0, 0, 0, 0]]))
    ok, witness = oracle.is_derivation(a4, bad, 0)
    assert not ok and witness is not None


def test_noncommuting_map_rejected(twisted_a4):
    # any map commutes with -id, so force a failure through the identity
    # instead: scaling one basis direction only
    bad = HomMap(twisted_a4.group.zero(),
                 Matrix([[5, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert not oracle.is_derivation(twisted_a4, bad, 0)[0]


def test_twist_commutation_required(super_heis):
    sh = super_heis
    # alpha' = diag(1,-1,1) is a valid twist? no: use an algebra-level map
    # that fails to commute with alpha of a custom algebra
    from nhlc.builders import build_abelian
    from nhlc.grading import GradingGroup
    g = GradingGroup()
    A = build_abelian(2, group=g, degrees=[g.zero()] * 2,
                      alpha=Matrix([[1, 1], [0, 1]]), arity=2)
    bad = HomMap(g.zero(), Matrix([[0, 0], [1, 0]]))
    ok, witness = oracle.is_derivation(A, bad, 0)
    assert not ok and witness == ("twist-commute",)


def test_arity_gates():
    from nhlc.builders import build_simple_nlie
    cross = build_simple_nlie(2)
    a4 = build_simple_nlie(3)
    with pytest.raises(ArityError):
        oracle.is_double_derivation(cross, _zero_map(cross), 0)
    with pytest.raises(ArityError):
        oracle.is_triple_derivation(a4, _zero_map(a4), 0)


def test_derivations_are_double_derivations(a4):
    for D in derivation_space(a4, 0).maps():
        assert oracle.is_double_derivation(a4, D, 0)[0]


def test_derivations_are_triple_derivations(cross3):
    for D in derivation_space(cross3, 0).maps():
        assert oracle.is_triple_derivation(cross3, D, 0)[0]


def test_verdict_independent_of_witness_enumeration(a4):
    """A failing map fails regardless of which tuple is hit first; the
    verdict only depends on the map."""
    bad = HomMap(a4.group.zero(), Matrix([[0, 1, 0, 0], [1, 0, 0, 0],
                                          [0, 0, 0, 0], [0, 0, 0, 0]]))
    first = oracle.is_derivation(a4, bad, 0)
    second = oracle.is_derivation(a4, bad, 0)
    assert first == second and not first[0]


def test_projected_random_maps_pass_in_span_fail_out_of_span(a4):
    """Solver span and oracle-passing set coincide on random samples."""
    rng = random.Random(2024)
    span = derivation_space(a4, 0).maps()
    hits = 0
    for _ in range(25):
        raw = random_hom_map(a4, a4.group.zero(), rng)
        proj = project_onto_maps(span, raw)
        assert oracle.is_derivation(a4, proj, 0)[0]
        if not in_map_span(span, raw):
            assert not oracle.is_derivation(a4, raw, 0)[0]
            hits += 1
    assert hits > 0


def test_rational_bicharacter_routes_agree(rational_heis):
    """Koszul signs 2 and 1/2: solver, oracle and the naive route agree on
    Der and TDer, and the oracle rejects random maps outside the span."""
    A = rational_heis
    assert validate_bicharacter(A.eps).ok and validate_algebra(A).ok
    rng = random.Random(7)
    outside = 0
    for k in (0, 1):
        for kind, build, check, dim in (
                ("der", derivation_space, oracle.is_derivation, 6),
                ("tder", triple_derivation_space, oracle.is_triple_derivation, 9)):
            space = build(A, k)
            assert space.dimension() == dim == naive_space_dimension(A, kind, k)
            for D in space.maps():
                assert check(A, D, k)[0], (kind, k, D.degree)
            for d in candidate_degrees(A):
                raw = random_hom_map(A, d, rng)
                span = [m for m in space.maps() if m.degree == d]
                assert check(A, project_onto_maps(span, raw), k)[0]
                if not in_map_span(span, raw):
                    assert not check(A, raw, k)[0], (kind, k, d)
                    outside += 1
    assert outside > 0


# -- the live sweep: the full sets only when a premise fails ------------------

def _ungraded_map(A, degree, rng):
    """A random map of the stated degree with small rational entries in
    every position, the grading ignored."""
    return HomMap(degree, Matrix([[F(rng.randint(-2, 2), rng.choice((1, 2)))
                                   for _ in range(A.dim)]
                                  for _ in range(A.dim)]))


@pytest.mark.parametrize("name", ["super_heis", "color_heis3", "color_a4",
                                  "regraded_a4", "rational_heis",
                                  "twisted_a4", "color_simple4", "a4"])
def test_reduced_and_full_oracle_sweeps_agree(name, request, monkeypatch):
    """Every checker gives the same (ok, witness) with the live sweep as
    with the full one (skew_premises forced false) at k = 0, 1: on the
    solver's basis maps, on projections of random maps onto their span
    (both pass), on random homogeneous maps and on random maps that ignore
    the grading (which fail).  A failing map's witness is the live sweep's
    first failure, so this guards the ordering proof of the oracle."""
    A = request.getfixturevalue(name)
    rng = random.Random(13)
    kinds = [(oracle.is_derivation, derivation_space)]
    if A.arity >= 3:
        kinds.append((oracle.is_double_derivation, double_derivation_space))
    else:
        kinds.append((oracle.is_triple_derivation, triple_derivation_space))
    cases = []
    for k in (0, 1):
        for check, build in kinds:
            span = build(A, k).maps()
            maps = list(span)
            for d in candidate_degrees(A):
                raw = random_hom_map(A, d, rng)
                maps += [raw, _ungraded_map(A, d, rng), project_onto_maps(
                    [m for m in span if m.degree == d], raw)]
            cases += [(check, D, k) for D in maps]
    reduced = [check(A, D, k) for check, D, k in cases]
    monkeypatch.setattr(oracle, "skew_premises", lambda *args: False)
    full = [check(A, D, k) for check, D, k in cases]
    assert reduced == full
    assert any(ok for ok, _ in full) and not all(ok for ok, _ in full)


@pytest.mark.parametrize("degree", [(0, 0), (1, 0)])
def test_maps_off_the_grading_are_swept_in_full(color_a4, monkeypatch,
                                                degree):
    """On COLOR_A4 (eps(g, g) = 1 on every degree, eps(a, b) = -1) the swap
    of e1 and e2, stated of degree 0 or a, is not homogeneous.  It passes
    the derivation rule on every live tuple and fails it on the repeated
    tuple (0, 0, 2), so the oracle must sweep it in full."""
    A = color_a4
    D = HomMap(A.group.element(torsion=degree),
               Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0],
                       [0, 0, 0, 0]]))
    assert oracle.is_derivation(A, D, 0) == (False, ("tuple", (0, 0, 2)))
    monkeypatch.setattr(oracle, "skew_premises", lambda *args: True)
    assert oracle.is_derivation(A, D, 0) == (True, None)


def test_full_sets_are_drawn_only_when_a_premise_fails(a4, cross3,
                                                        monkeypatch):
    """The full tuple sets of the oracle are iterators that no check draws
    from while skew_premises holds, whether it passes or fails: each check
    sweeps once.  A failing check's witness is the one it gives with the
    live sweep switched off (skew_premises false), which does draw them."""
    drawn = []

    def recording(real):
        def make(*args, **kwargs):
            def tuples():
                drawn.append(real.__name__)
                yield from real(*args, **kwargs)
            return tuples()
        return make
    monkeypatch.setattr(oracle, "combinations_with_replacement",
                        recording(oracle.combinations_with_replacement))
    monkeypatch.setattr(oracle, "product", recording(oracle.product))
    cases = [(a4, oracle.is_derivation, derivation_space),
             (a4, oracle.is_double_derivation, double_derivation_space),
             (cross3, oracle.is_triple_derivation, triple_derivation_space)]
    rng = random.Random(7)
    failing = []
    for A, check, build in cases:
        for k in (0, 1):
            for D in build(A, k).maps():
                assert check(A, D, k) == (True, None)
            failing += [(A, check, random_hom_map(A, d, rng), k)
                        for d in candidate_degrees(A)]
    got = [check(A, D, k) for A, check, D, k in failing]
    assert all(not ok for ok, _ in got)
    assert drawn == []
    monkeypatch.setattr(oracle, "skew_premises", lambda *args: False)
    assert got == [check(A, D, k) for A, check, D, k in failing]
    assert drawn


# -- the oracle against the naive route, map by map ---------------------------

_CHECKS = {"der": (oracle.is_derivation, derivation_space),
           "dder": (oracle.is_double_derivation, double_derivation_space),
           "tder": (oracle.is_triple_derivation, triple_derivation_space)}


def _naive_blocks(A, kind):
    """The witness of each dim-long block of RESIDUALS[kind] after the
    twist-commutation block, in the naive route's order."""
    dim, n = A.dim, A.arity
    if kind == "der":
        return [("tuple", t) for t in combinations_with_replacement(
            range(dim), n)]
    if kind == "dder":
        ys = list(combinations_with_replacement(range(dim), n))
        return [("tuple-pair", xs, y) for xs in
                combinations_with_replacement(range(dim), n - 1) for y in ys]
    return [("triple", t) for t in product(range(dim), repeat=3)]


def _naive_verdict(A, kind, D, k):
    """(ok, witness) read off the naive residual: ok when it is all zero,
    else the first nonzero block, the twist-commutation block first."""
    res = RESIDUALS[kind](A, D, k, D.degree)
    if any(res[:A.dim ** 2]):
        return False, ("twist-commute",)
    for b, witness in enumerate(_naive_blocks(A, kind)):
        start = A.dim ** 2 + b * A.dim
        if any(res[start:start + A.dim]):
            return False, witness
    return True, None


@pytest.fixture(scope="module")
def a4_dder_algebra(a4):
    """The binary algebra of the double derivations of A4 (k = 0, 1)."""
    return maps_as_color_algebra(union_space(a4, "dder", 1))


@pytest.mark.parametrize("name", ["a4", "twisted_a4", "color_heis3",
                                  "super_heis", "color_a4", "rational_heis",
                                  "a4_dder_algebra"])
def test_oracle_agrees_with_naive_route_pointwise(name, request):
    """Each checker's (ok, witness) is the naive route's at k = 0, 1: ok
    exactly when helpers.RESIDUALS[kind] is all zero, and a failing map's
    witness names the residual's first nonzero block.  The maps are the
    solver's basis maps, random homogeneous maps, random maps that ignore
    the grading and projections of random maps onto the solved span."""
    A = request.getfixturevalue(name)
    kinds = ["der", "dder"] if A.arity >= 3 else ["der", "tder"]
    if name == "a4_dder_algebra":
        kinds = ["tder"]
    rng = random.Random(21)
    verdicts = []
    for kind in kinds:
        check, build = _CHECKS[kind]
        for k in (0, 1):
            span = build(A, k).maps()
            maps = list(span)
            for d in candidate_degrees(A):
                raw = random_hom_map(A, d, rng)
                maps += [raw, _ungraded_map(A, d, rng), project_onto_maps(
                    [m for m in span if m.degree == d], raw)]
            for D in maps:
                got = check(A, D, k)
                assert got == _naive_verdict(A, kind, D, k), (kind, k, D)
                verdicts.append(got)
    assert any(ok for ok, _ in verdicts)
    assert any(w and w[0] != "twist-commute" for _, w in verdicts)
