import pytest
from fractions import Fraction
from itertools import product

from helpers import naive_space_dimension, subspace_eq
from nhlc import oracle
from nhlc.algebra import distinct_twists
from nhlc.builders import build_abelian
from nhlc.errors import ArityError, HypothesisError
from nhlc.linalg import span_basis, subspace_contains
from nhlc.spaces import (GradedMapSpace, _solve_blocks, derivation_space,
                         double_derivation_space, inner_space,
                         maps_as_color_algebra, union_space)
from nhlc.triple import (triple_derivation_space, verify_triple_invariance,
                         verify_triple_equals_derivations)

F = Fraction


def _flat(space):
    return [m.matrix.flatten() for m in space.maps()]


def test_triple_space_requires_binary(a4):
    with pytest.raises(ArityError):
        triple_derivation_space(a4, 0)


def test_super_heis_strict_containment(super_heis):
    """Class-2 nilpotency makes every twist-commuting map a triple
    derivation, while genuine derivations are cut out by the bracket."""
    sh = super_heis
    tder = triple_derivation_space(sh, 0)
    der = derivation_space(sh, 0)
    assert tder.dimension() == 9
    assert der.dimension() == 4
    assert naive_space_dimension(sh, "tder", 0) == 9
    tbasis = span_basis(_flat(tder))
    for v in _flat(der):
        assert subspace_contains(tbasis, v)


def test_abelian_control_tder_equals_all_maps():
    A2 = build_abelian(3, arity=2)
    assert triple_derivation_space(A2, 0).dimension() == 9
    assert derivation_space(A2, 0).dimension() == 9


def test_der_contained_in_tder_everywhere(cross3, super_heis):
    for A2 in (cross3, super_heis):
        for k in (0, 1):
            tbasis = span_basis(_flat(triple_derivation_space(A2, k)))
            for v in _flat(derivation_space(A2, k)):
                assert subspace_contains(tbasis, v)


MAP_SPACES = {"inn": ("inner", inner_space), "der": ("der", derivation_space),
              "dder": ("dder", double_derivation_space)}


def _map_algebra(request, source, name):
    """The binary algebra of Inn, Der or DDer at twist powers 0 and 1."""
    A = request.getfixturevalue(name)
    kind, solve = MAP_SPACES[source]
    return maps_as_color_algebra(GradedMapSpace(
        A, kind, [b for k in (0, 1) for b in solve(A, k).blocks]))


@pytest.mark.parametrize("source, name", [
    (None, "super_heis"), (None, "rational_heis"), (None, "cross3"),
    (None, "sl2_heis3"),
    ("inn", "a4"), ("der", "a4"), ("dder", "a4"),
    ("inn", "color_heis3"), ("der", "color_heis3"), ("dder", "color_heis3"),
    ("inn", "color_a4"), ("der", "color_a4"), ("dder", "color_a4")])
def test_tder_sorted_pairs_match_all_ordered_pairs(request, source, name):
    """The TDer solve imposes its rule on the triples (x, y, z) with y <= z
    only; its blocks equal those of the system on all ordered pairs, and
    its dimension that of the naive route.  TWISTED_A4 has no map algebra:
    Inn is zero, and D -> -D is no twist of the algebras of Der and DDer,
    which fail validation.  The naive route on the 16-dimensional DDer
    algebra of COLOR_HEIS3 would take minutes, so it stops at dimension 8.
    Spaces depend on k only through alpha^k, so each alpha^k is checked
    once."""
    A2 = (request.getfixturevalue(name) if source is None
          else _map_algebra(request, source, name))
    singles = [(x,) for x in range(A2.dim)]
    ordered = list(product(range(A2.dim), repeat=2))
    for k in distinct_twists(A2, 1):
        tder = triple_derivation_space(A2, k)
        assert [(b.degree, [m.matrix for m in b.basis])
                for b in tder.blocks] == _solve_blocks(A2, k, singles, ordered)
        if A2.dim <= 8:
            assert tder.dimension() == naive_space_dimension(A2, "tder", k)


def test_tder_basis_passes_oracle(super_heis, cross3):
    for A2 in (super_heis, cross3):
        for T in triple_derivation_space(A2, 0).maps():
            assert oracle.is_triple_derivation(A2, T, 0)[0]


def test_equality_on_inner_algebra_of_a4(a4):
    A2 = maps_as_color_algebra(inner_space(a4, 0))
    report = verify_triple_equals_derivations(A2, 0)
    assert report.ok
    assert report.details["hypothesis_met"]
    assert all(row["equal"] for row in report.details["table"])
    assert report.details["table"][0]["dim_der"] == 6


def test_equality_on_derivation_algebra_of_a4(a4):
    A2 = maps_as_color_algebra(derivation_space(a4, 0))
    report = verify_triple_equals_derivations(A2, 0)
    assert report.ok
    assert report.details["hypothesis_met"]
    assert all(row["equal"] for row in report.details["table"])


def test_equality_on_cross_product(cross3):
    report = verify_triple_equals_derivations(cross3, 1)
    assert report.ok and report.details["hypothesis_met"]


def test_control_strictness_flagged_not_violated(super_heis):
    """Out-of-hypothesis strict containment is a notice, never a failure."""
    report = verify_triple_equals_derivations(super_heis, 0)
    assert report.ok
    assert not report.details["hypothesis_met"]
    assert any("strict containment" in n for n in report.notices)
    row = report.details["table"][0]
    assert row["dim_der"] < row["dim_tder"]


def test_abelian_control_equal_but_out_of_hypothesis():
    A2 = build_abelian(2, arity=2)
    report = verify_triple_equals_derivations(A2, 0)
    assert report.ok
    assert not report.details["hypothesis_met"]
    assert all(row["equal"] for row in report.details["table"])


def test_invariance_on_a4(a4):
    report = verify_triple_invariance(a4, 1)
    assert report.ok
    assert report.details["inner_dim"] == 6


def test_invariance_requires_hypotheses(abelian3, twisted_a4):
    with pytest.raises(HypothesisError):
        verify_triple_invariance(abelian3, 1)
    with pytest.raises(HypothesisError, match="inner"):
        verify_triple_invariance(twisted_a4, 1)


def test_invariance_reports_images_outside_the_inner_span(monkeypatch):
    """Inn of A4 loses its last basis map, so the inner subspace of the
    DDer map algebra (so(4), dimension 6) shrinks to dimension 5, which no
    ideal of so(3) + so(3) has.  A triple derivation whose image of that
    subspace leaves it is reported once, by its index; the membership of
    the expected witnesses is by rank (helpers.subspace_eq)."""
    from nhlc import spaces
    from nhlc.builders import build_simple_nlie
    from nhlc.spaces import MapBlock
    A = build_simple_nlie(3)
    solve = spaces.inner_space

    def wrong(algebra, k):
        (block,) = solve(algebra, k).blocks
        return GradedMapSpace(algebra, "inner", [
            MapBlock(block.k, block.degree, block.basis[:-1])])
    monkeypatch.setattr(spaces, "inner_space", wrong)
    dd = union_space(A, "dder", 0)
    inn = [dd.coordinates(I) for I in union_space(A, "inner", 0).maps()]
    A2 = maps_as_color_algebra(dd)
    expected = [("triple-invariance", (0, block.degree, idx))
                for block in triple_derivation_space(A2, 0).blocks
                for idx, T in enumerate(block.basis)
                if not subspace_eq(inn, inn + [T.apply(v) for v in inn])]
    assert expected
    report = verify_triple_invariance(A, 0)
    assert report.details["inner_dim"] == 5
    assert [(v.check, v.witness) for v in report.violations] == expected


def test_zero_map_is_trivially_invariant(a4):
    """The kernel check inside the invariance verifier rules out nonzero
    triple derivations vanishing on the inner space; the zero map itself is
    of course invariant."""
    A2 = maps_as_color_algebra(inner_space(a4, 0))
    zero_images = [[F(0)] * A2.dim]
    basis = span_basis(zero_images)
    assert basis == []


def test_map_algebras_of_a4_solve_tder_once(monkeypatch):
    """Inn = Der = DDer on A4, so the three map algebras of `verify` at
    k_max = 1 are views of one algebra on one merged basis: it is validated
    once, after A4 itself, TDer is solved once, and each view keeps its own
    name in the report."""
    from nhlc import io_json, spaces, triple
    from nhlc.builders import build_simple_nlie
    from nhlc.cli import _run_verify
    A = build_simple_nlie(3)
    solves = []
    validated = []
    real_solve = triple._solve_blocks
    real_validate = spaces.validate_algebra

    def counted_solve(*args):
        solves.append(args[1])
        return real_solve(*args)

    def counted_validate(algebra):
        validated.append(algebra.name)
        return real_validate(algebra)
    monkeypatch.setattr(triple, "_solve_blocks", counted_solve)
    monkeypatch.setattr(io_json, "validate_algebra", counted_validate)
    monkeypatch.setattr(spaces, "validate_algebra", counted_validate)
    results, violations, _ = _run_verify(A, 1, False)
    assert not violations and solves == [0]
    assert validated == [A.name, f"DDer({A.name})"]
    names = {entry["check"]: entry["details"]["algebra"] for entry in results
             if entry["check"].startswith("triple-")}
    assert names == {"triple-invariance": f"DDer({A.name})",
                     "triple-equals-derivations[Inn]": f"Inn({A.name})",
                     "triple-equals-derivations[Der]": f"Der({A.name})"}
    assert len([key for key in A._space_cache
                if key[0] == "map algebra"]) == 1


def test_map_algebras_on_different_bases_share_no_cache(color_heis3):
    """DDer strictly contains Der on COLOR_HEIS3, so the map algebras of
    Der, DDer and Inn have different merged bases, spaces and caches."""
    algebras = [maps_as_color_algebra(union_space(color_heis3, kind, 1))
                for kind in ("der", "dder", "inner")]
    assert [A2.dim for A2 in algebras] == [8, 16, 3]
    assert len({id(A2._space_cache) for A2 in algebras}) == 3
    assert len({id(triple_derivation_space(A2, 0))
                for A2 in algebras}) == 3
