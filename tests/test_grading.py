from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_canonical
from nhlc.errors import ShapeError
from nhlc.linalg import rational
from nhlc.grading import (Bicharacter, GradingGroup, trivial_bicharacter,
                          validate_bicharacter)

F = Fraction


def test_group_add_identity():
    g = GradingGroup(free_rank=1, torsion=(2,))
    a = g.element(free=(3,), torsion=(1,))
    assert g.add(g.zero(), a) == a
    assert g.add(a, g.zero()) == a


def test_group_add_torsion_reduction():
    g = GradingGroup(torsion=(2,))
    one = g.element(torsion=(1,))
    assert g.add(one, one) == g.zero()


def test_group_add_componentwise():
    g = GradingGroup(free_rank=1, torsion=(2,))
    a = g.element(free=(1,), torsion=(1,))
    b = g.element(free=(2,), torsion=(1,))
    assert g.add(a, b) == g.element(free=(3,), torsion=(0,))


def test_group_shape_errors():
    g = GradingGroup(free_rank=1)
    other = GradingGroup(free_rank=2)
    with pytest.raises(ShapeError):
        g.add(g.zero(), other.zero())
    with pytest.raises(ShapeError):
        g.element(free=(1, 2))
    with pytest.raises(ShapeError):
        GradingGroup(torsion=(1,))


@pytest.mark.parametrize("kwargs", [{"free_rank": 1.5}, {"free_rank": True},
                                    {"torsion": (2.5,)}, {"torsion": (2, 3.0)}],
                         ids=["free_rank-float", "free_rank-bool",
                              "torsion-float", "torsion-integral-float"])
def test_group_rejects_non_integers(kwargs):
    """Neither the free rank nor a torsion modulus is truncated: a float,
    even an integral one, and a bool are rejected."""
    with pytest.raises(TypeError):
        GradingGroup(**kwargs)


def test_group_add_memo_keeps_shape_check():
    """add memoises its sums; an element of the wrong shape still raises
    once the memo holds sums of well-shaped elements."""
    g = GradingGroup(free_rank=1, torsion=(2,))
    a = g.element(free=(1,), torsion=(1,))
    for _ in range(2):
        assert g.add(a, a) == g.element(free=(2,), torsion=(0,))
        assert g.add(a, g.zero()) == a
    for bad in (GradingGroup(free_rank=1).element(free=(1,)),
                GradingGroup(free_rank=2, torsion=(2,)).zero()):
        with pytest.raises(ShapeError):
            g.add(a, bad)
        with pytest.raises(ShapeError):
            g.add(bad, a)


def test_eps_zero_is_one():
    g = GradingGroup(free_rank=2)
    eps = Bicharacter(g, [[F(1), F(3)], [F(1, 3), F(1)]])
    a = g.element(free=(5, -2))
    assert eps.value(g.zero(), a) == 1
    assert eps.value(a, g.zero()) == 1


def test_eps_super_sign():
    g = GradingGroup(torsion=(2,))
    eps = Bicharacter(g, [[F(-1)]])
    one = g.element(torsion=(1,))
    assert eps.value(one, one) == -1


def test_eps_bimultiplicative_exponents():
    # free rank 2 with value q on the (0,1) generator pair
    q = F(5, 7)
    g = GradingGroup(free_rank=2)
    eps = Bicharacter(g, [[F(1), q], [1 / q, F(1)]])
    a = g.element(free=(2, 0))
    b = g.element(free=(0, 1))
    assert eps.value(a, b) == q ** 2
    assert eps.value(b, a) == q ** -2


def test_validate_super_table():
    g = GradingGroup(torsion=(2,))
    assert validate_bicharacter(Bicharacter(g, [[F(-1)]])).ok


def test_validate_torsion_incompatible():
    g = GradingGroup(torsion=(2,))
    report = validate_bicharacter(Bicharacter(g, [[F(2)]]))
    assert not report.ok
    assert any(v.check == "bicharacter-torsion" for v in report.violations)


def test_validate_trivial_table():
    g = GradingGroup(free_rank=1, torsion=(2, 3))
    assert validate_bicharacter(trivial_bicharacter(g)).ok


def test_validate_skew_violation():
    g = GradingGroup(free_rank=2)
    table = [[F(1), F(2)], [F(3), F(1)]]
    report = validate_bicharacter(Bicharacter(g, table))
    assert any(v.check == "bicharacter-skew" for v in report.violations)


def test_table_shape_enforced():
    g = GradingGroup(free_rank=2)
    with pytest.raises(ShapeError):
        Bicharacter(g, [[F(1)]])


# -- quantified properties ---------------------------------------------------

def _mixed_eps():
    # Z^2 x Z/2; a non-sign value can only sit between the two distinct
    # free generators (diagonals and torsion pairings are forced to +-1)
    g = GradingGroup(free_rank=2, torsion=(2,))
    q = F(3, 2)
    table = [[F(1), q, F(-1)],
             [1 / q, F(-1), F(1)],
             [F(-1), F(1), F(-1)]]
    eps = Bicharacter(g, table)
    assert validate_bicharacter(eps).ok
    return eps


elements = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))


def _elem(g, e):
    return g.element(free=(e[0], e[1]), torsion=(e[2],))


@given(elements, elements)
@settings(max_examples=60)
def test_eps_skew_property(ea, eb):
    eps = _mixed_eps()
    g = eps.group
    a, b = _elem(g, ea), _elem(g, eb)
    assert eps.value(a, b) * eps.value(b, a) == 1


@given(elements, elements, elements)
@settings(max_examples=60)
def test_eps_bimultiplicative_property(ea, eb, ec):
    eps = _mixed_eps()
    g = eps.group
    a, b, c = _elem(g, ea), _elem(g, eb), _elem(g, ec)
    assert eps.value(g.add(a, b), c) == eps.value(a, c) * eps.value(b, c)
    assert eps.value(a, g.add(b, c)) == eps.value(a, b) * eps.value(a, c)


@given(elements)
@settings(max_examples=60)
def test_eps_diagonal_is_sign(ea):
    eps = _mixed_eps()
    a = _elem(eps.group, ea)
    assert eps.value(a, a) in (1, -1)


@given(elements, elements, st.integers(-3, 3))
@settings(max_examples=60)
def test_eps_torsion_representative_invariance(ea, eb, shift):
    """Adding a multiple of the modulus to a torsion exponent is invisible."""
    eps = _mixed_eps()
    g = eps.group
    a, b = _elem(g, ea), _elem(g, eb)
    a_shifted = g.element(free=(ea[0], ea[1]), torsion=(ea[2] + 2 * shift,))
    assert a == a_shifted
    assert eps.value(a, b) == eps.value(a_shifted, b)


def test_eps_at_negative_degrees_is_exact():
    """Over a free group with eps(e1, e2) = 2 and eps(e2, e1) = 1/2, the
    values at negative degrees are negative powers: exact rationals in
    canonical form, never floats (an int to a negative power is a float)."""
    g = GradingGroup(free_rank=2)
    eps = Bicharacter(g, [[1, 2], [F(1, 2), 1]])
    quarter = eps.value(g.element(free=(-2, 0)), g.element(free=(0, 1)))
    assert quarter == F(1, 4) and type(quarter) is F
    four = eps.value(g.element(free=(0, -1)), g.element(free=(2, 0)))
    assert four == 4 and type(four) is int
    for a in range(-2, 3):
        for b in range(-2, 3):
            x = eps.value(g.element(free=(a, 0)), g.element(free=(0, b)))
            assert x == F(2) ** (a * b) and is_canonical(x)
    assert validate_bicharacter(eps).ok
    with pytest.raises(TypeError):
        rational(2 ** -2)   # the float such a power would be


coordinates = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-4, 4))


@given(st.lists(coordinates, max_size=12))
@settings(max_examples=60)
def test_group_element_orders_and_hashes_as_its_coordinates(vectors):
    """Sorting elements agrees with sorting their (free, torsion) tuples;
    equal elements, also from torsion representatives a modulus apart,
    hash equal."""
    g = GradingGroup(free_rank=2, torsion=(3,))
    elements = [_elem(g, v) for v in vectors]
    assert [(e.free, e.torsion) for e in sorted(elements)] == sorted(
        (e.free, e.torsion) for e in elements)
    for e, v in zip(elements, vectors):
        twin = _elem(g, (v[0], v[1], v[2] + 3))
        assert twin == e and hash(twin) == hash(e) and not twin != e
        assert e <= twin and e >= twin and not e < twin and not e > twin
    for a in elements:
        for b in elements:
            assert (a < b) == ((a.free, a.torsion) < (b.free, b.torsion))
            assert (a == b) == ((a.free, a.torsion) == (b.free, b.torsion))
    assert len(set(elements)) == len({(e.free, e.torsion) for e in elements})


def test_group_element_is_immutable_and_keeps_its_repr():
    g = GradingGroup(free_rank=2, torsion=(3,))
    e = g.element(free=(1, -2), torsion=(5,))
    for name in ("free", "torsion", "other"):
        with pytest.raises(AttributeError):
            setattr(e, name, (0,))
        with pytest.raises(AttributeError):
            delattr(e, name)
    assert e.free == (1, -2) and e.torsion == (2,)
    assert repr(e) == "(1,-2,2)" and repr(GradingGroup().zero()) == "()"
    assert e != (e.free, e.torsion)
    with pytest.raises(TypeError):
        e < (1, -2)


def test_group_value_ignores_its_sum_memo():
    """Equality and hashing are those of (free_rank, torsion): a group whose
    add memo is filled equals a fresh one, and so do their bicharacters."""
    g = GradingGroup(free_rank=1, torsion=(2,))
    a = g.element(free=(1,), torsion=(1,))
    g.add(a, a)
    fresh = GradingGroup(1, (2,))
    assert g._sums and not fresh._sums
    assert g == fresh and hash(g) == hash(fresh) and len({g, fresh}) == 1
    assert g != GradingGroup(1, (3,)) and g != GradingGroup(2, (2,))
    assert trivial_bicharacter(g) == trivial_bicharacter(fresh)
    for kwargs in ({"free_rank": -1}, {"torsion": (1,)}, {"torsion": (2, 0)}):
        with pytest.raises(ShapeError):
            GradingGroup(**kwargs)
