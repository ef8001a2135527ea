import pytest

from helpers import color_simple_nlie
from nhlc.builders import (build_abelian, build_regraded_a4, build_simple_nlie,
                           build_super_heis, build_twisted_a4)


@pytest.fixture(scope="session")
def a4():
    return build_simple_nlie(3)


@pytest.fixture(scope="session")
def abelian3():
    return build_abelian(3)


@pytest.fixture(scope="session")
def twisted_a4():
    return build_twisted_a4()


@pytest.fixture(scope="session")
def super_heis():
    return build_super_heis()


@pytest.fixture(scope="session")
def regraded_a4():
    return build_regraded_a4()


@pytest.fixture(scope="session")
def cross3():
    return build_simple_nlie(2)


@pytest.fixture(scope="session")
def color_heis3():
    """Ternary analogue of the super Heisenberg algebra: odd x1, x2 with
    [x1,x1,y] = [x2,x2,y] = z.  The one stock instance whose double
    derivations strictly contain its derivations, with genuine sign
    bookkeeping in every ternary identity."""
    from fractions import Fraction
    from nhlc.algebra import ColorAlgebra
    from nhlc.grading import Bicharacter, GradingGroup
    from nhlc.linalg import Matrix
    g = GradingGroup(torsion=(2,))
    eps = Bicharacter(g, [[Fraction(-1)]])
    odd, even = g.element(torsion=(1,)), g.zero()
    constants = {(0, 0, 2): {3: Fraction(1)}, (1, 1, 2): {3: Fraction(1)}}
    return ColorAlgebra("COLOR_HEIS3", 3, g, eps,
                        [("x1", odd), ("x2", odd), ("y", even), ("z", even)],
                        Matrix.identity(4), constants)


@pytest.fixture(scope="session")
def rational_heis():
    """Binary Heisenberg algebra on Z^2 whose bicharacter takes the values
    eps(g1, g2) = 2 and eps(g2, g1) = 1/2: x, y, z of degrees g1, g2,
    g1 + g2, with [x, y] = z and the identity twist.  Its Koszul signs are
    neither 1 nor -1, so a sign rule with swapped arguments shows."""
    from fractions import Fraction
    from nhlc.algebra import ColorAlgebra
    from nhlc.grading import Bicharacter, GradingGroup
    from nhlc.linalg import Matrix
    g = GradingGroup(free_rank=2)
    eps = Bicharacter(g, [[Fraction(1), Fraction(2)],
                          [Fraction(1, 2), Fraction(1)]])
    basis = [("x", g.element(free=(1, 0))), ("y", g.element(free=(0, 1))),
             ("z", g.element(free=(1, 1)))]
    return ColorAlgebra("RATIONAL_HEIS", 2, g, eps, basis,
                        Matrix.identity(3), {(0, 1): {2: Fraction(1)}})


@pytest.fixture(scope="session")
def sl2_heis3():
    """sl2 acting on the Heisenberg algebra: ungraded, binary, identity
    twist, basis h, e, f, p, q, z with [h,e] = 2e, [h,f] = -2f, [e,f] = h,
    [h,p] = p, [h,q] = -q, [e,q] = p, [f,p] = q, [p,q] = z.  Perfect with
    center span(z): the stock input whose verify report skips a check for
    a nonzero center."""
    from fractions import Fraction
    from nhlc.algebra import ColorAlgebra
    from nhlc.grading import GradingGroup, trivial_bicharacter
    from nhlc.linalg import Matrix
    g = GradingGroup()
    F = Fraction
    constants = {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)}, (1, 2): {0: F(1)},
                 (0, 3): {3: F(1)}, (0, 4): {4: F(-1)}, (1, 4): {3: F(1)},
                 (2, 3): {4: F(1)}, (3, 4): {5: F(1)}}
    basis = [(name, g.zero()) for name in ("h", "e", "f", "p", "q", "z")]
    return ColorAlgebra("SL2_HEIS3", 2, g, trivial_bicharacter(g), basis,
                        Matrix.identity(6), constants)


@pytest.fixture(scope="session")
def color_a4():
    """A4 as an eps-colour algebra (helpers.color_simple_nlie)."""
    return color_simple_nlie(3)


@pytest.fixture(scope="session")
def color_simple4():
    """Simple 4-Lie as an eps-colour algebra (helpers.color_simple_nlie)."""
    return color_simple_nlie(4)
