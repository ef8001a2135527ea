import pytest

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
    """A4 made an eps-color algebra by Scheunert's cocycle twist: e1, e2, e3
    of degrees a, b, a + b in Z/2 x Z/2 and e4 of degree 0; with
    sigma(a, b) = -1 and 1 on the other generator pairs, each stored value
    is multiplied by the product of sigma(|x_p|, |x_q|) over p < q, and
    eps(u, v) = sigma(u, v) / sigma(v, u).  So eps(g, g) = 1 on every
    degree, but eps(a, b) = -1: repeated indices are dropped while the
    signs between distinct degrees are not trivial."""
    from fractions import Fraction
    from nhlc.algebra import ColorAlgebra
    from nhlc.grading import Bicharacter, GradingGroup
    a4 = build_simple_nlie(3)
    g = GradingGroup(torsion=(2, 2))
    degrees = [g.element(torsion=(1, 0)), g.element(torsion=(0, 1)),
               g.element(torsion=(1, 1)), g.zero()]
    constants = {}
    for t, value in a4.constants.items():
        sign = 1
        for p in range(len(t)):
            for q in range(p + 1, len(t)):
                sign *= (-1) ** (degrees[t[p]].torsion[0]
                                 * degrees[t[q]].torsion[1])
        constants[t] = {j: sign * c for j, c in value.items()}
    eps = Bicharacter(g, [[Fraction(1), Fraction(-1)],
                          [Fraction(-1), Fraction(1)]])
    return ColorAlgebra("COLOR_A4", 3, g, eps,
                        [(f"e{i + 1}", d) for i, d in enumerate(degrees)],
                        a4.alpha, constants)
