"""Constructors for the stock test algebras.

Every builder either produces an algebra that passes validate_algebra or
raises; the twist-by-morphism builder re-validates its output because the
twisted bracket is only trusted after the axioms are machine-checked.
"""

from .algebra import ColorAlgebra, HomMap, validate_algebra
from .errors import AlgebraValidationError, ArityError, ShapeError
from .grading import Bicharacter, GradingGroup, trivial_bicharacter
from .linalg import F1, Matrix


def build_abelian(dim, group=None, degrees=None, eps=None, alpha=None,
                  arity=3):
    """All-brackets-zero algebra; alpha must still be even for the degrees."""
    if group is None:
        group = GradingGroup()
    if degrees is None:
        degrees = [group.zero()] * dim
    if eps is None:
        eps = trivial_bicharacter(group)
    if alpha is None:
        alpha = Matrix.identity(dim)
    basis = [(f"a{i + 1}", d) for i, d in enumerate(degrees)]
    out = ColorAlgebra(f"ABELIAN_{dim}", arity, group, eps, basis, alpha, {})
    if not HomMap(group.zero(), out.alpha).respects_blocks(out):
        raise ShapeError("alpha is not even for the given degrees")
    return out


# The largest arity of build_simple_nlie.  Its brackets hold n^2 indices:
# at n = 1000 the algebra file is 24 MB and takes seconds to write, and
# at n = 10^5 it is not written before it exhausts memory.  The solver
# reaches arities below 10.
MAX_SIMPLE_ARITY = 256


def build_simple_nlie(n):
    """The (n+1)-dimensional simple n-Lie algebra with identity twist,
    for 2 <= n <= MAX_SIMPLE_ARITY.

    Dropping basis element i from (e_1, ..., e_{n+1}) brackets to
    (-1)^(n+1+i) e_i; those signs satisfy the n-ary Jacobi identity.
    """
    if n < 2:
        raise ArityError("arity must be at least 2")
    if n > MAX_SIMPLE_ARITY:
        raise ArityError(f"arity must be at most {MAX_SIMPLE_ARITY}")
    dim = n + 1
    group = GradingGroup()
    constants = {}
    for i in range(1, dim + 1):
        t = tuple(j - 1 for j in range(1, dim + 1) if j != i)
        constants[t] = {i - 1: (-1) ** (n + 1 + i)}
    name = "A4" if n == 3 else f"SIMPLE_{dim}D_{n}LIE"
    basis = [(f"e{i + 1}", group.zero()) for i in range(dim)]
    return ColorAlgebra(name, n, group, trivial_bicharacter(group), basis,
                        Matrix.identity(dim), constants)


def build_yau_twist(algebra, phi, name):
    """Twist an untwisted algebra by an even self-morphism phi; the result
    is called name.

    New bracket = phi o old bracket, new twist = phi.  The result is
    validated; anything failing the axioms is rejected.
    """
    A = algebra
    if not isinstance(phi, Matrix):
        phi = Matrix(phi)
    if A.alpha != Matrix.identity(A.dim):
        raise ShapeError("twist builder needs an algebra with identity twist")
    if phi.rows != A.dim or phi.cols != A.dim:
        raise ShapeError("phi must be a dim x dim matrix")
    if not HomMap(A.group.zero(), phi).respects_blocks(A):
        raise ShapeError("phi is not even")
    pcols = [phi.column(i) for i in range(A.dim)]
    for t in A.all_tuples():
        lhs = phi.apply(A.bracket_basis(t))
        rhs = A.bracket([pcols[i] for i in t])
        if lhs != rhs:
            raise ShapeError(f"phi is not a bracket morphism; witness tuple {t}")
    constants = {}
    for t in A.stored_tuples():
        vec = phi.apply(A.bracket_basis(t))
        entry = {j: c for j, c in enumerate(vec) if c != 0}
        if entry:
            constants[t] = entry
    out = ColorAlgebra(name, A.arity, A.group, A.eps,
                       list(A.basis), phi, constants)
    report = validate_algebra(out)
    if not report.ok:
        raise AlgebraValidationError("twisted algebra fails validation", report)
    return out


def build_twisted_a4():
    """A4 twisted by -id: bracket negated, twist -id, no fixed points."""
    a4 = build_simple_nlie(3)
    phi = Matrix.identity(4).scale(-1)
    return build_yau_twist(a4, phi, name="TWISTED_A4")


def build_super_heis():
    """Super Heisenberg algebra: odd x, y and even central z with
    [x,x] = [y,y] = z; exercises the eps(g,g) = -1 repeated-argument case."""
    group = GradingGroup(free_rank=0, torsion=(2,))
    eps = Bicharacter(group, [[-1]])
    odd = group.element(torsion=(1,))
    even = group.zero()
    basis = [("x", odd), ("y", odd), ("z", even)]
    constants = {(0, 0): {2: F1}, (1, 1): {2: F1}}
    return ColorAlgebra("SUPER_HEIS", 2, group, eps, basis,
                        Matrix.identity(3), constants)


def build_regraded_a4():
    """A4 with a nontrivial Z/2 grading (degrees 1,1,0,0) and trivial signs."""
    a4 = build_simple_nlie(3)
    group = GradingGroup(free_rank=0, torsion=(2,))
    eps = trivial_bicharacter(group)
    odd = group.element(torsion=(1,))
    even = group.zero()
    basis = [("e1", odd), ("e2", odd), ("e3", even), ("e4", even)]
    return ColorAlgebra("A4_Z2", 3, group, eps, basis, Matrix.identity(4),
                        a4.constants)


BUILTIN_BUILDERS = {
    "abelian": lambda: build_abelian(3),
    "a4": lambda: build_simple_nlie(3),
    "simple-n": build_simple_nlie,
    "twisted-a4": build_twisted_a4,
    "super-heis": build_super_heis,
}
