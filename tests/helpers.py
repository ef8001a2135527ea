"""Independent brute-force route used to cross-check the solvers.

Nothing here shares constraint-assembly or elimination code with the
package: identities are turned into residual vectors by pointwise
evaluation at elementary matrices, and the resulting systems are reduced by
plain rational Gauss elimination pivoting on the RIGHTMOST column first.
reference_rref and reference_nullspace are textbook Gauss-Jordan over
Fraction, the other side of the tests of the package's elimination engine;
reference_bracket is the textbook multilinear expansion of a bracket, the
other side of the tests of its kernel.
"""

import os
from fractions import Fraction
from itertools import combinations_with_replacement, product

from nhlc.algebra import ColorAlgebra, HomMap
from nhlc.builders import build_simple_nlie
from nhlc.grading import Bicharacter, GradingGroup
from nhlc.linalg import Matrix

F0 = Fraction(0)
F1 = Fraction(1)


def is_canonical(x):
    """Whether x is an exact rational in the package's one canonical form:
    an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def gauss_nullity_rightmost(rows, ncols):
    """cols - rank by textbook elimination, rightmost pivot columns first."""
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    rank = 0
    for col in range(ncols - 1, -1, -1):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = work[rank][col]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / pv
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return ncols - rank


def reference_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fraction: (reduced nonzero rows, pivot
    columns); each pivot column is cleared above and below its pivot."""
    work = [[Fraction(x) for x in r] for r in rows]
    piv_cols = []
    for col in range(ncols):
        r = len(piv_cols)
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        piv_cols.append(col)
    return work[:len(piv_cols)], piv_cols


def reference_nullspace(rows, ncols):
    """Kernel basis from reference_rref: per free column f in increasing
    order, x_f = 1, the other free variables 0, each pivot variable solved."""
    red, piv_cols = reference_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in piv_cols:
            continue
        x = [F0] * ncols
        x[f] = F1
        for row, c in zip(red, piv_cols):
            x[c] = -row[f]
        basis.append(x)
    return basis


def _reference_basis_bracket(A, indices):
    """[e_i1, ..., e_in] as {target: coefficient}, read from A.constants:
    bubble sort the indices, each swap of adjacent a > b contributing
    -eps(|a|, |b|); a repeated index of degree g with eps(g, g) = 1 makes
    the bracket vanish."""
    idx = list(indices)
    sign = F1
    for end in range(len(idx) - 1, 0, -1):
        for a in range(end):
            if idx[a] > idx[a + 1]:
                sign *= -A.eps.value(A.degrees[idx[a]], A.degrees[idx[a + 1]])
                idx[a], idx[a + 1] = idx[a + 1], idx[a]
    for a, b in zip(idx, idx[1:]):
        if a == b and A.eps.value(A.degrees[a], A.degrees[a]) == 1:
            return {}
    return {r: sign * c for r, c in A.constants.get(tuple(idx), {}).items()}


def reference_bracket(A, args):
    """Dense multilinear expansion: the sum over every index tuple
    (i_1, ..., i_n) of args[0][i_1] * ... * args[n-1][i_n] * [e_i1, ..., e_in],
    zero coefficients included."""
    out = [F0] * A.dim
    for indices in product(range(A.dim), repeat=A.arity):
        coeff = F1
        for v, i in zip(args, indices):
            coeff *= Fraction(v[i])
        for r, c in _reference_basis_bracket(A, indices).items():
            out[r] += coeff * c
    return out


def reference_jacobi_failures(A):
    """The full ordered sweep of the twisted n-ary Jacobi identity

        [a x_1, .., a x_(n-1), [y_1, .., y_n]]
            = sum_i eps(|xs|, |y_1| + .. + |y_(i-1)|) [a y_1, .., [xs, y_i], .., a y_n]

    with a = alpha, over every ordered pair (xs, ys) of basis index tuples
    in lexicographic order: the failing pairs as ((xs, ys), rhs, lhs).
    Brackets are expanded over the nonzero coordinates of their arguments
    and read from A.constants by _reference_basis_bracket."""
    dim, n = A.dim, A.arity
    memo = {}

    def bracket(args):
        out = [F0] * dim
        nonzero = [[(i, c) for i, c in enumerate(v) if c != 0] for v in args]
        for combo in product(*nonzero):
            indices = tuple(i for i, _ in combo)
            if indices not in memo:
                memo[indices] = _reference_basis_bracket(A, indices)
            coeff = F1
            for _, c in combo:
                coeff *= c
            for r, c in memo[indices].items():
                out[r] += coeff * c
        return out

    units = [_unit(dim, i) for i in range(dim)]
    twisted = [A.alpha.column(i) for i in range(dim)]
    failures = []
    for xs in product(range(dim), repeat=n - 1):
        xdeg = A.group.zero()
        for i in xs:
            xdeg = A.group.add(xdeg, A.degrees[i])
        for ys in product(range(dim), repeat=n):
            lhs = bracket([twisted[i] for i in xs]
                          + [bracket([units[i] for i in ys])])
            rhs = [F0] * dim
            prefix = A.group.zero()
            for i in range(n):
                args = [twisted[y] for y in ys]
                args[i] = bracket([units[x] for x in xs] + [units[ys[i]]])
                sign = A.eps.value(xdeg, prefix)
                rhs = [r + sign * t for r, t in zip(rhs, bracket(args))]
                prefix = A.group.add(prefix, A.degrees[ys[i]])
            if lhs != rhs:
                failures.append(((xs, ys), rhs, lhs))
    return failures


def a4_injection_mutants(a4):
    """The twenty single-coefficient mutations of the simple algebra A4 of
    the acceptance axiom suite: one rational injected off the natural
    target of a stored tuple, +1 at every off-target entry, then -1 at the
    first eight.  The first is the a4_mutant input of the report pins."""
    targets = {(0, 1, 2): 3, (0, 1, 3): 2, (0, 2, 3): 1, (1, 2, 3): 0}
    mutations = [(t, j, F1) for t in sorted(targets) for j in range(4)
                 if j != targets[t]]
    mutations += [(t, j, -F1) for t, j, _ in mutations[:8]]
    out = []
    for t, j, coeff in mutations:
        constants = {tt: dict(v) for tt, v in a4.constants.items()}
        constants[t][j] = constants[t].get(j, F0) + coeff
        out.append(((t, j, coeff), ColorAlgebra(
            "A4_mutant", 3, a4.group, a4.eps, list(a4.basis), a4.alpha,
            constants)))
    return out


def _unit(dim, i):
    v = [F0] * dim
    v[i] = F1
    return v


def plain_power(M, k):
    """M^k by |k| plain products, of M for k >= 0 and of M.inverse() for
    k < 0: the independent route's twist powers, which never read the
    twist record behind ColorAlgebra.alpha_power."""
    if k < 0:
        M, k = M.inverse(), -k
    out = Matrix.identity(M.rows)
    for _ in range(k):
        out = out * M
    return out


def derivation_residual(A, E, k, d):
    """Residual of the twisted Leibniz rule for the map E of degree d."""
    out = []
    C1 = E.matrix * A.alpha
    C2 = A.alpha * E.matrix
    out.extend((C1 - C2).flatten())
    ak = plain_power(A.alpha, k)
    acols = [ak.column(i) for i in range(A.dim)]
    ecols = [E.matrix.column(i) for i in range(A.dim)]
    for t in combinations_with_replacement(range(A.dim), A.arity):
        lhs = E.apply(A.bracket_basis(t))
        rhs = [F0] * A.dim
        prefix = A.group.zero()
        for s in range(A.arity):
            sign = A.eps.value(d, prefix)
            args = [acols[t[u]] for u in range(s)] + [ecols[t[s]]] + \
                   [acols[t[u]] for u in range(s + 1, A.arity)]
            term = A.bracket(args)
            for r in range(A.dim):
                rhs[r] += sign * term[r]
            prefix = A.group.add(prefix, A.degrees[t[s]])
        out.extend(l - r for l, r in zip(lhs, rhs))
    return out


def double_derivation_residual(A, E, k, d):
    out = []
    C1 = E.matrix * A.alpha
    C2 = A.alpha * E.matrix
    out.extend((C1 - C2).flatten())
    n = A.arity
    ak = plain_power(A.alpha, k)
    acols = [ak.column(i) for i in range(A.dim)]
    ecols = [E.matrix.column(i) for i in range(A.dim)]
    ytuples = list(combinations_with_replacement(range(A.dim), n))
    for xs in combinations_with_replacement(range(A.dim), n - 1):
        xdeg = A.degree_sum(A.degrees[i] for i in xs)
        for ys in ytuples:
            inner = A.bracket_basis(ys)
            lhs = E.apply(A.bracket([_unit(A.dim, i) for i in xs] + [list(inner)]))
            rhs = [F0] * A.dim
            inner_k = A.bracket([acols[i] for i in ys])
            prefix = A.group.zero()
            for s in range(n - 1):
                sign = A.eps.value(d, prefix)
                args = [acols[xs[u]] for u in range(s)] + [ecols[xs[s]]] + \
                       [acols[xs[u]] for u in range(s + 1, n - 1)] + [inner_k]
                term = A.bracket(args)
                for r in range(A.dim):
                    rhs[r] += sign * term[r]
                prefix = A.group.add(prefix, A.degrees[xs[s]])
            yprefix = A.group.zero()
            for j in range(n):
                sign = A.eps.value(d, A.group.add(xdeg, yprefix))
                inner_j = A.bracket([acols[ys[u]] for u in range(j)] + [ecols[ys[j]]] +
                                    [acols[ys[u]] for u in range(j + 1, n)])
                term = A.bracket([acols[i] for i in xs] + [inner_j])
                for r in range(A.dim):
                    rhs[r] += sign * term[r]
                yprefix = A.group.add(yprefix, A.degrees[ys[j]])
            out.extend(l - r for l, r in zip(lhs, rhs))
    return out


def triple_derivation_residual(A, E, k, d):
    out = []
    C1 = E.matrix * A.alpha
    C2 = A.alpha * E.matrix
    out.extend((C1 - C2).flatten())
    ak = plain_power(A.alpha, k)
    acols = [ak.column(i) for i in range(A.dim)]
    ecols = [E.matrix.column(i) for i in range(A.dim)]
    for x in range(A.dim):
        for y in range(A.dim):
            for z in range(A.dim):
                lhs = E.apply(A.bracket([_unit(A.dim, x),
                                         list(A.bracket_basis((y, z)))]))
                t1 = A.bracket([ecols[x], A.bracket([acols[y], acols[z]])])
                t2 = A.bracket([acols[x], A.bracket([ecols[y], acols[z]])])
                t3 = A.bracket([acols[x], A.bracket([acols[y], ecols[z]])])
                sx = A.eps.value(d, A.degrees[x])
                sxy = A.eps.value(d, A.group.add(A.degrees[x], A.degrees[y]))
                rhs = [t1[r] + sx * t2[r] + sxy * t3[r] for r in range(A.dim)]
                out.extend(l - r for l, r in zip(lhs, rhs))
    return out


RESIDUALS = {
    "der": derivation_residual,
    "dder": double_derivation_residual,
    "tder": triple_derivation_residual,
}


def naive_space_dimension(A, kind, k):
    """Total graded dimension of a map space via the independent route."""
    residual = RESIDUALS[kind]
    degs = {A.group.zero()}
    for j in range(A.dim):
        for i in range(A.dim):
            degs.add(A.group.sub(A.degrees[j], A.degrees[i]))
    total = 0
    for d in sorted(degs):
        positions = [(j, i) for j in range(A.dim) for i in range(A.dim)
                     if A.degrees[j] == A.group.add(A.degrees[i], d)]
        if not positions:
            continue
        rows_t = []
        for (j, i) in positions:
            data = [[F0] * A.dim for _ in range(A.dim)]
            data[j][i] = F1
            rows_t.append(residual(A, HomMap(d, Matrix(data)), k, d))
        nres = len(rows_t[0])
        rows = [[rows_t[v][r] for v in range(len(positions))] for r in range(nres)]
        total += gauss_nullity_rightmost(rows, len(positions))
    return total


def direct_sum(A, B, name):
    """Componentwise direct sum of two algebras on one grading, twisted by
    the block twist alpha_A + alpha_B."""
    assert A.arity == B.arity
    constants = {}
    for t, v in A.constants.items():
        constants[t] = dict(v)
    for t, v in B.constants.items():
        constants[tuple(i + A.dim for i in t)] = {j + A.dim: c
                                                  for j, c in v.items()}
    basis = [(f"a_{nm}", deg) for nm, deg in A.basis] + \
            [(f"b_{nm}", deg) for nm, deg in B.basis]
    alpha = Matrix([list(row) + [F0] * B.dim for row in A.alpha.data]
                   + [[F0] * A.dim + list(row) for row in B.alpha.data])
    return ColorAlgebra(name, A.arity, A.group, A.eps, basis, alpha, constants)


def color_simple_nlie(n):
    """The simple n-Lie algebra made an eps-colour algebra by Scheunert's
    cocycle twist (J. Math. Phys. 20 (1979)): e1, e2, e3 of degrees a, b,
    a + b in Z/2 x Z/2 and the other basis vectors of degree 0; with
    sigma(a, b) = -1 and 1 on the other generator pairs, each stored value
    is multiplied by the product of sigma(|x_p|, |x_q|) over p < q, and
    eps(u, v) = sigma(u, v) / sigma(v, u).  So eps(g, g) = 1 on every
    degree, but eps(a, b) = -1: repeated indices are dropped while the
    signs between distinct degrees are not trivial."""
    simple = build_simple_nlie(n)
    g = GradingGroup(torsion=(2, 2))
    degrees = ([g.element(torsion=(1, 0)), g.element(torsion=(0, 1)),
                g.element(torsion=(1, 1))] + [g.zero()] * (n - 2))
    constants = {}
    for t, value in simple.constants.items():
        sign = 1
        for p in range(len(t)):
            for q in range(p + 1, len(t)):
                sign *= (-1) ** (degrees[t[p]].torsion[0]
                                 * degrees[t[q]].torsion[1])
        constants[t] = {j: sign * c for j, c in value.items()}
    eps = Bicharacter(g, [[1, -1], [-1, 1]])
    name = "COLOR_A4" if n == 3 else f"COLOR_SIMPLE_{n + 1}D_{n}LIE"
    return ColorAlgebra(name, n, g, eps,
                        [(f"e{i + 1}", d) for i, d in enumerate(degrees)],
                        simple.alpha, constants)


def conjugate_algebra(A, P, name):
    """A rewritten in the basis {P e_i}: constants P^-1 [P e_i, ...] and
    twist P^-1 alpha P.

    P must be invertible and map each degree's basis vectors into their own
    degree (block-diagonal by degree).  The result is isomorphic to A, so it
    validates, but its bracket table is dense.
    """
    Pinv = P.inverse()
    assert Pinv is not None
    assert all(P[j][i] == 0 for j in range(A.dim) for i in range(A.dim)
               if A.degrees[j] != A.degrees[i])
    pcols = [P.column(i) for i in range(A.dim)]
    constants = {}
    for t in A.all_tuples():
        w = A.bracket([pcols[i] for i in t])
        v = Pinv.apply(w)
        entry = {j: c for j, c in enumerate(v) if c != 0}
        if entry:
            constants[t] = entry
    return ColorAlgebra(name, A.arity, A.group, A.eps, list(A.basis),
                        Pinv * A.alpha * P, constants)


def random_basis_change(A, rng):
    """Random invertible P, block-diagonal by degree, with small rational
    entries."""
    while True:
        data = [[F0] * A.dim for _ in range(A.dim)]
        for j in range(A.dim):
            for i in range(A.dim):
                if A.degrees[j] == A.degrees[i]:
                    data[j][i] = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        P = Matrix(data)
        if P.inverse() is not None:
            return P


def random_hom_map(A, degree, rng):
    """Random block-structured map with small rational entries."""
    data = [[F0] * A.dim for _ in range(A.dim)]
    for j in range(A.dim):
        for i in range(A.dim):
            if A.degrees[j] == A.group.add(A.degrees[i], degree):
                data[j][i] = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return HomMap(degree, Matrix(data))


def project_onto_maps(basis_maps, target):
    """Exact orthogonal projection of a map onto the span of basis maps."""
    from nhlc.linalg import solve_particular
    if not basis_maps:
        rows, cols = target.matrix.rows, target.matrix.cols
        return HomMap(target.degree,
                      Matrix([[0] * cols for _ in range(rows)]))
    rows = [m.matrix.flatten() for m in basis_maps]
    v = target.matrix.flatten()
    gram = [[sum((a * b for a, b in zip(r1, r2)), F0) for r2 in rows] for r1 in rows]
    rhs = [sum((a * b for a, b in zip(r, v)), F0) for r in rows]
    y = solve_particular(Matrix(gram), rhs)
    assert y is not None
    flat = [F0] * len(v)
    for c, r in zip(y, rows):
        if c:
            flat = [a + c * b for a, b in zip(flat, r)]
    dim = basis_maps[0].matrix.rows
    return HomMap(target.degree,
                  Matrix([flat[r * dim:(r + 1) * dim] for r in range(dim)]))


def subspace_eq(span_a, span_b):
    """Equality of spans; canonical RREF bases are unique per subspace."""
    from nhlc.linalg import span_basis
    return span_basis(span_a) == span_basis(span_b)


def in_map_span(basis_maps, target):
    from nhlc.linalg import span_basis, subspace_contains
    rows = span_basis([m.matrix.flatten() for m in basis_maps
                       if m.degree == target.degree])
    return subspace_contains(rows, target.matrix.flatten())


# -- inputs and environment shared by test modules ------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def src_env(**extra):
    """The environment of a child process: os.environ with this checkout's
    src first on PYTHONPATH, so that the child runs the nhlc under test
    whether or not the suite was started with PYTHONPATH, plus extra."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""),
                **extra)


# eps(odd, odd) = 2 is no bicharacter of Z/2; at arity 6 any sweep of the
# Jacobi identity over ordered tuple pairs visits 4^5 x 4^6 of them
BAD_EPS_DOC = {
    "name": "bad-eps", "arity": 6, "group": {"free_rank": 0, "torsion": [2]},
    "bicharacter": [["2"]],
    "basis": [{"name": n, "degree": [d]} for n, d in
              [("a", 0), ("b", 1), ("c", 0), ("d", 1)]],
    "alpha": [[str(int(i == j)) for j in range(4)] for i in range(4)],
    "brackets": []}
