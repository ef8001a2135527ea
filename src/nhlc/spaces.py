"""Derived linear-algebraic objects of a color algebra.

Twisted-derivation-type spaces are computed as exact nullspaces.
Derivations, double derivations and triple derivations satisfy one
identity: for a map D of degree d, twist power k and a multilinear map M,

    D(M(xs, ys)) = sum over the leaves t of M of
                   eps(d, degree of the leaves before t) * M(..., D t, ...)

with alpha^k on every leaf other than t.  M(xs, ys) is [ys] when the outer
tuple set is [()] and [xs, [ys]] otherwise; the leaves are xs, then ys.
The kinds differ only in their tuple sets (xtuples, ytuples), where a
live m-tuple is a sorted one that repeats an index only when its degree g
has eps(g, g) = -1 (live_tuples; every other tuple gives zero rows):

- der:  ([()], live n-tuples);
- dder: (live (n-1)-tuples, live n-tuples);
- tder: (singletons, live pairs), in triple.py.

For each candidate map degree the identity is imposed on every pair of the
tuple sets, together with commutation with the twist, and the kernel of the
resulting rational system is returned as a homogeneous map basis.  The
center, the centralizers, the derived subalgebra and the inner generators
sweep live tuples too.

Spaces depend on the twist power only through the matrix alpha^k; for
twists of finite order the blocks repeat (algebra.distinct_twists), and the
twist class of k, the least j with alpha^j = alpha^k (algebra.twist_class),
keys them.
Every memo of the algebra's derived data lives in its one dict
A._space_cache, filled by memo():

- (kind, twist class of k): the solved blocks of der, dder, inner and tder;
- ("span", kind, degree, set of twist classes): the canonical span of one
  degree of a solved space (GradedMapSpace.span);
- ("hypothesis", name) and ("hypothesis", "inner", k_max): the verdicts of
  require();
- ("decomposition",): the bracket decomposition data of delta;
- ("delta", twist class of k): the basis maps of DDer^k with their images
  delta_D (delta._basis_deltas).
"""

from itertools import chain

from . import oracle
from .algebra import (ColorAlgebra, HomMap, distinct_twist_pairs,
                      distinct_twists, live_tuples, twist_class,
                      validate_algebra)
from .errors import (AlgebraValidationError, ArityError, DomainError,
                     HypothesisError, ShapeError, TruncationError)
from .linalg import (F0, F1, Matrix, RowReducer, accumulate, coords_in_basis,
                     nullspace_of_columns, nullspace_of_rows, rational,
                     span_basis, subspace_contains, support)
from .report import ValidationReport

KIND_LABELS = {"der": "Der", "dder": "DDer", "inner": "Inn", "tder": "TDer",
               "centralizer": "Cent"}


class MapBlock:
    """Homogeneous maps of one degree at twist power k."""

    def __init__(self, k, degree, basis):
        self.k = k
        self.degree = degree
        self.basis = basis


def memo(algebra, key, build):
    """The value of key in the algebra's space cache, built on first use."""
    cache = algebra._space_cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _unflatten(A, row):
    n = A.dim
    return Matrix([row[r * n:(r + 1) * n] for r in range(n)])


class GradedMapSpace:
    """Homogeneous map blocks of one kind.  solved marks blocks that are the
    solver's own (see _blocks_to_space and union_space): the span of one
    degree then depends only on the kind and on the twist powers alpha^k of
    the blocks, so span() keeps it in the algebra's space cache."""

    def __init__(self, algebra, kind, blocks, solved=False):
        self.algebra = algebra
        self.kind = kind
        self.blocks = blocks
        self.solved = solved

    def dimension(self):
        return sum(len(b.basis) for b in self.blocks)

    def maps(self):
        return [m for b in self.blocks for m in b.basis]

    def degrees(self):
        return sorted({b.degree for b in self.blocks})

    def span(self, degree):
        """Canonical (RREF) basis of the span of the maps of one degree, as
        flattened matrices; for a solved space, one per (kind, degree, set
        of the blocks' twist classes)."""
        def build():
            return span_basis([m.matrix.flatten() for b in self.blocks
                               if b.degree == degree for m in b.basis])
        if not self.solved:
            return build()
        A = self.algebra
        return memo(A, ("span", self.kind, degree, frozenset(
            twist_class(A, b.k) for b in self.blocks)), build)

    def merged_basis(self):
        """The span bases of all degrees, in degree order, as maps.  Twist
        power labels are dropped: blocks of different powers may overlap."""
        return [HomMap(d, _unflatten(self.algebra, row))
                for d in self.degrees() for row in self.span(d)]

    def contains(self, D):
        """Whether D lies in the span of the space's maps of degree D.degree."""
        return subspace_contains(self.span(D.degree), D.matrix.flatten())

    def coordinates(self, D):
        """Coordinates of D in merged_basis(), or None when D is outside."""
        co = coords_in_basis(self.span(D.degree), D.matrix.flatten())
        if co is None:
            return None
        return [c for d in self.degrees() for c in (
            co if d == D.degree else [F0] * len(self.span(d)))]


def candidate_degrees(algebra):
    """All degrees a nonzero homogeneous endomorphism can have."""
    A = algebra
    degs = {A.group.zero()}
    for j in range(A.dim):
        for i in range(A.dim):
            degs.add(A.group.sub(A.degrees[j], A.degrees[i]))
    return sorted(degs)


def _allowed_positions(A, d):
    return [(j, i) for j in range(A.dim) for i in range(A.dim)
            if A.degrees[j] == A.group.add(A.degrees[i], d)]


def _alpha_commute_rows(A, vars_):
    """Sparse rows of D alpha = alpha D for D = sum of x_ji E_ji over the
    unknown positions (j, i): the column of (j, i) is E_ji alpha - alpha E_ji,
    flattened row by row.  Rows come in index order, each with its columns
    in order and its zeros dropped; zero rows are skipped."""
    al = A.alpha
    n = A.dim
    rows = [{} for _ in range(n * n)]
    for vx, (j, i) in enumerate(vars_):   # each row's columns in order
        for q in range(n):
            accumulate(rows[j * n + q], [(vx, al[i][q])])
        for p in range(n):
            accumulate(rows[p * n + i], [(vx, -al[p][j])])
    rows = [[(vx, c) for vx, c in row.items() if c] for row in rows]
    return [row for row in rows if row]


def _cached_blocks(A, kind, k, builder):
    """The blocks of kind at twist power k, built once per twist class j
    as builder(j); alpha^j = alpha^k."""
    j = twist_class(A, k)
    return memo(A, (kind, j), lambda: builder(j))


def _solve_blocks(A, k, xtuples, ytuples):
    """Kernel blocks [(degree, [Matrix...])] of the Leibniz system of the
    tuple sets xtuples and ytuples (see _leibniz_rows)."""
    out = []
    for d in candidate_degrees(A):
        vars_ = _allowed_positions(A, d)
        if not vars_:
            continue
        var_index = {v: x for x, v in enumerate(vars_)}
        nvars = len(vars_)
        red = RowReducer(nvars)
        for row in chain(_alpha_commute_rows(A, vars_),
                         _leibniz_rows(A, k, d, var_index, xtuples, ytuples)):
            red.add(row)
            if red.rank == nvars:
                break
        mats = []
        for v in red.nullspace():
            data = [[F0] * A.dim for _ in range(A.dim)]
            for (j, i), vx in var_index.items():
                if v[vx]:
                    data[j][i] = v[vx]
            mats.append(Matrix(data))
        if mats:
            out.append((d, mats))
    return out


def _blocks_to_space(A, kind, k, blocks):
    return GradedMapSpace(A, kind, [
        MapBlock(k, d, [HomMap(d, M) for M in mats]) for d, mats in blocks],
        solved=True)


def _leibniz_rows(A, k, d, var_index, xtuples, ytuples):
    """Sparse rows, over the unknowns of var_index, of the identity for the
    unknown map of degree d, one pair (xs, ys) after the other, each row
    with its columns in index order and its zeros dropped; zero rows are
    skipped.
    The values [ys], [alpha^k ys] and [ys] with the unknown in each slot are
    computed once per inner tuple ys."""
    dim = A.dim
    g = A.group
    acols = A.alpha_columns(k)
    nested = xtuples != [()]

    def unknown_slots(ts, tail):
        # per slot of ts: (degree of the leaves before it, [(vx, term)]),
        # term = [alpha^k ts with e_j in the slot, *tail] for unknowns (j, t)
        out = []
        prefix = g.zero()
        for q, t in enumerate(ts):
            args = [acols[i] for i in ts] + tail
            terms = []
            for j in range(dim):
                vx = var_index.get((j, t))
                if vx is not None:
                    args[q] = [(j, F1)]
                    terms.append((vx, A.sparse_bracket(args)))
            out.append((prefix, terms))
            prefix = g.add(prefix, A.degrees[t])
        return out

    inner = {}
    for xs in xtuples:
        xargs = [acols[i] for i in xs]
        xunits = [[(i, F1)] for i in xs]
        xdeg = A.degree_sum(A.degrees[i] for i in xs)
        for ys in ytuples:
            if ys not in inner:
                inner[ys] = (support(A.bracket_basis(ys)),
                             A.sparse_bracket([acols[i] for i in ys])
                             if nested else None,
                             unknown_slots(ys, []))
            value, value_k, yslots = inner[ys]
            slots = [(g.add(xdeg, p), terms) for p, terms in yslots]
            if nested:
                value = A.sparse_bracket(xunits + [value])
                slots = unknown_slots(xs, [value_k]) + [
                    (p, [(vx, A.sparse_bracket(xargs + [v])) for vx, v in terms])
                    for p, terms in slots]
            # row r is D(value)_r minus the signed slot terms; the
            # coefficients of each unknown vx are gathered as {r: c}
            cols = {}
            for i, c in value:
                for r in range(dim):
                    vx = var_index.get((r, i))
                    if vx is not None:
                        cols[vx] = {r: c}
            for prefix, terms in slots:
                sign = -A.eps.value(d, prefix)
                for vx, term in terms:
                    accumulate(cols.setdefault(vx, {}), term, sign)
            rows = [[] for _ in range(dim)]
            for vx in sorted(cols):
                for r, c in cols[vx].items():
                    if c:
                        rows[r].append((vx, c))
            for row in rows:
                if row:
                    yield row


def derivation_space(algebra, k):
    """Basis of the twisted derivations for one twist power, per degree."""
    A = algebra
    blocks = _cached_blocks(A, "der", k, lambda j: _solve_blocks(
        A, j, [()], live_tuples(A.degrees, A.eps, A.arity)))
    return _blocks_to_space(A, "der", k, blocks)


def double_derivation_space(algebra, k):
    """Maps satisfying the nested-bracket rule; needs arity >= 3."""
    A = algebra
    if A.arity < 3:
        raise ArityError("double derivations need arity >= 3")
    blocks = _cached_blocks(A, "dder", k, lambda j: _solve_blocks(
        A, j, live_tuples(A.degrees, A.eps, A.arity - 1),
        live_tuples(A.degrees, A.eps, A.arity)))
    return _blocks_to_space(A, "dder", k, blocks)


# ---------------------------------------------------------------------------
# inner maps
# ---------------------------------------------------------------------------

def ad_map(algebra, xs, k):
    """The map y -> [x_1, ..., x_{n-1}, alpha^k(y)] for twist-fixed x_i."""
    A = algebra
    if k < 0:
        raise DomainError("inner twist power must be nonnegative")
    if len(xs) != A.arity - 1:
        raise ShapeError(f"expected {A.arity - 1} arguments")
    xs = [[rational(c) for c in x] for x in xs]
    degs = []
    for x in xs:
        if len(x) != A.dim:
            raise ShapeError("argument length does not match dimension")
        dset = {A.degrees[i] for i, c in enumerate(x) if c != 0}
        if len(dset) > 1:
            raise DomainError("inner generator argument is not homogeneous")
        degs.append(dset.pop() if dset else A.group.zero())
        if A.alpha.apply(x) != x:
            raise DomainError("inner generator argument is not fixed by the twist")
    ak = A.alpha_power(k)
    cols = [A.bracket(xs + [ak.column(q)]) for q in range(A.dim)]
    return HomMap(A.degree_sum(degs), Matrix.from_columns(cols, A.dim))


def fixed_point_basis(algebra):
    """Graded basis of the fixed space of the twist, as (degree, vector)."""
    A = algebra
    out = []
    for g in sorted(set(A.degrees)):
        idxs = [i for i in range(A.dim) if A.degrees[i] == g]
        rows = [[A.alpha[r][c] - (F1 if r == c else F0) for c in idxs]
                for r in idxs]
        for kv in nullspace_of_rows(rows, len(idxs)):
            v = A.zero_vector()
            for pos, c in zip(idxs, kv):
                v[pos] = c
            out.append((g, v))
    return out


def inner_generators(algebra, k):
    """All nonzero ad maps on tuples from the fixed graded basis, as
    (arguments, their degrees, map)."""
    A = algebra
    fixed = fixed_point_basis(A)
    gens = []
    for combo in live_tuples([g for g, _ in fixed], A.eps, A.arity - 1):
        xs = [fixed[i][1] for i in combo]
        m = ad_map(A, xs, k)
        if not m.matrix.is_zero():
            gens.append((xs, [fixed[i][0] for i in combo], m))
    return gens


def inner_space(algebra, k):
    """Span of the inner ad maps for one twist power, per degree."""
    A = algebra
    if k < 0:
        raise DomainError("inner twist power must be nonnegative")

    def build(j):
        gens = GradedMapSpace(A, "inner", [
            MapBlock(j, m.degree, [m]) for _, _, m in inner_generators(A, j)])
        return [(d, [_unflatten(A, row) for row in gens.span(d)])
                for d in gens.degrees()]
    return _blocks_to_space(A, "inner", k, _cached_blocks(A, "inner", k, build))


def union_space(algebra, kind, k_max):
    """The blocks of the solved "der", "dder" or "inner" spaces at the twist
    powers 0..k_max, as one solved space.  A repeated alpha^k repeats its
    blocks, which add nothing to any span, so only distinct_twists are
    taken."""
    solve = {"der": derivation_space, "dder": double_derivation_space,
             "inner": inner_space}[kind]
    return GradedMapSpace(algebra, kind, [
        b for k in distinct_twists(algebra, k_max)
        for b in solve(algebra, k).blocks], solved=True)


# ---------------------------------------------------------------------------
# subspaces of the algebra itself
# ---------------------------------------------------------------------------

def derived_subalgebra(algebra):
    """Canonical basis of the span of all bracket values."""
    A = algebra
    return span_basis([A.bracket_basis(t)
                       for t in live_tuples(A.degrees, A.eps, A.arity)])


def is_perfect(algebra):
    return len(derived_subalgebra(algebra)) == algebra.dim


def center(algebra):
    """Elements bracketing to zero against every basis completion."""
    A = algebra
    tails = live_tuples(A.degrees, A.eps, A.arity - 1)
    return nullspace_of_columns(
        [[c for tail in tails for c in A.bracket_basis((q,) + tail)]
         for q in range(A.dim)], A.dim)


# the hypotheses of the verified laws: name -> (test(algebra, k_max), message);
# only "inner" depends on k_max
_HYPOTHESES = {
    "arity": (lambda A, k_max: A.arity >= 3, "arity < 3"),
    "perfect": (lambda A, k_max: is_perfect(A), "algebra is not perfect"),
    "centerless": (lambda A, k_max: not center(A), "algebra has nonzero center"),
    "inner": (lambda A, k_max: any(inner_space(A, k).dimension() > 0
                                   for k in distinct_twists(A, k_max)),
              "no nonzero inner maps (no twist-fixed points)"),
}


def require(algebra, k_max, *names):
    """Raise HypothesisError for the first named hypothesis, in the given
    order, that the algebra fails; "inner" asks for a nonzero inner map at
    some twist power in [0, k_max].  Verdicts are kept in the space cache."""
    for name in names:
        holds, message = _HYPOTHESES[name]
        key = (("hypothesis", name, k_max) if name == "inner"
               else ("hypothesis", name))
        if not memo(algebra, key, lambda: holds(algebra, k_max)):
            raise HypothesisError(message)


def centralizer(algebra, span_vectors):
    """Elements whose bracket with the given subspace (slot 2) vanishes."""
    A = algebra
    svs = [[rational(c) for c in v] for v in span_vectors]
    if any(len(s) != A.dim for s in svs):
        raise ShapeError("subspace vector length does not match dimension")
    tails = [[A.basis_vector(t) for t in tail]
             for tail in live_tuples(A.degrees, A.eps, A.arity - 2)]
    return nullspace_of_columns(
        [[c for s in svs for tail in tails
          for c in A.bracket([A.basis_vector(q), s] + tail)]
         for q in range(A.dim)], A.dim)


# ---------------------------------------------------------------------------
# the map calculus
# ---------------------------------------------------------------------------

def color_commutator(D1, D2, eps):
    """[D, D'] = D D' - eps(d, d') D' D, of degree d + d'."""
    sign = eps.value(D1.degree, D2.degree)
    back = D2.matrix * D1.matrix
    mat = D1.matrix * D2.matrix - (back if sign == 1 else back.scale(sign))
    return HomMap(eps.group.add(D1.degree, D2.degree), mat)


def alpha_shift(algebra, D):
    """The induced twist on map spaces: D -> D o alpha."""
    return HomMap(D.degree, D.matrix * algebra.alpha)


def verify_double_derivation_closure(algebra, k_max):
    """Closure of the double-derivation spaces under the induced twist
    D -> D o alpha and the color commutator.

    Each shift D o alpha of a basis map of DDer^k must lie in DDer^(k+1),
    and each commutator of basis maps of DDer^k and DDer^s in DDer^(k+s).
    A check of a map of degree d against twist power t asks for the
    oracle's verdict, but is answered by membership where that is a proof:

    - the oracle's identity for degree d at alpha^t (twist commutation and
      the nested Leibniz rule on every tuple pair) is linear in the map, so
      when the oracle passes every basis map of the solved DDer^t, every
      map in their span of degree d passes it too;
    - the basis of DDer^t is therefore certified by the oracle once per
      distinct alpha^t, and a map in the span of a certified basis
      (GradedMapSpace.contains) passes;
    - a map outside that span, and every map checked against a basis that
      did not fully certify, goes to the oracle, whose (ok, witness) is
      reported.

    So the verdicts and witnesses are the oracle's on every input, whether
    or not the solver's space is right.
    """
    A = algebra
    require(A, k_max, "arity")
    report = ValidationReport()
    certified = {}  # twist class of t -> DDer^t if the oracle passes its basis

    def is_dder(D, t):
        key = twist_class(A, t)
        if key not in certified:
            space = double_derivation_space(A, t)
            certified[key] = space if all(
                oracle.is_double_derivation(A, B, t)[0]
                for B in space.maps()) else None
        if certified[key] is not None and certified[key].contains(D):
            return True, None
        return oracle.is_double_derivation(A, D, t)

    checks = 0
    for k in distinct_twists(A, k_max):
        for idx, D in enumerate(double_derivation_space(A, k).maps()):
            ok, wit = is_dder(alpha_shift(A, D), k + 1)
            checks += 1
            if not ok:
                report.add("closure-shift", witness=(k, idx, wit),
                           expected="double derivation at twist k+1",
                           actual="identity fails")
    for k, s in distinct_twist_pairs(A, k_max):
        if k > s:   # [D2, D1] is a scalar multiple of [D1, D2]
            continue
        maps_k = double_derivation_space(A, k).maps()
        maps_s = double_derivation_space(A, s).maps()
        for i, D1 in enumerate(maps_k):
            for j, D2 in enumerate(maps_s):
                if k == s and j < i:
                    continue
                C = color_commutator(D1, D2, A.eps)
                ok, wit = is_dder(C, k + s)
                checks += 1
                if not ok:
                    report.add("closure-commutator", witness=(k, s, i, j, wit),
                               expected="double derivation at twist k+s",
                               actual="identity fails")
    report.details["checks"] = checks
    return report


def verify_inner_ideal(algebra, k_max):
    """Inner maps form an ideal of the double derivations (perfect algebras):
    the induced twist shifts inner levels up, and commutators with double
    derivations land back in the inner span."""
    A = algebra
    require(A, k_max, "arity", "perfect")
    report = ValidationReport()
    for k in distinct_twists(A, k_max):
        inner_next = inner_space(A, k + 1)
        for block in inner_space(A, k).blocks:
            for idx, I in enumerate(block.basis):
                shifted = alpha_shift(A, I)
                if shifted.matrix.is_zero():
                    continue
                if not inner_next.contains(shifted):
                    report.add("inner-shift", witness=(k, block.degree, idx),
                               expected="contained in inner span at k+1",
                               actual="outside")
    for s, k in distinct_twist_pairs(A, k_max):
        inner_k = inner_space(A, k).blocks
        inner_sum = inner_space(A, k + s)
        for i, D in enumerate(double_derivation_space(A, s).maps()):
            for block in inner_k:
                for j, I in enumerate(block.basis):
                    C = color_commutator(D, I, A.eps)
                    if C.matrix.is_zero():
                        continue
                    if not inner_sum.contains(C):
                        report.add("inner-commutator",
                                   witness=(s, k, i, block.degree, j),
                                   expected="contained in inner span at k+s",
                                   actual="outside")
    return report


def maps_as_color_algebra(space):
    """Package a commutator-closed map space as a binary color algebra.

    Basis: space.merged_basis() in order.  Bracket: color commutator in
    those coordinates.  Twist: composition with the ambient twist.  Raises
    TruncationError when a commutator or twist-shift leaves the span, and
    re-validates the constructed algebra.
    """
    A = space.algebra
    basis_maps = space.merged_basis()
    if not basis_maps:
        raise TruncationError("cannot build an algebra on an empty map space")
    dim = len(basis_maps)
    alpha_cols = []
    for bm in basis_maps:
        co = space.coordinates(alpha_shift(A, bm))
        if co is None:
            raise TruncationError(
                "twist-shift leaves the computed span; raise the twist-power range")
        alpha_cols.append(co)
    alpha = Matrix.from_columns(alpha_cols, dim)
    constants = {}
    for p in range(dim):
        for q in range(p, dim):
            C = color_commutator(basis_maps[p], basis_maps[q], A.eps)
            if C.matrix.is_zero():
                continue
            co = space.coordinates(C)
            if co is None:
                raise TruncationError(
                    "commutator leaves the computed span; raise the twist-power range")
            value = {j: c for j, c in enumerate(co) if c != 0}
            if value:
                constants[(p, q)] = value
    label = KIND_LABELS.get(space.kind, space.kind)
    basis = [(f"D{i + 1}", bm.degree) for i, bm in enumerate(basis_maps)]
    out = ColorAlgebra(f"{label}({A.name})", 2, A.group, A.eps,
                       basis, alpha, constants)
    rep = validate_algebra(out)
    if not rep.ok:
        raise AlgebraValidationError(
            "map algebra fails validation (twist-shift may not be multiplicative)",
            rep)
    return out
