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
A._space_cache, filled by memo(), each under the data it depends on:

- (kind, twist class j of k): the solved space of der, dder, inner or tder,
  one GradedMapSpace whose blocks are labelled j (_cached_space); each
  space keeps the canonical spans of its degrees (GradedMapSpace.span);
- ("inner generators", twist class of k): the nonzero ad maps of
  inner_generators;
- ("hypothesis", name) and ("hypothesis", "inner", k_max): the verdicts of
  require();
- ("certified", kind, twist class of t): the solved der or dder space at t
  if the oracle passes every basis map of it, else None (oracle_verdict);
- ("map algebra", degrees and matrices of the merged basis): the validated
  map algebra on that basis, whose views of every kind share its memos
  (maps_as_color_algebra);
- ("decomposition",): the bracket decomposition data of delta;
- ("delta", twist class of k): the basis maps of DDer^k with their images
  delta_D (delta._basis_deltas);
- ("delta images", twist class of k, degree): delta_R of each row R of the
  canonical span of DDer^k of that degree, from which delta_of combines
  delta_D by D's coordinates (delta._span_deltas).
"""

from itertools import chain

from .algebra import (ColorAlgebra, HomMap, distinct_twist_pairs,
                      distinct_twists, live_tuples, twist_class,
                      validate_algebra)
from .errors import (AlgebraValidationError, ArityError, DomainError,
                     HypothesisError, ShapeError, TruncationError)
from .linalg import (F0, F1, Matrix, RowReducer, accumulate, coords_in_basis,
                     nullspace_of_columns, nullspace_of_rows, product_sum,
                     rational, span_basis, subspace_contains, support)
from .report import ValidationReport

KIND_LABELS = {"der": "Der", "dder": "DDer", "inner": "Inn"}


class MapBlock:
    """Homogeneous maps of one degree at twist power k; a solved space
    labels its blocks with the twist class of k."""

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
    """Homogeneous map blocks of one kind."""

    def __init__(self, algebra, kind, blocks):
        self.algebra = algebra
        self.kind = kind
        self.blocks = blocks
        self._spans = {}   # degree -> span(degree)

    def dimension(self):
        return sum(len(b.basis) for b in self.blocks)

    def maps(self):
        return [m for b in self.blocks for m in b.basis]

    def degrees(self):
        return sorted({b.degree for b in self.blocks})

    def span(self, degree):
        """Canonical (RREF) basis of the span of the maps of one degree, as
        flattened matrices, computed once per space with the sparse rows
        that membership tests read (linalg.Basis)."""
        if degree not in self._spans:
            self._spans[degree] = span_basis([
                m.matrix.flatten() for b in self.blocks
                if b.degree == degree for m in b.basis])
        return self._spans[degree]

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


def _cached_space(A, kind, k, builder):
    """The solved space of kind at twist power k, one object per twist class
    j of k (alpha^j = alpha^k): builder(j) gives its blocks as
    [(degree, [Matrix...])], labelled j."""
    j = twist_class(A, k)
    return memo(A, (kind, j), lambda: GradedMapSpace(A, kind, [
        MapBlock(j, d, [HomMap(d, M) for M in mats])
        for d, mats in builder(j)]))


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


def _leibniz_rows(A, k, d, var_index, xtuples, ytuples):
    """Sparse rows, over the unknowns of var_index, of the identity for the
    unknown map of degree d, one pair (xs, ys) after the other, each row
    with its columns in index order and its zeros dropped; zero rows are
    skipped.
    The values [ys], [alpha^k ys] and [ys] with the unknown in each slot are
    computed once per inner tuple ys.

    A nested y-slot term is [alpha^k xs, v] for a value v of the inner
    bracket with the unknown in one slot.  The bracket is linear in its
    last argument, so it is sum over r of v_r [alpha^k xs, e_r]: it is read
    off one table per xs of the columns of w -> [alpha^k xs, w], each
    bracketed once, on first use, in place of one bracket per unknown and
    slot.  The arithmetic is exact, so every term, and so every row and
    its order, is the same as the direct bracket's."""
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

    def ad_term(ad, xargs, v):
        # [alpha^k xs, v] from the columns ad[r] = [alpha^k xs, e_r],
        # each bracketed on first use
        acc = {}
        for r, c in v:
            col = ad.get(r)
            if col is None:
                col = ad[r] = A.sparse_bracket(xargs + [[(r, F1)]])
            accumulate(acc, col, c)
        return acc.items()

    inner = {}
    for xs in xtuples:
        xargs = [acols[i] for i in xs]
        xunits = [[(i, F1)] for i in xs]
        xdeg = A.degree_sum(A.degrees[i] for i in xs)
        ad = {}   # the column table of w -> [alpha^k xs, w]
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
                    (p, [(vx, ad_term(ad, xargs, v)) for vx, v in terms])
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
    return _cached_space(A, "der", k, lambda j: _solve_blocks(
        A, j, [()], live_tuples(A.degrees, A.eps, A.arity)))


def double_derivation_space(algebra, k):
    """Maps satisfying the nested-bracket rule; needs arity >= 3."""
    A = algebra
    if A.arity < 3:
        raise ArityError("double derivations need arity >= 3")
    return _cached_space(A, "dder", k, lambda j: _solve_blocks(
        A, j, live_tuples(A.degrees, A.eps, A.arity - 1),
        live_tuples(A.degrees, A.eps, A.arity)))


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
    (arguments, their degrees, map), built once per twist class of k."""
    A = algebra
    j = twist_class(A, k)

    def build():
        fixed = fixed_point_basis(A)
        gens = []
        for combo in live_tuples([g for g, _ in fixed], A.eps, A.arity - 1):
            xs = [fixed[i][1] for i in combo]
            m = ad_map(A, xs, j)
            if not m.matrix.is_zero():
                gens.append((xs, [fixed[i][0] for i in combo], m))
        return gens
    return memo(A, ("inner generators", j), build)


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
    return _cached_space(A, "inner", k, build)


def union_space(algebra, kind, k_max):
    """The blocks of the solved "der", "dder" or "inner" spaces at the twist
    powers 0..k_max, as one space.  A repeated alpha^k repeats its blocks,
    which add nothing to any span, so only distinct_twists are taken."""
    solve = {"der": derivation_space, "dder": double_derivation_space,
             "inner": inner_space}[kind]
    return GradedMapSpace(algebra, kind, [
        b for k in distinct_twists(algebra, k_max)
        for b in solve(algebra, k).blocks])


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


def holds(algebra, k_max, name):
    """Whether the algebra meets the named hypothesis of _HYPOTHESES; "inner"
    asks for a nonzero inner map at some twist power in [0, k_max].  The
    verdict is kept in the space cache."""
    test = _HYPOTHESES[name][0]
    key = ("hypothesis", name, k_max) if name == "inner" else ("hypothesis", name)
    return memo(algebra, key, lambda: test(algebra, k_max))


def require(algebra, k_max, *names):
    """Raise HypothesisError for the first named hypothesis, in the given
    order, that the algebra fails (holds)."""
    for name in names:
        if not holds(algebra, k_max, name):
            raise HypothesisError(_HYPOTHESES[name][1])


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
    """[D, D'] = D D' - eps(d, d') D' D, of degree d + d', summed in one
    accumulation per row over the kept sparse rows of both matrices
    (linalg.product_sum) and made dense and canonical once."""
    M1, M2 = D1.matrix, D2.matrix
    mat = product_sum([(F1, M1, M2), (-eps.value(D1.degree, D2.degree), M2, M1)],
                      M1.rows, M2.cols)
    return HomMap(eps.group.add(D1.degree, D2.degree), mat)


def alpha_shift(algebra, D):
    """The induced twist on map spaces: D -> D o alpha."""
    return HomMap(D.degree, D.matrix * algebra.alpha)


def oracle_verdict(algebra, kind, D, t):
    """The oracle's (ok, witness) for D at twist power t, kind "der"
    (oracle.is_derivation) or "dder" (oracle.is_double_derivation),
    answered by membership where that is a proof:

    - the oracle's identity for degree d at alpha^t (twist commutation and
      the Leibniz rule of the kind on every tuple pair) is linear in the
      map, so when the oracle passes every basis map of the solved space
      of the kind at t, every map in their span of degree d passes it too;
    - the basis is therefore certified by the oracle once per twist class
      of t, kept in the space cache under ("certified", kind, class), and a
      map in the span of a certified basis (GradedMapSpace.contains)
      passes with (True, None);
    - a map outside that span, and every map checked against a basis that
      did not fully certify, goes to the oracle, whose (ok, witness) is
      returned.

    So the verdict is the oracle's on every input, whether or not the
    solver's space is right.
    """
    # imported here only, so a process that only solves spaces does not
    # compile the oracle; it and the solvers are looked up at call time
    from . import oracle
    A = algebra
    check, solve = {
        "der": (oracle.is_derivation, derivation_space),
        "dder": (oracle.is_double_derivation, double_derivation_space)}[kind]

    def certify():
        space = solve(A, t)
        return space if all(check(A, B, t)[0] for B in space.maps()) else None
    certified = memo(A, ("certified", kind, twist_class(A, t)), certify)
    if certified is not None and certified.contains(D):
        return True, None
    return check(A, D, t)


def verify_double_derivation_closure(algebra, k_max):
    """Closure of the double-derivation spaces under the induced twist
    D -> D o alpha and the color commutator.

    Each shift D o alpha of a basis map of DDer^k must lie in DDer^(k+1),
    and each commutator of basis maps of DDer^k and DDer^s in DDer^(k+s).
    Every verdict and witness is the oracle's, answered by membership in a
    certified span where that is a proof (oracle_verdict).
    """
    A = algebra
    require(A, k_max, "arity")
    report = ValidationReport()
    checks = 0
    for k in distinct_twists(A, k_max):
        for idx, D in enumerate(double_derivation_space(A, k).maps()):
            ok, wit = oracle_verdict(A, "dder", alpha_shift(A, D), k + 1)
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
                ok, wit = oracle_verdict(A, "dder", C, k + s)
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
                if not inner_next.contains(alpha_shift(A, I)):
                    report.add("inner-shift", witness=(k, block.degree, idx),
                               expected="contained in inner span at k+1",
                               actual="outside")
    for s, k in distinct_twist_pairs(A, k_max):
        inner_k = inner_space(A, k).blocks
        inner_sum = inner_space(A, k + s)
        for i, D in enumerate(double_derivation_space(A, s).maps()):
            for block in inner_k:
                for j, I in enumerate(block.basis):
                    if not inner_sum.contains(color_commutator(D, I, A.eps)):
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
    AlgebraValidationError when the constructed algebra fails validation.
    The algebra is fixed by its basis and the ambient eps and twist, so it
    is built and validated once per merged basis and kept in A's space
    cache; a failed build is not kept.  Each call returns it named after
    the space's kind (DDer(A), Inn(A) or Der(A)), as a view that shares
    every memo (ColorAlgebra.renamed), so the map algebras on one basis
    solve their spaces once.
    """
    A = space.algebra
    basis_maps = space.merged_basis()
    if not basis_maps:
        raise TruncationError("cannot build an algebra on an empty map space")
    name = f"{KIND_LABELS[space.kind]}({A.name})"
    key = ("map algebra", tuple((bm.degree, bm.matrix.data)
                                for bm in basis_maps))
    algebra = memo(A, key, lambda: _map_algebra(space, basis_maps, name))
    return algebra.renamed(name)


def _map_algebra(space, basis_maps, name):
    """The validated binary algebra on basis_maps, the merged basis of space
    (maps_as_color_algebra)."""
    A = space.algebra
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
    basis = [(f"D{i + 1}", bm.degree) for i, bm in enumerate(basis_maps)]
    out = ColorAlgebra(name, 2, A.group, A.eps, basis, alpha, constants)
    rep = validate_algebra(out)
    if not rep.ok:
        raise AlgebraValidationError(
            "map algebra fails validation (twist-shift may not be multiplicative)",
            rep)
    return out
