"""Deterministic exact linear algebra over the rationals.

An exact rational has one canonical form, the engine's scalar: an int when
it is integral and a Fraction only when it is not (rational); a float is
refused.  Matrix entries, dense vectors (dense, Matrix.apply) and every
result below are canonical, so integer data runs on int arithmetic from
start to finish and only genuinely fractional values pay for Fraction.

There is one elimination engine, the echelon of RowReducer.  Rows enter
it as sparse vectors and stay sparse integer rows {i: int} of their nonzero
entries from start to finish: each row is scaled to a primitive integer row
and reduced against the pivot rows, leftmost pivot first, by integer
cross-multiplication and gcd division over the nonzero entries of the two
rows, so elimination runs without Fraction arithmetic and without visiting
zeros.  Reduced row echelon forms, kernels, ranks, span bases, particular
solutions and inverses are all read off that echelon: dense rows go in
through their support, and only the final reduced rows of the back
substitution are made dense, each entry an exact quotient.  A row space
has exactly one reduced row echelon form, so every result is independent
of the order in which rows arrive and bit-identical across runs.

A sparse vector is the list [(i, x), ...] of its nonzero entries (support).
Sparse rows are kept per matrix and per span: a Matrix keeps the support of
each row once it is first asked for (Matrix.sparse_rows), and a canonical
basis keeps them from the moment span_basis builds it (Basis.sparse).
Neither is changed after it is built, so the kept rows cannot go stale.
Products, sums of products (product_sum) and linear combinations
(linear_combination) accumulate over the kept rows of their factors, and
membership tests and coordinates (subspace_contains, coords_in_basis) over
those of the basis, so each visits only nonzero entries and makes its
result dense and canonical once; a matrix-vector product visits the
nonzero entries of the vector.
"""

from fractions import Fraction
from math import gcd

from .errors import ShapeError

F0 = 0
F1 = 1


def rational(x):
    """The canonical exact scalar equal to x: x itself when it is an int or
    a Fraction that is not integral, the int when it is an integral
    Fraction, and anything else (a bool, a "p/q" string) converted by
    Fraction first.  A float raises TypeError: the engine computes no
    float, so one that reaches it is an error, not a value.  An int costs
    one type test and a Fraction one denominator test."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, float):
            raise TypeError(f"exact rationals only, got the float {x!r}")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def support(vec):
    """The sparse form [(i, x), ...] of a vector: its nonzero entries in
    index order."""
    return [(i, x) for i, x in enumerate(vec) if x]


def accumulate(acc, sparse, coeff=None):
    """acc[i] += coeff * x for every (i, x) of a sparse vector, on a dict
    {i: rational}; coeff None stands for one.  Entries that cancel stay in
    acc as zeros."""
    for i, x in sparse:
        if coeff is not None:
            x = coeff * x
        got = acc.get(i)
        acc[i] = x if got is None else got + x


def dense(sparse, n):
    """The vector of length n with the entries (i, x) of sparse, made
    canonical (rational), zero elsewhere."""
    out = [F0] * n
    for i, x in sparse:
        out[i] = x if type(x) is int else rational(x)
    return out


class Matrix:
    """Dense immutable rational matrix; its entries are canonical
    (rational)."""

    __slots__ = ("rows", "cols", "data", "_sparse")

    def __init__(self, data, cols=None):
        data = tuple(tuple([x if type(x) is int else rational(x) for x in row])
                     for row in data)
        if data:
            cols = len(data[0])
            if any(len(row) != cols for row in data):
                raise ShapeError("ragged matrix rows")
        elif cols is None:
            cols = 0
        self.data = data
        self.rows = len(data)
        self.cols = cols
        self._sparse = None

    @classmethod
    def identity(cls, n):
        return cls([[F1 if i == j else F0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, rows):
        """The rows x len(columns) matrix with the given columns."""
        return cls([[col[r] for col in columns] for r in range(rows)],
                   cols=len(columns))

    def sparse_rows(self):
        """The support of each row, computed on first use and kept."""
        if self._sparse is None:
            self._sparse = [support(row) for row in self.data]
        return self._sparse

    def __getitem__(self, idx):
        return self.data[idx]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data \
            and self.cols == other.cols

    def __add__(self, other):
        self._same_shape(other)
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)], cols=self.cols)

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return product_sum([(F1, self, other)], self.rows, other.cols)
        return self.scale(other)

    def scale(self, c):
        c = rational(c)
        return Matrix([[c * x for x in row] for row in self.data], cols=self.cols)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("matrix shapes differ")

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        vsup = support(vec)
        out = []
        for row in self.data:
            acc = None
            for j, b in vsup:
                a = row[j]
                if a:
                    acc = a * b if acc is None else acc + a * b
            out.append(F0 if acc is None else rational(acc))
        return out

    def column(self, j):
        return [row[j] for row in self.data]

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def inverse(self):
        """Exact inverse, or None when singular."""
        if self.rows != self.cols:
            raise ShapeError("inverse needs a square matrix")
        n = self.rows
        aug = [list(self.data[i]) + [F1 if j == i else F0 for j in range(n)]
               for i in range(n)]
        red, pivots = rref(aug)
        if pivots != list(range(n)):
            return None
        return Matrix([row[n:] for row in red])

    def flatten(self):
        return [x for row in self.data for x in row]

    def __repr__(self):
        return f"Matrix({[[str(x) for x in row] for row in self.data]})"


def _from_accumulators(accs, cols):
    """The Matrix whose row r holds the entries of the dict accs[r], made
    dense and canonical; the rows are canonical, so it is built without a
    second pass through __init__, and its sparse rows are left to
    sparse_rows."""
    out = object.__new__(Matrix)
    out.data = tuple(tuple(dense(acc.items(), cols)) for acc in accs)
    out.rows, out.cols, out._sparse = len(accs), cols, None
    return out


def product_sum(terms, rows, cols):
    """The rows x cols matrix sum of c L R over the terms (c, L, R), in one
    accumulation per row over the sparse rows of every L and R."""
    accs = [{} for _ in range(rows)]
    for c, L, R in terms:
        if L.rows != rows or L.cols != R.rows or R.cols != cols:
            raise ShapeError("inner dimensions do not match")
        rrows = R.sparse_rows()
        for acc, lrow in zip(accs, L.sparse_rows()):
            for i, a in lrow:
                accumulate(acc, rrows[i], a if c == 1 else c * a)
    return _from_accumulators(accs, cols)


def linear_combination(coeffs, mats, rows, cols):
    """The rows x cols matrix sum of c M over the pairs of coeffs and mats,
    in one accumulation per row over the sparse rows of every M with c
    nonzero."""
    accs = [{} for _ in range(rows)]
    for c, M in zip(coeffs, mats):
        if c:
            if M.rows != rows or M.cols != cols:
                raise ShapeError("matrix shapes differ")
            for acc, row in zip(accs, M.sparse_rows()):
                accumulate(acc, row, c)
    return _from_accumulators(accs, cols)


def _as_int_row(sparse):
    """The sparse row [(i, x), ...] of int or Fraction entries as a
    primitive integer row {i: int}: scaled by the lcm of its denominators,
    divided by the gcd of its entries, zeros dropped.  A row of ints is
    only divided by its gcd."""
    den = 1
    for _, x in sparse:
        if type(x) is not int:
            d = x.denominator
            if d != 1:
                den = den * d // gcd(den, d)
    if den == 1:
        row = {i: x if type(x) is int else x.numerator for i, x in sparse if x}
    else:
        row = {i: x.numerator * (den // x.denominator) for i, x in sparse if x}
    g = gcd(*row.values())
    return {i: v // g for i, v in row.items()} if g > 1 else row


def _cancel(v, p, c):
    """The elimination step on integer rows: a v - b p with a = p[c] / g and
    b = v[c] / g for g = gcd(p[c], v[c]), so column c cancels, divided by
    the gcd of its entries.  Only the nonzero entries of v and p are
    visited, and zeros are dropped."""
    g = gcd(p[c], v[c])
    a, b = p[c] // g, v[c] // g
    out = dict(v) if a == 1 else {j: a * s for j, s in v.items()}
    for j, t in p.items():
        s = out.get(j, 0) - b * t
        if s:
            out[j] = s
        else:
            del out[j]
    g = gcd(*out.values())
    return {j: s // g for j, s in out.items()} if g > 1 else out


def _insert(pivots, sparse):
    """Reduce a sparse rational row against the pivot rows (pivot column ->
    primitive integer row with no entry left of its pivot), leftmost pivot
    first, and keep a nonzero remainder under its leading column.  Returns
    whether the row was independent of the pivot rows."""
    v = _as_int_row(sparse)
    while v:
        c = min(v)
        p = pivots.get(c)
        if p is None:
            pivots[c] = v
            return True
        # the columns left of c are zero in both rows and stay zero
        v = _cancel(v, p, c)
    return False


def _echelon(rows):
    """The pivot rows of dense rows, each sent to _insert as its support."""
    pivots = {}
    for row in rows:
        _insert(pivots, support(row))
    return pivots


def _quotient(x, p):
    """The exact x / p of ints x and p != 0, canonical (rational)."""
    q, r = divmod(x, p)
    return Fraction(x, p) if r else q


def _rref(pivots, ncols):
    """(dense reduced rational rows, pivot columns) of an echelon: each
    pivot cleared from the rows above it, then scaled to one."""
    cols = sorted(pivots)
    out = [pivots[c] for c in cols]
    for i in reversed(range(len(cols))):
        c = cols[i]
        for u in range(i):
            if c in out[u]:
                out[u] = _cancel(out[u], out[i], c)
    return [dense([(j, _quotient(x, row[c])) for j, x in row.items()], ncols)
            for row, c in zip(out, cols)], cols


def _kernel(red, piv_cols, ncols):
    """Kernel basis of an RREF, one vector per free column in increasing
    order, with a one in that column."""
    piv_set = set(piv_cols)
    basis = []
    for f in range(ncols):
        if f in piv_set:
            continue
        v = [F0] * ncols
        v[f] = F1
        for r, c in enumerate(piv_cols):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def rref(rows):
    """Reduced row echelon form over the rationals.

    rows: rows of int or Fraction entries, all the same length.
    Returns (rref_rows, pivot_cols); rref_rows has one row per pivot.
    """
    rows, ncols = _rows_and_cols(rows)
    return _rref(_echelon(rows), ncols)


def _rows_and_cols(M):
    """(rows, column count) of a Matrix or of a list of rows."""
    if isinstance(M, Matrix):
        return M.data, M.cols
    return M, len(M[0]) if M else 0


def rank(M):
    return len(_echelon(_rows_and_cols(M)[0]))


def nullspace(M):
    """Basis of the right kernel in reduced echelon form of the kernel.

    Deterministic: leftmost pivot order; basis vectors indexed by the free
    columns in increasing order, size cols - rank.
    """
    return nullspace_of_rows(*_rows_and_cols(M))


def nullspace_of_rows(rows, ncols):
    return _kernel(*_rref(_echelon(rows), ncols), ncols)


def nullspace_of_columns(columns, ncols):
    """Kernel basis, as nullspace, of the matrix with the given ncols
    columns."""
    return nullspace_of_rows(zip(*columns), ncols)


def solve_particular(M, b):
    """Deterministic particular solution of Mx = b, or None if inconsistent.

    Free variables are set to zero (minimal-pivot convention).
    """
    rows, ncols = _rows_and_cols(M)
    if len(b) != len(rows):
        raise ShapeError("right-hand side length does not match row count")
    red, piv_cols = rref([list(row) + [bv] for row, bv in zip(rows, b)])
    # a pivot in the right-hand column is a row 0 = nonzero
    if ncols in piv_cols:
        return None
    x = [F0] * ncols
    for r, c in enumerate(piv_cols):
        x[c] = red[r][ncols]
    return x


# ---------------------------------------------------------------------------
# subspace arithmetic on lists of spanning vectors
# ---------------------------------------------------------------------------

class Basis(list):
    """A canonical (RREF-row) basis as span_basis gives it: the list of its
    dense rows, with the support of each in .sparse, computed once with
    the basis.  Like a Matrix it is not changed after it is built."""

    __slots__ = ("sparse",)

    def __init__(self, rows):
        super().__init__(rows)
        self.sparse = [support(row) for row in rows]


def span_basis(vectors):
    """Canonical (RREF-row) basis of the span of the given vectors."""
    return Basis(rref(vectors)[0])


def _split(basis, v):
    """(coefficients, residue) of v against a canonical Basis: every other
    row is zero at a row's pivot, so the row's coefficient is the value of
    v there, made canonical once, and it is subtracted over the row's kept
    support."""
    coeffs = []
    residue = list(v)
    for row in basis.sparse:
        c = rational(v[row[0][0]])
        coeffs.append(c)
        if c:
            for i, b in row:
                residue[i] -= c * b
    return coeffs, residue


def subspace_contains(basis, v):
    """Membership test against a canonical basis as produced by span_basis."""
    return not any(_split(basis, v)[1])


def coords_in_basis(basis, v):
    """Coordinates of v in a canonical RREF basis, or None when outside."""
    coeffs, residue = _split(basis, v)
    return None if any(residue) else coeffs


class RowReducer:
    """Incremental echelon of constraint rows: the one elimination engine.

    add() takes a sparse row [(i, x), ...] of int or Fraction entries (as
    support() gives it; zero entries are dropped), turns it into a primitive
    integer row {i: int}, reduces it against the pivot rows kept so far and
    keeps it when it is independent; the kernel is read off the echelon by
    back substitution.  The selected rows depend on the arrival order, but
    the row space and so its unique reduced echelon form, the rank and the
    kernel basis do not.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self._pivots = {}   # pivot column -> primitive integer row {i: int}

    def add(self, sparse):
        return _insert(self._pivots, sparse)

    @property
    def rank(self):
        return len(self._pivots)

    def nullspace(self):
        return _kernel(*_rref(self._pivots, self.ncols), self.ncols)
