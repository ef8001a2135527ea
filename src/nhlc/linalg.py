"""Deterministic exact linear algebra over the rationals.

Elimination is fraction-free (Bareiss) on integer-scaled rows with rational
normalization only when producing the final reduced echelon form.  Pivoting
is leftmost-column-first with first-nonzero-row selection, so every result
is bit-identical across runs.
"""

from fractions import Fraction
from math import gcd

from .errors import ShapeError

F0 = Fraction(0)
F1 = Fraction(1)


class Matrix:
    """Dense immutable rational matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = tuple(tuple(Fraction(x) for x in row) for row in data)
        if data:
            cols = len(data[0])
            if any(len(row) != cols for row in data):
                raise ShapeError("ragged matrix rows")
        elif cols is None:
            cols = 0
        self.data = data
        self.rows = len(data)
        self.cols = cols

    @classmethod
    def identity(cls, n):
        return cls([[F1 if i == j else F0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[F0] * cols for _ in range(rows)], cols=cols)

    def __getitem__(self, idx):
        return self.data[idx]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data \
            and self.cols == other.cols

    def __hash__(self):
        return hash((self.data, self.cols))

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
            if self.cols != other.rows:
                raise ShapeError("inner dimensions do not match")
            bt = list(zip(*other.data)) if other.data else []
            return Matrix([[sum((a * b for a, b in zip(row, col)), F0) for col in bt]
                           for row in self.data], cols=other.cols)
        return self.scale(other)

    def scale(self, c):
        c = Fraction(c)
        return Matrix([[c * x for x in row] for row in self.data], cols=self.cols)

    def __neg__(self):
        return self.scale(-1)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("matrix shapes differ")

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        return [sum((a * b for a, b in zip(row, vec)), F0) for row in self.data]

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
        red, pivots = rref(aug, pivot_limit=n)
        if pivots != list(range(n)):
            return None
        return Matrix([row[n:] for row in red])

    def flatten(self):
        return [x for row in self.data for x in row]

    def __repr__(self):
        return f"Matrix({[[str(x) for x in row] for row in self.data]})"


def _as_int_row(row):
    """Scale a rational row to coprime integers (positive denominator lcm)."""
    den = 1
    for x in row:
        d = x.denominator
        den = den * d // gcd(den, d)
    out = [int(x.numerator * (den // x.denominator)) for x in row]
    g = 0
    for v in out:
        g = gcd(g, v)
    if g > 1:
        out = [v // g for v in out]
    return out


def _bareiss_echelon(int_rows, ncols, pivot_limit):
    """Fraction-free row echelon; returns (rows, pivot_cols).

    One-step Bareiss: every division below is exact in the integers.
    """
    rows = [r for r in int_rows if any(r)]
    piv_cols = []
    r = 0
    prev = 1
    for c in range(pivot_limit):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pc = prow[c]
        keep = rows[: r + 1]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            ric = row[c]
            if ric == 0:
                if pc != prev:
                    row = [v * pc // prev for v in row]
            else:
                row = [(pc * row[j] - ric * prow[j]) // prev for j in range(ncols)]
            if any(row):
                keep.append(row)
        rows = keep
        prev = pc
        piv_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, piv_cols


def _back_substitute(ech, piv_cols):
    """Reduced rational rows from fraction-free echelon rows: each pivot
    scaled to one and cleared from the rows above it."""
    out = [[Fraction(x) for x in ech[i]] for i in range(len(piv_cols))]
    for i in reversed(range(len(piv_cols))):
        c = piv_cols[i]
        pv = out[i][c]
        out[i] = [x / pv for x in out[i]]
        for u in range(i):
            f = out[u][c]
            if f:
                out[u] = [a - f * b for a, b in zip(out[u], out[i])]
    return out


def rref(rows, pivot_limit=None):
    """Reduced row echelon form over the rationals.

    rows: list of rational rows (all the same length).  pivot_limit
    restricts pivot search to the first columns (used for augmented solves).
    Returns (rref_rows, pivot_cols); rref_rows has one row per pivot.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    limit = ncols if pivot_limit is None else pivot_limit
    int_rows = [_as_int_row(row) for row in rows]
    ech, piv_cols = _bareiss_echelon(int_rows, ncols, limit)
    return _back_substitute(ech, piv_cols), piv_cols


def rank(M):
    rows = M.data if isinstance(M, Matrix) else M
    return len(rref(rows)[1])


def nullspace(M):
    """Basis of the right kernel in reduced echelon form of the kernel.

    Deterministic: leftmost pivot order; basis vectors indexed by the free
    columns in increasing order, size cols - rank.
    """
    if isinstance(M, Matrix):
        rows, ncols = M.data, M.cols
    else:
        rows = M
        ncols = len(rows[0]) if rows else 0
    return nullspace_of_rows(rows, ncols)


def nullspace_of_rows(rows, ncols):
    if ncols == 0:
        return []
    red, piv_cols = rref(rows)
    piv_set = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for f in free_cols:
        v = [F0] * ncols
        v[f] = F1
        for r, c in enumerate(piv_cols):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def solve_particular(M, b):
    """Deterministic particular solution of Mx = b, or None if inconsistent.

    Free variables are set to zero (minimal-pivot convention).
    """
    if isinstance(M, Matrix):
        rows, ncols = [list(r) for r in M.data], M.cols
    else:
        rows = [list(r) for r in M]
        ncols = len(rows[0]) if rows else 0
    if len(b) != len(rows):
        raise ShapeError("right-hand side length does not match row count")
    if ncols == 0:
        return None if any(x != 0 for x in b) else []
    aug = [row + [Fraction(bv)] for row, bv in zip(rows, b)]
    if not aug:
        return [F0] * ncols
    int_rows = [_as_int_row([Fraction(x) for x in row]) for row in aug]
    ech, piv_cols = _bareiss_echelon(int_rows, ncols + 1, ncols)
    for row in ech[len(piv_cols):]:
        if row[ncols] != 0:
            return None
    red = _back_substitute(ech, piv_cols)
    x = [F0] * ncols
    for r, c in enumerate(piv_cols):
        x[c] = red[r][ncols]
    return x


# ---------------------------------------------------------------------------
# subspace arithmetic on lists of spanning vectors
# ---------------------------------------------------------------------------

def span_basis(vectors):
    """Canonical (RREF-row) basis of the span of the given vectors."""
    vectors = [v for v in vectors if any(x != 0 for x in v)]
    if not vectors:
        return []
    red, _ = rref(vectors)
    return red


def _reduce_against(basis, v):
    v = [Fraction(x) for x in v]
    for row in basis:
        p = next(i for i, x in enumerate(row) if x != 0)
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def subspace_contains(basis, v):
    """Membership test against a canonical basis as produced by span_basis."""
    return all(x == 0 for x in _reduce_against(basis, v))


def coords_in_basis(basis, v):
    """Coordinates of v in a canonical RREF basis, or None when outside.

    Exploits the pivot structure: the coefficient of each basis row is just
    the value of v at that row's pivot column.
    """
    if not basis:
        return [] if all(x == 0 for x in v) else None
    coeffs = []
    residue = [Fraction(x) for x in v]
    for row in basis:
        p = next(i for i, x in enumerate(row) if x != 0)
        c = residue[p]
        coeffs.append(c)
        if c:
            residue = [a - c * b for a, b in zip(residue, row)]
    if any(x != 0 for x in residue):
        return None
    return coeffs


class RowReducer:
    """Incremental collector of independent constraint rows.

    Rows arrive as dense rational lists; internally a forward-echelon set of
    reduced rows decides independence, and the original independent rows are
    retained so the final canonical reduction runs fraction-free on them.
    Processing order is the arrival order, so the selected subset (and hence
    everything downstream) is deterministic.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self._echelon = {}   # pivot col -> normalized reduced row
        self.kept = []       # original independent rows

    def add(self, row):
        v = [Fraction(x) for x in row]
        i = 0
        while i < self.ncols:
            x = v[i]
            if x == 0:
                i += 1
                continue
            pivot_row = self._echelon.get(i)
            if pivot_row is None:
                self._echelon[i] = [y / x for y in v]
                self.kept.append(list(row))
                return True
            # pivot rows have leading 1 at i and zeros before, so entries
            # left of i stay zero and the scan can resume at i + 1
            v = [a - x * b for a, b in zip(v, pivot_row)]
            i += 1
        return False

    @property
    def rank(self):
        return len(self.kept)

    def nullspace(self):
        return nullspace_of_rows(self.kept, self.ncols)
