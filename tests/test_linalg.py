from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (is_canonical, reference_nullspace, reference_rref,
                     subspace_eq)
from nhlc.errors import ShapeError
from nhlc.linalg import (Matrix, RowReducer, coords_in_basis, dense, nullspace,
                         nullspace_of_columns, rank, rref, solve_particular,
                         span_basis, subspace_contains, support)

F = Fraction


def test_nullspace_identity():
    assert nullspace(Matrix.identity(3)) == []


def test_nullspace_zero_matrix():
    basis = nullspace(Matrix([[0] * 3 for _ in range(2)]))
    assert len(basis) == 3
    assert span_basis(basis) == span_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_nullspace_of_columns_with_no_rows():
    """Columns of length zero (a centralizer of the empty span) leave
    every variable free."""
    assert nullspace_of_columns([[], []], 2) == [[1, 0], [0, 1]]


def test_nullspace_rank_one():
    basis = nullspace(Matrix([[1, 1]]))
    assert len(basis) == 1
    assert subspace_eq(basis, [[F(1), F(-1)]])


def test_solve_identity():
    b = [F(3), F(-2), F(5, 7)]
    assert solve_particular(Matrix.identity(3), b) == b


def test_solve_inconsistent():
    assert solve_particular(Matrix([[0] * 2 for _ in range(2)]), [F(1), F(0)]) is None


def test_solve_exact_division():
    assert solve_particular(Matrix([[2]]), [F(1)]) == [F(1, 2)]


def test_solve_free_variables_zero():
    # minimal-pivot convention: free columns stay at zero
    sol = solve_particular(Matrix([[1, 1, 0], [0, 0, 1]]), [F(5), F(7)])
    assert sol == [F(5), F(0), F(7)]


def test_coords_in_basis():
    basis = span_basis([[F(1), F(0), F(2)], [F(0), F(1), F(3)]])
    co = coords_in_basis(basis, [F(2), F(-1), F(1)])
    assert co == [F(2), F(-1)]
    assert coords_in_basis(basis, [F(0), F(0), F(1)]) is None


def test_matrix_inverse():
    m = Matrix([[1, 2], [3, 4]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(2)
    assert Matrix([[1, 2], [2, 4]]).inverse() is None


def test_row_reducer_matches_rank():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    red = RowReducer(3)
    added = [red.add(support(r)) for r in rows]
    assert added == [True, False, True]
    assert red.rank == rank(Matrix(rows))


rational = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(rational, min_size=m, max_size=m),
                           min_size=n, max_size=n)))


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_annihilate(rows):
    m = Matrix(rows)
    for v in nullspace(m):
        assert all(x == 0 for x in m.apply(v))


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    m = Matrix(rows)
    assert rank(m) + len(nullspace(m)) == m.cols


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_solve_solution_is_exact(rows):
    m = Matrix(rows)
    b = m.apply([F(1)] * m.cols)
    x = solve_particular(m, b)
    assert x is not None
    assert m.apply(x) == b


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_determinism_and_reducer_agreement(rows):
    """Same canonical results twice, and the incremental reducer agrees
    with the textbook reference."""
    m = Matrix(rows)
    assert nullspace(m) == nullspace(Matrix(rows))
    red = RowReducer(m.cols)
    for r in rows:
        red.add(support(r))
    assert red.nullspace() == reference_nullspace(rows, m.cols)
    assert red.rank == len(reference_rref(rows, m.cols)[1])


def _degenerate(rows):
    """rows plus a zero row and up to three rational multiples of its rows,
    in a drawn order."""
    ncols = len(rows[0])
    extra = st.lists(st.tuples(st.integers(0, len(rows) - 1), rational), max_size=3)
    return extra.map(lambda ex: rows + [[F(0)] * ncols] + [
        [c * x for x in rows[i]] for i, c in ex]).flatmap(st.permutations)


degenerate_matrix = small_matrix.flatmap(_degenerate)


@given(degenerate_matrix, st.data())
@settings(max_examples=80, deadline=None)
def test_engine_matches_reference(rows, data):
    """rref, nullspace, nullspace_of_columns, span_basis and rank agree with
    textbook Gauss-Jordan, zero and repeated rows included.  The columns are
    a drawn prefix of the rows, so zero columns and no columns are among
    the cases."""
    ncols = len(rows[0])
    red, piv = reference_rref(rows, ncols)
    assert rref(rows) == (red, piv)
    assert nullspace(Matrix(rows)) == reference_nullspace(rows, ncols)
    cols = rows[:data.draw(st.integers(0, len(rows)))]
    transpose = [list(r) for r in zip(*cols)]
    assert nullspace_of_columns(cols, len(cols)) == \
        reference_nullspace(transpose, len(cols))
    assert span_basis(rows) == red
    assert rank(Matrix(rows)) == len(piv)


@given(degenerate_matrix, st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matches_reference(rows, data):
    """solve_particular reads the reference RREF of [M | b]: None when the
    right-hand column is a pivot, else the pivot values with free variables
    zero.  b is M x for a drawn x (consistent) or drawn at random."""
    m = Matrix(rows)
    if data.draw(st.booleans()):
        b = m.apply(data.draw(st.lists(rational, min_size=m.cols, max_size=m.cols)))
    else:
        b = data.draw(st.lists(rational, min_size=m.rows, max_size=m.rows))
    red, piv = reference_rref([list(r) + [bv] for r, bv in zip(rows, b)], m.cols + 1)
    got = solve_particular(m, b)
    if m.cols in piv:
        assert got is None
    else:
        want = [F(0)] * m.cols
        for row, c in zip(red, piv):
            want[c] = row[m.cols]
        assert got == want


square_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(rational, min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(square_matrix)
@settings(max_examples=80, deadline=None)
def test_inverse_matches_reference(rows):
    n = len(rows)
    aug = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    red, piv = reference_rref(aug, 2 * n)
    inv = Matrix(rows).inverse()
    if piv[:n] == list(range(n)):
        assert inv == Matrix([row[n:] for row in red])
    else:
        assert inv is None


@given(degenerate_matrix.flatmap(lambda rows: st.tuples(st.just(rows),
                                                         st.permutations(rows))))
@settings(max_examples=60, deadline=None)
def test_reducer_ignores_row_order(pair):
    rows, shuffled = pair
    reducers = []
    for order in (rows, shuffled):
        red = RowReducer(len(rows[0]))
        for r in order:
            red.add(support(r))
        reducers.append(red)
    assert reducers[0].rank == reducers[1].rank
    assert reducers[0].nullspace() == reducers[1].nullspace()


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_span_membership(rows):
    basis = span_basis(rows)
    for r in rows:
        assert subspace_contains(basis, r)


def _matrix(n, m):
    """n x m rational matrices, about half of the entries zero, with a
    drawn row and column set to zero when n and m allow."""
    entry = st.one_of(st.just(F(0)), rational)
    rows = st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)

    def zero_lines(args):
        rows, i, j = args
        return [[F(0) if r == i or c == j else x for c, x in enumerate(row)]
                for r, row in enumerate(rows)]
    return st.tuples(rows, st.integers(-1, n - 1), st.integers(-1, m - 1)).map(zero_lines)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_matrix_kernels_match_textbook(data):
    """Matrix products and matrix-vector products skip zero entries; they
    agree with the textbook sums over every index, and every entry is
    canonical (an int, or a Fraction that is not integral), on any shape
    including 0-row and 0-column matrices."""
    n, m, p = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = data.draw(_matrix(n, m)), data.draw(_matrix(m, p))
    v = data.draw(st.lists(st.one_of(rational, st.integers(-3, 3)),
                           min_size=m, max_size=m))
    prod = Matrix(a, cols=m) * Matrix(b, cols=p)
    assert (prod.rows, prod.cols) == (n, p)
    assert [list(row) for row in prod.data] == [
        [sum((a[i][k] * b[k][j] for k in range(m)), F(0)) for j in range(p)]
        for i in range(n)]
    image = Matrix(a, cols=m).apply(v)
    assert image == [sum((a[i][k] * v[k] for k in range(m)), F(0))
                     for i in range(n)]
    assert all(is_canonical(x) for row in prod.data for x in row)
    assert all(is_canonical(x) for x in image)


# entries as callers pass them: ints, Fractions, and integral Fractions
# that are not yet canonical
mixed = st.one_of(st.integers(-3, 3), rational, st.integers(-3, 3).map(F))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_results_are_canonical(data):
    """Every entry the engine hands back is canonical, an int or a
    Fraction that is not integral: matrices and their sums, products,
    scalings and images, rref, nullspace, span_basis, coordinates and
    solve_particular.  Inputs mix ints, Fractions and integral Fractions,
    and many products and sums of fractional entries are integral."""
    n, m, p = (data.draw(st.integers(0, 4)) for _ in range(3))

    def rows(r, c):
        return data.draw(st.lists(st.lists(mixed, min_size=c, max_size=c),
                                  min_size=r, max_size=r))
    a, b = rows(n, m), rows(m, p)
    v = data.draw(st.lists(mixed, min_size=m, max_size=m))
    rhs = data.draw(st.lists(mixed, min_size=n, max_size=n))
    c = data.draw(mixed)
    A = Matrix(a, cols=m)
    basis = span_basis(a)
    got = [A.data, (A * Matrix(b, cols=p)).data, A.scale(c).data,
           (A + A.scale(c)).data, [A.apply(v)], rref(a)[0], nullspace(A),
           basis]
    for row in a:
        got.append([coords_in_basis(basis, row)])
    sol = solve_particular(A, rhs)
    if sol is not None:
        got.append([sol])
    assert all(is_canonical(x) for rows_ in got for row in rows_ for x in row)


def test_matrix_kernels_reject_mismatched_shapes():
    with pytest.raises(ShapeError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])
    with pytest.raises(ShapeError):
        Matrix([[1, 2], [3, 4]]).apply([F(1)])
    with pytest.raises(ShapeError):
        Matrix([], cols=2).apply([F(1)])


@st.composite
def _sparse_rows(draw):
    """(ncols, sparse rows): columns in index order, entries int or
    Fraction, explicit zeros among them, and rows that are empty or all
    zeros."""
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-4, 4), rational)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        cols = sorted(draw(st.sets(st.integers(0, ncols - 1))))
        if draw(st.integers(0, 5)) == 0:
            rows.append([(i, draw(st.sampled_from([0, F(0)]))) for i in cols])
        else:
            rows.append([(i, draw(entry)) for i in cols])
    return ncols, rows


@given(_sparse_rows())
@settings(max_examples=150, deadline=None)
def test_row_reducer_on_sparse_rows_matches_reference(case):
    """RowReducer.add takes sparse rows: add() is true exactly when a row
    raises the reference rank of the rows so far, and the rank and the
    kernel are the reference's.  The echelon holds primitive integer rows
    with no zero entry and none left of their pivot."""
    ncols, rows = case
    dense_rows = [dense(r, ncols) for r in rows]
    red = RowReducer(ncols)
    for i, r in enumerate(rows):
        before = len(reference_rref(dense_rows[:i], ncols)[1])
        after = len(reference_rref(dense_rows[:i + 1], ncols)[1])
        assert red.add(r) == (after > before)
    assert red.rank == len(reference_rref(dense_rows, ncols)[1])
    assert red.nullspace() == reference_nullspace(dense_rows, ncols)
    for c, row in red._pivots.items():
        assert min(row) == c
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
