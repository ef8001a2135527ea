from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import subspace_eq
from nhlc.linalg import (Matrix, RowReducer, coords_in_basis, nullspace, rank,
                         solve_particular, span_basis, subspace_contains)

F = Fraction


def test_nullspace_identity():
    assert nullspace(Matrix.identity(3)) == []


def test_nullspace_zero_matrix():
    basis = nullspace(Matrix.zeros(2, 3))
    assert len(basis) == 3
    assert span_basis(basis) == span_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_nullspace_rank_one():
    basis = nullspace(Matrix([[1, 1]]))
    assert len(basis) == 1
    assert subspace_eq(basis, [[F(1), F(-1)]])


def test_solve_identity():
    b = [F(3), F(-2), F(5, 7)]
    assert solve_particular(Matrix.identity(3), b) == b


def test_solve_inconsistent():
    assert solve_particular(Matrix.zeros(2, 2), [F(1), F(0)]) is None


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
    added = [red.add(r) for r in rows]
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
    """Same canonical results twice, and the incremental reducer selects a
    row subset with identical row space."""
    m = Matrix(rows)
    assert nullspace(m) == nullspace(Matrix(rows))
    red = RowReducer(m.cols)
    for r in rows:
        red.add(r)
    assert red.nullspace() == nullspace(m)


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_span_membership(rows):
    basis = span_basis(rows)
    for r in rows:
        assert subspace_contains(basis, r)
