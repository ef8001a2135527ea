"""The sparse map kernel against dense references.

Each Matrix keeps the sparse form of its rows and each canonical basis that
of its rows; the colour commutator, span membership and delta_D read them
and sum over nonzero entries only.  Each result is compared here with a
computation on plain lists (or with the former dense sum) and every entry
must be canonical.
"""

from fractions import Fraction
from random import Random

import pytest

import nhlc.delta as delta_mod
import nhlc.linalg as linalg
from helpers import (conjugate_algebra, is_canonical, random_basis_change,
                     random_hom_map, reference_rref)
from nhlc.algebra import HomMap
from nhlc.delta import delta_of
from nhlc.linalg import (Matrix, coords_in_basis, span_basis,
                         subspace_contains, support)
from nhlc.spaces import (candidate_degrees, color_commutator,
                         derivation_space, double_derivation_space)

F = Fraction

# eps 2 and 1/2; colour signs -1 at arity 3 and 4; Fraction entries
KERNEL_INPUTS = ("rational_heis", "color_heis3", "color_simple4", "conj_a4")


@pytest.fixture(scope="module")
def conj_a4(a4):
    """A4 in the basis of random_basis_change(a4, Random(4)): isomorphic to
    A4, with a dense bracket table of Fraction constants."""
    return conjugate_algebra(a4, random_basis_change(a4, Random(4)), "A4_conj")


def _plain_product(X, Y):
    """X Y on lists of rows, by the textbook triple sum."""
    return [[sum((X[r][i] * Y[i][c] for i in range(len(Y))), 0)
             for c in range(len(Y[0]))] for r in range(len(X))]


def _assert_canonical_with_kept_rows(M):
    assert all(is_canonical(x) for row in M.data for x in row)
    assert M.sparse_rows() == [support(row) for row in M.data]
    assert M.sparse_rows() is M.sparse_rows()


@pytest.mark.parametrize("name", KERNEL_INPUTS)
def test_color_commutator_agrees_with_plain_lists(name, request):
    """[D1, D2] = D1 D2 - eps(d1, d2) D2 D1 for random maps of every pair of
    candidate degrees, against products on plain lists."""
    A = request.getfixturevalue(name)
    rng = Random(26)
    degrees = candidate_degrees(A)
    signs = set()
    for d1 in degrees:
        for d2 in degrees:
            D1, D2 = random_hom_map(A, d1, rng), random_hom_map(A, d2, rng)
            sign = A.eps.value(d1, d2)
            signs.add(sign)
            X, Y = D1.matrix.data, D2.matrix.data
            want = [[p - sign * q for p, q in zip(r1, r2)] for r1, r2 in
                    zip(_plain_product(X, Y), _plain_product(Y, X))]
            C = color_commutator(D1, D2, A.eps)
            assert C.degree == A.group.add(d1, d2)
            assert [list(row) for row in C.matrix.data] == want
            for M in (D1.matrix, D2.matrix, C.matrix):
                _assert_canonical_with_kept_rows(M)
    expected = {"rational_heis": {2, F(1, 2)}, "conj_a4": {1}}.get(name, {-1})
    assert expected <= signs


@pytest.mark.parametrize("name", KERNEL_INPUTS)
def test_span_membership_agrees_with_dense_reference(name, request):
    """coords_in_basis and subspace_contains on vectors inside and outside
    a span, against textbook Gauss-Jordan: v lies in the span when adding
    it keeps the rank, and its coordinates in the reduced basis are its
    entries at the pivot columns."""
    A = request.getfixturevalue(name)
    rng = Random(26)
    n2 = A.dim * A.dim
    for d in candidate_degrees(A):
        gens = [random_hom_map(A, d, rng).matrix.flatten() for _ in range(3)]
        basis = span_basis(gens)
        assert basis.sparse == [support(row) for row in basis]
        red, pivots = reference_rref(gens, n2)
        assert [list(row) for row in basis] == red
        inside = [[sum((c * g[j] for c, g in zip(cs, gens)), 0)
                   for j in range(n2)]
                  for cs in ([F(rng.randint(-3, 3), rng.choice((1, 2)))
                              for _ in gens] for _ in range(3))]
        outside = [random_hom_map(A, d, rng).matrix.flatten()
                   for _ in range(3)]
        outside += [[F(rng.randint(-2, 2), 3) for _ in range(n2)]]
        for v in inside + outside:
            member = len(reference_rref(gens + [v], n2)[0]) == len(red)
            assert subspace_contains(basis, v) is member
            co = coords_in_basis(basis, v)
            assert co == ([v[p] for p in pivots] if member else None)
            assert co is None or all(is_canonical(c) for c in co)
        assert all(coords_in_basis(basis, v) is not None for v in inside)
    for space in [derivation_space(A, 0)] + (
            [double_derivation_space(A, 0)] if A.arity >= 3 else []):
        for d in space.degrees():
            span = space.span(d)
            assert span.sparse == [support(row) for row in span]


@pytest.mark.parametrize("name, ks", [("a4", (0, 1)), ("twisted_a4", (0, 1)),
                                      ("conj_a4", (0,))])
def test_delta_of_equals_the_scaled_sum(name, ks, request):
    """delta_of of random elements of DDer^k equals the sum, from the zero
    matrix, of c_i delta_(R_i) over D's coordinates c_i in the span rows
    R_i, one Matrix addition and scaling at a time."""
    A = request.getfixturevalue(name)
    rng = Random(26)
    for k in ks:
        space = double_derivation_space(A, k)
        for d in space.degrees():
            span = space.span(d)
            maps = [m.matrix.data for m in space.maps() if m.degree == d]
            for _ in range(3):
                cs = [F(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                      for _ in maps]
                D = HomMap(d, Matrix([[sum((c * m[r][q] for c, m in
                                            zip(cs, maps)), 0)
                                       for q in range(A.dim)]
                                      for r in range(A.dim)]))
                want = Matrix([[0] * A.dim for _ in range(A.dim)])
                for c, delta in zip(coords_in_basis(span, D.matrix.flatten()),
                                    delta_mod._span_deltas(A, k, d, span)):
                    if c:
                        want = want + delta.scale(c)
                got = delta_of(A, D, k).matrix
                assert got == want
                _assert_canonical_with_kept_rows(got)


def test_map_kernel_takes_no_dense_path(a4, monkeypatch):
    """color_commutator and delta_of sum once over kept sparse rows, with no
    Matrix product, sum, difference or scaling, and a membership test
    reads the basis's kept rows without calling support: with those
    patched to raise, each result is still the one computed before."""
    space = double_derivation_space(a4, 0)
    D1, D2 = space.maps()[:2]
    X, Y = D1.matrix.data, D2.matrix.data
    sign = a4.eps.value(D1.degree, D2.degree)
    want = [[p - sign * q for p, q in zip(r1, r2)] for r1, r2 in
            zip(_plain_product(X, Y), _plain_product(Y, X))]
    D = HomMap(D1.degree, D1.matrix + D2.matrix.scale(3))
    # before the patch: the sparse rows of D1 and D2 and the delta_(R_i)
    # of the span are computed and kept
    assert [list(row) for row in
            color_commutator(D1, D2, a4.eps).matrix.data] == want
    want_delta = delta_of(a4, D, 0).matrix
    basis = space.span(D.degree)
    v = D.matrix.flatten()

    def refuse(*args):
        raise AssertionError("dense matrix arithmetic in the map kernel")
    for op in ("__mul__", "__add__", "__sub__", "scale"):
        monkeypatch.setattr(Matrix, op, refuse)
    monkeypatch.setattr(linalg, "support", refuse)
    C = color_commutator(D1, D2, a4.eps)
    assert [list(row) for row in C.matrix.data] == want
    assert delta_of(a4, D, 0).matrix == want_delta
    assert coords_in_basis(basis, v) is not None
    assert subspace_contains(basis, v)
