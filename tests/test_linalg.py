"""Smith normal form and exact integer solvers."""

from __future__ import annotations

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from lattice_oracle import (
    kernel_basis,
    matmul,
    rank,
    smith_normal_form,
    solve_matrix,
    transpose,
    zeros,
)
from quandlekit import linalg
from quandlekit.linalg import elementary_divisors, identity

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def test_frozen_small_example():
    # |det| = 8 and entry gcd 2 force diag(2, 4)
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.diagonal() == [2, 4]
    assert matmul(matmul(res.U, [[2, 4], [6, 8]]), res.V) == res.S


def test_degenerate_shapes():
    assert smith_normal_form([], ncols=3).rank == 0
    assert kernel_basis([], ncols=3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal() == [0, 0]
    assert smith_normal_form(identity(4)).diagonal() == [1, 1, 1, 1]
    assert rank(zeros(3, 2)) == 0
    assert transpose([], ncols=2) == [[], []]


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_snf_transform_and_divisibility(mat):
    m, n = len(mat), len(mat[0])
    res = smith_normal_form(mat)
    assert matmul(matmul(res.U, mat), res.V) == res.S
    assert abs(sympy.Matrix(res.U).det()) == 1
    assert abs(sympy.Matrix(res.V).det()) == 1
    d = res.diagonal()
    assert all(x >= 0 for x in d)
    for i in range(res.rank - 1):
        assert d[i + 1] % d[i] == 0
    assert all(d[i] == 0 for i in range(res.rank, len(d)))
    # sympy as an independent authority on rank and invariant factors
    assert res.rank == sympy.Matrix(mat).rank()
    # the library forms no U but follows the same pivots, so S and V agree
    assert linalg._smith(mat, None, track_v=True) == (res.S, res.V, res.rank)


entry_kinds = (
    st.integers(min_value=-9, max_value=9),
    st.sampled_from([0, 2, -2, 3, -3, 4, 6, -6, 9, 10, -15]),  # no unit pivot anywhere
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
)
any_shape = st.tuples(st.sampled_from(entry_kinds), st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda kmn: st.tuples(
        st.just(kmn[2]),
        st.lists(st.lists(kmn[0], min_size=kmn[2], max_size=kmn[2]), min_size=kmn[1], max_size=kmn[1]),
    )
)


@settings(max_examples=150, deadline=None)
@given(any_shape)
def test_elementary_divisors_match_the_snf_diagonal(shaped):
    ncols, mat = shaped
    res = smith_normal_form(mat, ncols=ncols)
    want = (res.rank, tuple(res.diagonal()[: res.rank]))
    assert elementary_divisors(mat) == want
    # sparse rows, and the transpose given as sparse columns, agree
    assert elementary_divisors([{j: x for j, x in enumerate(r) if x} for r in mat]) == want
    cols = [{i: r[j] for i, r in enumerate(mat) if r[j]} for j in range(ncols)]
    assert elementary_divisors(cols) == want


@settings(max_examples=100, deadline=None)
@given(
    any_shape.filter(lambda shaped: shaped[0] and shaped[1]),
    st.lists(
        st.tuples(st.integers(0, 10 ** 6), st.sampled_from([1, -1]), st.booleans()), min_size=1, max_size=8
    ),
    st.randoms(use_true_random=False),
)
def test_repeated_and_negated_rows_keep_the_divisors(shaped, copies, rnd):
    # copies reach the dense remainder when no row has a unit entry; a copy
    # with its last entry negated is a repeat only where that entry is 0
    ncols, mat = shaped
    rows = []
    for k, e, flip in copies:
        row = [e * x for x in mat[k % len(mat)]]
        if flip:
            row[-1] = -row[-1]
        rows.append(row)
    rows += mat
    rnd.shuffle(rows)
    res = smith_normal_form(rows, ncols=ncols)
    want = (res.rank, tuple(res.diagonal()[: res.rank]))
    assert elementary_divisors(rows) == want
    if not any(flip for _, _, flip in copies):
        assert elementary_divisors(mat) == want


def snf_divisors(rows, ncols):
    res = smith_normal_form([[row.get(j, 0) for j in range(ncols)] for row in rows], ncols=ncols)
    return res.rank, tuple(res.diagonal()[: res.rank])


def test_elementary_divisors_of_small_examples():
    assert elementary_divisors([]) == (0, ())
    assert elementary_divisors([[0, 0], [0, 0]]) == (0, ())
    assert elementary_divisors([[2, 4], [6, 8]]) == (2, (2, 4))
    assert elementary_divisors([{5: 1, 9: 1}, {5: 1, 9: -1}]) == (2, (1, 2))
    # row 0 has no unit when it comes up; the pivot on row 1 leaves it {1: 1}
    assert elementary_divisors([{0: 2, 1: 3}, {0: 1, 1: 1}]) == (2, (1, 1))
    # the pivot on row 0 cancels row 1 to nothing, with pivots still to come
    assert elementary_divisors([{0: 1, 1: 1}, {0: -1, 1: -1}, {1: 2, 2: 1}, {2: 3, 3: 1}]) == (
        3,
        (1, 1, 1),
    )
    # a row set aside for want of a unit cancels to nothing
    assert elementary_divisors([{0: 2, 1: 2}, {0: 1, 1: 1}]) == (1, (1,))
    # duplicate and negated rows, with and without units
    rows = [{0: 1, 2: 3}, {0: -1, 2: -3}, {1: 2, 2: 2}, {0: 1, 2: 3}, {1: -2, 2: -2}, {0: 2, 3: 4}]
    assert elementary_divisors(rows) == snf_divisors(rows, 4) == (3, (1, 2, 2))


sparse_matrices = st.tuples(st.integers(10, 40), st.integers(5, 40)).flatmap(
    lambda mn: st.tuples(
        st.just(mn[1]),
        st.lists(
            st.dictionaries(
                st.integers(0, mn[1] - 1), st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=5
            ),
            min_size=mn[0],
            max_size=mn[0],
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices, st.randoms(use_true_random=False))
def test_elementary_divisors_of_sparse_matrices_match_the_oracle(shaped, rnd):
    # large enough for rows to grow, shrink, empty and gain a unit between pivots
    ncols, rows = shaped
    want = snf_divisors(rows, ncols)
    assert elementary_divisors(rows) == want
    # the pivot order follows the order of rows and columns; the divisors do not
    perm = list(range(ncols))
    rnd.shuffle(perm)
    moved = [{perm[j]: x for j, x in row.items()} for row in rows]
    rnd.shuffle(moved)
    assert elementary_divisors(moved) == want


def mat_vec(a, v):
    return [sum(c * x for c, x in zip(row, v)) for row in a]


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilate(mat):
    m, n = len(mat), len(mat[0])
    basis = kernel_basis(mat)
    assert len(basis) == n - rank(mat)
    for v in basis:
        assert mat_vec(mat, v) == [0] * m


@settings(max_examples=60, deadline=None)
@given(matrices, st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5))
def test_solve_recovers_constructed_solutions(mat, x):
    n = len(mat[0])
    x = (x * n)[:n]
    b = mat_vec(mat, x)
    got = solve_matrix(mat, [[v] for v in b])
    assert got is not None
    assert matmul(mat, got) == [[v] for v in b]


def test_solve_detects_unsolvable_systems():
    assert solve_matrix([[2]], [[1]]) is None
    assert solve_matrix([[1, 0], [0, 0]], [[3], [1]]) is None
    assert solve_matrix([[2, 0], [0, 3]], [[4], [6]]) == [[2], [2]]
    assert solve_matrix([[2, 0], [0, 3]], [[4, 2], [6, 3]]) == [[2, 1], [2, 1]]
    assert solve_matrix([[2]], [[1]]) is None


def test_solve_reuses_precomputed_snf():
    a = [[2, 0], [0, 4]]
    res = smith_normal_form(a)
    assert solve_matrix(a, [[2], [8]], snf=res) == [[1], [2]]
    assert solve_matrix(a, [[1], [0]], snf=res) is None


@settings(max_examples=150, deadline=None)
@given(any_shape)
def test_smith_column_transform_is_unimodular_and_splits_off_the_kernel(shaped):
    # the V path every cocycle and coboundary basis reads, checked directly
    ncols, mat = shaped
    s, v, r = linalg._smith(mat, ncols, track_v=True)
    assert sympy.Matrix(v).det() in (1, -1)
    assert all(row[j] == 0 for row in matmul(mat, v, bcols=ncols) for j in range(r, ncols))
    want = smith_normal_form(mat, ncols=ncols)
    diagonal = [s[i][i] for i in range(min(len(mat), ncols))]
    assert (r, diagonal) == (want.rank, want.diagonal())
    if mat and ncols:  # sympy as an independent authority on the factors
        assert diagonal == list(invariant_factors(sympy.Matrix(mat), domain=sympy.ZZ))
