"""Exact matrix arithmetic over GF(p) and the rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import posetrep as pr
from posetrep.linalg import (
    ExactMatrix,
    column_space_basis,
    complete_to_full_rank,
    hstack,
    rref,
    solve_columns,
    span_contains,
    span_intersection,
    span_sum,
)

F2, F3, F5 = pr.GF(2), pr.GF(3), pr.GF(5)


def test_field_validation():
    with pytest.raises(pr.ValidationError):
        pr.GF(4)
    with pytest.raises(pr.ValidationError):
        pr.GF(1)
    assert pr.GF(7).label() == "GF(7)"
    assert pr.QQ.label() == "Q"


def test_coercion():
    assert F3.coerce(-1) == 2
    assert F3.coerce("1/2") == 2  # inverse of 2 modulo 3
    assert pr.QQ.coerce("3/6") == Fraction(1, 2)


def test_rref_identity():
    m = ExactMatrix.identity(F2, 2)
    r, pivots, rank = m.rref()
    assert r == m and pivots == (0, 1) and rank == 2


def test_rref_zero():
    m = ExactMatrix.zeros(F3, 2, 3)
    r, pivots, rank = m.rref()
    assert r == m and rank == 0


def test_rref_repeated_row():
    m = ExactMatrix.from_rows(F2, [[1, 1], [1, 1]])
    r, _, rank = m.rref()
    assert rank == 1
    assert r.data == ((1, 1), (0, 0))


def test_nullspace_examples():
    assert ExactMatrix.identity(F2, 3).nullspace_basis() == []
    assert len(ExactMatrix.zeros(F2, 2, 3).nullspace_basis()) == 3
    basis = ExactMatrix.from_rows(F2, [[1, 1]]).nullspace_basis()
    assert basis == [(1, 1)]


def test_column_space_contains():
    m = ExactMatrix.from_rows(F2, [[1, 0], [0, 1]])
    assert m.column_space_contains([0, 0])
    e1 = ExactMatrix.from_rows(F2, [[1], [0]])
    assert not e1.column_space_contains([0, 1])
    m = ExactMatrix.from_rows(F3, [[1], [1]])
    assert m.column_space_contains([2, 2])


def test_complete_to_full_rank_examples():
    empty = ExactMatrix.zeros(F2, 1, 0)
    assert complete_to_full_rank(empty).data == ((1,),)
    ident = ExactMatrix.identity(F3, 2)
    assert complete_to_full_rank(ident).cols == 0
    m = ExactMatrix.from_rows(F2, [[1], [0]])
    assert complete_to_full_rank(m) == ExactMatrix.from_rows(F2, [[0], [1]])


def test_matmul_add_invert():
    m = ExactMatrix.from_rows(F3, [[1, 2], [0, 1]])
    ident = ExactMatrix.identity(F3, 2)
    assert ident @ m == m
    assert (m + (-m)).is_zero()
    u = ExactMatrix.from_rows(F2, [[1, 1], [0, 1]])
    assert u.inverse() == u
    assert u @ u == ExactMatrix.identity(F2, 2)


def test_zero_dimensional_matrices():
    t = ExactMatrix.zeros(F2, 0, 3)
    assert t.rank() == 0
    assert len(t.nullspace_basis()) == 3
    assert complete_to_full_rank(t).cols == 0
    wide = hstack([t, ExactMatrix.zeros(F2, 0, 2)])
    assert (wide.rows, wide.cols) == (0, 5)


def test_span_operations():
    a = ExactMatrix.from_rows(F3, [[1, 0], [0, 0], [0, 1]]).take_columns([0])
    b = ExactMatrix.from_rows(F3, [[1], [1], [0]])
    s = span_sum(a, b)
    assert s.cols == 2
    assert span_contains(s, a) and span_contains(s, b)
    i = span_intersection(s, ExactMatrix.from_rows(F3, [[1], [0], [0]]))
    assert i.cols == 1


def test_solve_columns():
    a = ExactMatrix.from_rows(F3, [[1, 1], [0, 1]])
    b = ExactMatrix.from_rows(F3, [[2], [1]])
    x = solve_columns(a, b)
    assert a @ x == b
    inconsistent = solve_columns(ExactMatrix.zeros(F3, 2, 1), b)
    assert inconsistent is None


@st.composite
def small_matrix(draw, fields=(F2, F3, F5, pr.QQ)):
    field = draw(st.sampled_from(fields))
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    entry = st.integers(-4, 4)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return ExactMatrix.from_rows(field, data) if rows else ExactMatrix.zeros(field, 0, cols)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_transpose(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_nullity(m):
    assert m.cols == m.rank() + len(m.nullspace_basis())


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_completion_properties(m):
    c = complete_to_full_rank(m)
    assert c == complete_to_full_rank(m)  # deterministic
    assert c.cols == m.rows - m.rank()
    if m.rows:
        assert hstack([m, c]).rank() == m.rows


@settings(max_examples=40, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 40))
def test_exact_rationals(n, d):
    if n == 0:
        return
    x = Fraction(n, d)
    assert x * (1 / x) == 1
    m = ExactMatrix.from_rows(pr.QQ, [[x]])
    assert m.inverse() @ m == ExactMatrix.identity(pr.QQ, 1)


@settings(max_examples=40, deadline=None)
@given(small_matrix(fields=(F2, F3)))
def test_column_space_basis_canonical(m):
    basis = column_space_basis(m)
    assert basis.cols == m.rank()
    assert column_space_basis(basis) == basis
    assert span_contains(basis, m) and span_contains(m, basis)


# -- the elimination kernel against brute-force enumeration over GF(2), GF(3)


def span_of(vectors, p, n):
    """Every linear combination of the vectors, by enumeration."""
    span = {(0,) * n}
    for v in vectors:
        span = {tuple((x + c * y) % p for x, y in zip(s, v))
                for s in span for c in range(p)}
    return span


@settings(max_examples=80, deadline=None)
@given(small_matrix(fields=(F2, F3)))
def test_rref_kernel_against_enumeration(m):
    p, n = m.field.p, m.cols
    rows, pivots = rref(m.data, n, p)
    span = span_of(m.data, p, n)
    # rank is log_p of the span size
    assert p ** len(pivots) == len(span) and m.rank() == len(pivots)
    assert span_of(rows, p, n) == span
    # reduced echelon form: each row leads with a 1 at its pivot, the pivots
    # increase, and every other row is zero in a pivot column
    assert list(pivots) == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(rows, pivots)):
        assert all(0 <= x < p for x in row)
        assert not any(row[:c]) and row[c] == 1
        assert all(other[c] == 0 for k, other in enumerate(rows) if k != i)


@settings(max_examples=80, deadline=None)
@given(small_matrix(fields=(F2, F3)))
def test_completion_picks_first_enlarging_standard_vectors(m):
    p, n = m.field.p, m.rows
    span = span_of(m.columns(), p, n)
    expected = []
    for i in range(n):
        e = tuple(int(k == i) for k in range(n))
        if e not in span:
            expected.append(e)
            span = span_of([*expected, *m.columns()], p, n)
    assert complete_to_full_rank(m).columns() == expected
    assert p ** n == len(span)
