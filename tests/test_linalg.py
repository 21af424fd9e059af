"""Exact matrix arithmetic over GF(p) and the rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import posetrep as pr
from posetrep.linalg import (
    ExactMatrix,
    column_matrix,
    column_space_basis,
    complete_to_full_rank,
    hstack,
    meet_rows,
    rref,
    solve_columns,
    span_rows,
)

from conftest import check_trusted_matrix

F2, F3, F5 = pr.GF(2), pr.GF(3), pr.GF(5)


def test_field_validation():
    with pytest.raises(pr.ValidationError):
        pr.GF(4)
    with pytest.raises(pr.ValidationError):
        pr.GF(1)
    assert pr.GF(7).label() == "GF(7)"
    assert pr.QQ.label() == "Q"


def test_characteristic_must_be_an_int():
    """A float characteristic would make coerce return floats, and a string
    one raised a raw TypeError: every characteristic that is not an int
    raises ValidationError."""
    for p in (2.0, 3.0, "3", None, True, Fraction(3), [3]):
        with pytest.raises(pr.ValidationError):
            pr.GF(p)
        with pytest.raises(pr.ValidationError):
            pr.FieldSpec("gf", p)
    assert pr.GF(3).coerce(5) == 2 and type(pr.GF(2).coerce(5)) is int


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


def test_shapes_are_still_checked():
    """zeros and the public constructor validate their shapes; only matrices
    the package assembles itself skip the check."""
    for rows, cols in ((-1, 0), (0, -1)):
        with pytest.raises(pr.ValidationError):
            ExactMatrix.zeros(F2, rows, cols)
    for rows, cols, data in ((2, 2, [[1, 0]]), (1, 2, [[1]]), (-1, 0, []), (1, 1, [[1], [0]])):
        with pytest.raises(pr.ValidationError):
            ExactMatrix(F2, rows, cols, data)
    z = ExactMatrix.zeros(pr.QQ, 2, 3)
    assert z == ExactMatrix(pr.QQ, 2, 3, [[Fraction(0)] * 3] * 2)
    assert z.data == ((0, 0, 0), (0, 0, 0)) and ExactMatrix.zeros(F2, 0, 4).cols == 4


def test_inexact_entries_are_rejected():
    """A float would enter Q as a binary fraction and GF(p) truncated, and a
    bool as 0 or 1: no exact entry is either.  Nor is a zero denominator, a
    word, None or a list, which raise ValidationError, not a raw error."""
    for field, x in ((pr.QQ, 0.1), (F3, 2.5), (F2, 1.0), (F2, True), (pr.QQ, False),
                     (pr.QQ, "1/0"), (F3, "1/0"), (pr.QQ, "abc"), (F2, "abc"),
                     (pr.QQ, None), (F2, None), (pr.QQ, [1]), (F3, [1])):
        with pytest.raises(pr.ValidationError):
            field.coerce(x)
        with pytest.raises(pr.ValidationError):
            ExactMatrix.from_rows(field, [[x]])
    assert F3.coerce(Fraction(5, 2)) == 1 and F3.coerce(-4) == 2


def test_public_constructor_checks_entries():
    """Each entry must be canonical for the field: an int in [0, p) over
    GF(p), an int or a Fraction over Q, where an int is stored as a Fraction."""
    for field, x in ((F2, 3), (F3, -1), (F2, True), (F2, Fraction(1)), (F2, "1"),
                     (pr.QQ, 0.5), (pr.QQ, True), (pr.QQ, "1/2")):
        with pytest.raises(pr.ValidationError):
            ExactMatrix(field, 1, 1, [[x]])
    assert ExactMatrix(F2, 1, 1, [[1]]) == ExactMatrix.from_rows(F2, [[3]])
    m = ExactMatrix(pr.QQ, 1, 2, [[2, Fraction(1, 3)]])
    assert all(type(x) is Fraction for x in m.data[0])
    assert m.rref()[0].data == ((1, Fraction(1, 6)),)
    assert all(type(x) is Fraction for x in m.rref()[0].data[0])


def test_trusted_results_equal_checked():
    """Every operation that builds its result through _of, on random
    matrices of every small shape, the empty ones included."""
    rng = random.Random(16)
    for field in (F2, F3, pr.QQ):
        def rand(r, c):
            return ExactMatrix.from_rows(
                field, [[rng.randrange(-2, 3) for _ in range(c)] for _ in range(r)]
            ) if r else ExactMatrix.zeros(field, 0, c)

        for r, c, k in [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0)] + [
                (rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)) for _ in range(30)]:
            a, b, x = rand(r, c), rand(r, c), rand(c, k)
            a_t = column_matrix(field, c, a.data)  # the transpose of a
            cols_a, cols_b = a_t.data, column_matrix(field, c, b.data).data
            results = [a_t, a.take_columns([c - 1, 0] if c else []), a + b, a - b,
                       -a, a.scale(2), a.scale(Fraction(1, 2)) if field != F2 else a,
                       a @ x, a.rref()[0], ExactMatrix.identity(field, r),
                       ExactMatrix.zeros(field, r, c), hstack([a, b, rand(r, k)]),
                       column_space_basis(a),
                       column_matrix(field, r, span_rows(cols_a + cols_b, r, field.p)),
                       column_matrix(field, r, meet_rows(cols_a, cols_b, r, field.p)),
                       complete_to_full_rank(a)]
            solved = solve_columns(a, a @ x)
            assert solved is not None and a @ solved == a @ x
            results.append(solved)
            if a.is_invertible():
                results.append(a.inverse())
                assert a @ a.inverse() == ExactMatrix.identity(field, r)
            for m in results:
                check_trusted_matrix(m)


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
    """span(y) ⊆ span(x) exactly when x's canonical rows span x + y too."""
    ident = span_rows([(1, 0), (0, 1)], 2, 2)
    assert span_rows(ident + ((0, 0),), 2, 2) == ident
    assert span_rows([(1, 0), (0, 1)], 2, 2) != span_rows([(1, 0)], 2, 2)
    assert span_rows([(1, 1), (2, 2)], 2, 3) == span_rows([(1, 1)], 2, 3) == ((1, 1),)


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
    a, b = ((1, 0, 0),), ((1, 1, 0),)
    s = span_rows(a + b, 3, 3)
    assert s == ((1, 0, 0), (0, 1, 0))
    assert span_rows(s + a, 3, 3) == s == span_rows(s + b, 3, 3)
    assert meet_rows(s, ((1, 0, 0),), 3, 3) == ((1, 0, 0),)
    assert meet_rows(s, ((1, 2, 1),), 3, 3) == ()
    # over Q the meet keeps Fraction entries
    q = meet_rows(((Fraction(1), Fraction(2)),), ((Fraction(3), Fraction(6)),), 2, None)
    assert q == ((1, 2),) and all(type(x) is Fraction for x in q[0])


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
    assert m.rank() == column_matrix(m.field, m.cols, m.data).rank()


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
    assert hstack([basis, m]).rank() == basis.cols == m.rank()


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


@st.composite
def two_spanning_sets(draw):
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(0, 4))
    vectors = st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=4)
    return p, n, draw(vectors), draw(vectors)


@settings(max_examples=80, deadline=None)
@given(two_spanning_sets())
def test_row_helpers_against_enumeration(case):
    """span_rows depends on the span alone, and meet_rows gives the canonical
    rows of the intersection of the enumerated spans."""
    p, n, x, y = case
    sx, sy = span_of(x, p, n), span_of(y, p, n)
    rows = span_rows(x, n, p)
    assert span_of(rows, p, n) == sx and len(rows) == len(rref(x, n, p)[1])
    assert span_rows(sorted(sx), n, p) == rows  # every vector of the span spans it too
    assert (span_rows(y, n, p) == rows) == (sy == sx)
    meet = meet_rows(x, y, n, p)
    assert span_of(meet, p, n) == sx & sy and span_rows(meet, n, p) == meet


@settings(max_examples=80, deadline=None)
@given(small_matrix(fields=(F2, F3)))
def test_completion_picks_first_enlarging_standard_vectors(m):
    p, n = m.field.p, m.rows
    columns = column_matrix(m.field, m.cols, m.data).data
    span = span_of(columns, p, n)
    expected = []
    for i in range(n):
        e = tuple(int(k == i) for k in range(n))
        if e not in span:
            expected.append(e)
            span = span_of([*expected, *columns], p, n)
    completion = complete_to_full_rank(m)
    assert list(column_matrix(m.field, completion.cols, completion.data).data) == expected
    assert p ** n == len(span)
