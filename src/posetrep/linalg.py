"""Exact linear algebra over prime fields GF(p) and the rationals.

Matrices are immutable value objects.  Entries are kept canonical at all
times: integers in [0, p) over a prime field, Fraction in lowest terms over
the rationals.  There is no floating point anywhere: FieldSpec.coerce and
the public ExactMatrix constructor reject floats and bools.  The public
constructor checks the shape and every entry; every matrix an operation
here returns is built through ExactMatrix._of, which trusts its data.
Every elimination goes through one Gauss-Jordan kernel, rref, which
resolves the field once per call.  A subspace of F^n is held in one format,
the tuple of its reduced-echelon rows, which span_rows makes from any spanning set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import FieldMismatch, ValidationError
from .value import Value

DEFAULT_SEARCH_BUDGET = 1 << 20


def resolve_budget(budget: int | None, default: int) -> int:
    """The caller's budget, else default; never negative."""
    if budget is None:
        return default
    if budget < 0:
        raise ValidationError(f"budgets must be non-negative, got {budget}")
    return budget


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either GF(p) for a prime p, or the rationals."""

    kind: str  # "gf" | "rationals"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "gf":
            if type(self.p) is not int or not is_prime(self.p):
                raise ValidationError(f"field characteristic must be a prime int, got {self.p!r}")
        elif self.kind == "rationals":
            if self.p is not None:
                raise ValidationError("the rationals carry no characteristic parameter")
        else:
            raise ValidationError(f"unknown field kind {self.kind!r}")

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "gf"

    def label(self) -> str:
        return f"GF({self.p})" if self.kind == "gf" else "Q"

    def zero(self):
        return 0 if self.kind == "gf" else Fraction(0)

    def one(self):
        return 1 if self.kind == "gf" else Fraction(1)

    def coerce(self, x):
        """Normalize an int / Fraction / "a/b" string into this field.  Any
        other value, a float or a bool among them, and a zero denominator are
        no exact entry and raise ValidationError."""
        if self.kind == "gf" and type(x) is int:
            return x % self.p
        try:
            if isinstance(x, (bool, float)):
                raise TypeError
            q = Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValidationError(f"{x!r} is not an exact entry of {self.label()}") from None
        if self.kind != "gf":
            return q
        if q.denominator % self.p == 0:
            raise ValidationError(f"{q} has no image in GF({self.p})")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def is_entry(self, x) -> bool:
        """An int in [0, p) over GF(p); an int or a Fraction over Q."""
        return type(x) is int and 0 <= x < self.p if self.p else type(x) in (int, Fraction)


def rref(rows: Iterable[Sequence], ncols: int, p: int | None) -> tuple[list[list], list[int]]:
    """Gauss-Jordan elimination: the nonzero rows of the reduced row echelon
    form, and their pivot columns.

    Entries are ints in [0, p) over GF(p), or Fractions when p is None.  The
    reduced form is unique, so the result depends only on the row span; the
    pivot columns are the columns not in the span of the columns before them.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        for k in range(r, len(work)):
            if work[k][c]:
                break
        else:
            continue
        row = work[k]
        work[k] = work[r]
        a = row[c]
        if a != 1:
            if p is None:
                row = [x / a for x in row]
            else:
                a = pow(a, -1, p)
                row = [x * a % p for x in row]
        work[r] = row
        for i, other in enumerate(work):
            f = other[c]
            if f and i != r:
                if p is None:
                    work[i] = [x - f * y for x, y in zip(other, row)]
                else:
                    work[i] = [(x - f * y) % p for x, y in zip(other, row)]
        pivots.append(c)
    return work[:len(pivots)], pivots


def GF(p: int) -> FieldSpec:
    return FieldSpec("gf", p)


QQ = FieldSpec("rationals")


def check_counts(field: FieldSpec, *counts: int) -> None:
    """The public constructors' shape check: a FieldSpec, non-negative ints."""
    if not isinstance(field, FieldSpec) or any(type(n) is not int or n < 0 for n in counts):
        raise ValidationError(f"need a FieldSpec and int counts >= 0, got {field!r}, {counts}")


def _columns(rows: Sequence[Sequence], n: int) -> tuple[tuple, ...]:
    """The n columns of rows, each a tuple; n empty ones when rows is empty."""
    return tuple(zip(*rows)) if rows else ((),) * n


class ExactMatrix(Value):
    """Immutable dense matrix over a FieldSpec.

    Zero-row and zero-column matrices are first-class citizens: both counts
    are stored explicitly, so a 0xk matrix keeps its column count.  The
    constructor checks the shape and that every entry is canonical for the
    field (an int over Q is stored as its Fraction); from_rows coerces.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, rows: int, cols: int, data):
        check_counts(field, rows, cols)
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValidationError(
                f"matrix data does not match declared shape {rows}x{cols}"
            )
        bad = [x for row in data for x in row if not field.is_entry(x)]
        if bad:
            raise ValidationError(f"{bad[0]!r} is not a canonical entry of "
                                  f"{field.label()}; ExactMatrix.from_rows coerces")
        if field.p is None:
            data = tuple(tuple(map(Fraction, row)) for row in data)
        self._fill(field, rows, cols, data)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "ExactMatrix":
        check_counts(field)
        coerced = [[field.coerce(x) for x in row] for row in rows]
        return cls(field, len(coerced), len(coerced[0]) if coerced else 0, coerced)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "ExactMatrix":
        check_counts(field, rows, cols)
        return cls._of(field, rows, cols, ((field.zero(),) * cols,) * rows)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        check_counts(field, n)
        z, o = field.zero(), field.one()
        return cls._of(field, n, n, tuple(tuple(o if i == j else z for j in range(n))
                                          for i in range(n)))

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and (
            self.field, self.rows, self.cols, self.data) == (
            other.field, other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"ExactMatrix({self.field.label()}, {self.rows}x{self.cols}, {self.data})"

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for row in self.data for x in row)

    def take_columns(self, indices: Iterable[int]) -> "ExactMatrix":
        idx = list(indices)
        return ExactMatrix._of(self.field, self.rows, len(idx),
                               tuple(tuple(row[j] for j in idx) for row in self.data))

    # -- arithmetic ---------------------------------------------------------

    def _check_field(self, other: "ExactMatrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field.label()} vs {other.field.label()}")

    def _reduced(self, rows) -> "ExactMatrix":
        """A matrix of this shape holding rows, reduced mod p over GF(p)."""
        p = self.field.p
        if p is not None:
            rows = [[x % p for x in row] for row in rows]
        return ExactMatrix._of(self.field, self.rows, self.cols, tuple(map(tuple, rows)))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("matrix shape mismatch in addition")
        return self._reduced([[a + b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "ExactMatrix":
        return self._reduced([[-x for x in row] for row in self.data])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ValidationError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        field = self.field
        zero = field.zero()
        ot = _columns(other.data, other.cols)
        out = []
        if field.kind == "gf":
            p = field.p
            for row in self.data:
                out.append(tuple(
                    sum(a * b for a, b in zip(row, col)) % p for col in ot
                ))
        else:
            for row in self.data:
                out.append(tuple(
                    sum((a * b for a, b in zip(row, col)), zero) for col in ot
                ))
        return ExactMatrix._of(field, self.rows, other.cols, tuple(out))

    def scale(self, c) -> "ExactMatrix":
        c = self.field.coerce(c)
        return self._reduced([[c * x for x in row] for row in self.data])

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...], int]:
        """Reduced row echelon form, zero rows last; pivot columns; rank."""
        rows, pivots = rref(self.data, self.cols, self.field.p)
        rows += [(self.field.zero(),) * self.cols] * (self.rows - len(rows))
        reduced = ExactMatrix._of(self.field, self.rows, self.cols, tuple(map(tuple, rows)))
        return reduced, tuple(pivots), len(pivots)

    def rank(self) -> int:
        return self.rref()[2]

    def nullspace_basis(self) -> list[tuple]:
        """Basis of {x : Mx = 0}, one tuple per basis vector."""
        R, pivots, rank = self.rref()
        field, p = self.field, self.field.p
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [field.zero()] * self.cols
            vec[fc] = field.one()
            for i, pc in enumerate(pivots):
                x = -R.data[i][fc]
                vec[pc] = x if p is None else x % p
            basis.append(tuple(vec))
        return basis

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValidationError("only square matrices can be inverted")
        n = self.rows
        ident = ExactMatrix.identity(self.field, n)
        aug = hstack([self, ident])
        R, pivots, rank = aug.rref()
        if rank < n or any(p >= n for p in pivots[:rank]):
            raise ValidationError("matrix is singular")
        return R.take_columns(range(n, 2 * n))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


# -- block assembly ----------------------------------------------------------


def hstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    mats = list(mats)
    if not mats:
        raise ValidationError("hstack of an empty list needs an explicit shape")
    field, rows = mats[0].field, mats[0].rows
    for m in mats[1:]:
        if m.field != field:
            raise FieldMismatch("hstack over mixed fields")
        if m.rows != rows:
            raise ValidationError("hstack row-count mismatch")
    data = tuple(sum((m.data[i] for m in mats), ()) for i in range(rows))
    return ExactMatrix._of(field, rows, sum(m.cols for m in mats), data)


# -- span utilities ------------------------------------------------------------


def span_rows(vectors: Iterable[Sequence], n: int, p: int | None) -> tuple[tuple, ...]:
    """The canonical rows of the span of vectors in F^n: its reduced-echelon
    basis, one tuple per row, so equal spans give equal tuples.  Entries are
    as for rref; over Q they must be Fractions."""
    return tuple(map(tuple, rref(vectors, n, p)[0]))


def meet_rows(x: Sequence[tuple], y: Sequence[tuple], n: int,
              p: int | None) -> tuple[tuple, ...]:
    """The canonical rows of span(x) ∩ span(y) in F^n, by Zassenhaus: the
    right halves of the rows of rref([x | x; y | 0]) whose left half is zero,
    already in reduced echelon form."""
    pad = (0 if p else Fraction(0),) * n
    rows = span_rows([*(r + r for r in x), *(r + pad for r in y)], 2 * n, p)
    return tuple(r[n:] for r in rows if not any(r[:n]))


def column_matrix(field: FieldSpec, n: int, vectors: Sequence[Sequence]) -> ExactMatrix:
    """The n-row matrix with the given vectors as its columns."""
    return ExactMatrix._of(field, n, len(vectors), _columns(vectors, n))


def column_space_basis(m: ExactMatrix) -> ExactMatrix:
    """Canonical basis of the column space: span_rows of the columns, as the
    columns of the result, so equal spans yield equal matrices."""
    return column_matrix(m.field, m.rows, span_rows(_columns(m.data, m.cols), m.rows, m.field.p))


def solve_columns(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix | None:
    """One X with a @ X = b, or None when inconsistent (pivot-free entries 0)."""
    if a.rows != b.rows:
        raise ValidationError("row mismatch in solve")
    field = a.field
    aug = hstack([a, b])
    R, pivots, rank = aug.rref()
    pivots_in_a = [p for p in pivots if p < a.cols]
    if len(pivots_in_a) < rank:
        return None  # a pivot landed in the b side: inconsistent
    sol = [(field.zero(),) * b.cols] * a.cols
    for i, pc in enumerate(pivots_in_a):
        sol[pc] = R.data[i][a.cols:]
    return ExactMatrix._of(field, a.cols, b.cols, tuple(sol))


def _independent_columns(left: ExactMatrix, right: ExactMatrix) -> list[int]:
    """The indices of the columns of right outside the span of left and of
    the right columns before them: right's pivot columns in rref([left | right])."""
    rows = [x + y for x, y in zip(left.data, right.data)]
    _, pivots = rref(rows, left.cols + right.cols, right.field.p)
    return [c - left.cols for c in pivots if c >= left.cols]


def complete_to_full_rank(m: ExactMatrix) -> ExactMatrix:
    """Greedy standard-basis completion: C with rank [m | C] = rows(m) and
    rows(m) - rank(m) independent columns, each standard basis vector outside
    the span of m and of the vectors before it, in index order."""
    ident = ExactMatrix.identity(m.field, m.rows)
    return ident.take_columns(_independent_columns(m, ident))
