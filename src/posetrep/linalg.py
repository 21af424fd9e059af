"""Exact linear algebra over prime fields GF(p) and the rationals.

Matrices are immutable value objects.  Entries are kept canonical at all
times: integers in [0, p) over a prime field, Fraction in lowest terms over
the rationals.  There is no floating point anywhere in this module.  Every
elimination goes through one Gauss-Jordan kernel, rref, which resolves the
field once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import FieldMismatch, ValidationError

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
            if self.p is None or not is_prime(self.p):
                raise ValidationError(f"field characteristic must be prime, got {self.p}")
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
        """Normalize an int / Fraction / "a/b" string into this field."""
        if self.kind == "gf":
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ValidationError(f"{x} has no image in GF({self.p})")
                return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
            if isinstance(x, str):
                x = Fraction(x)
                return self.coerce(x)
            return int(x) % self.p
        return Fraction(x)


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


class ExactMatrix:
    """Immutable dense matrix over a FieldSpec.

    Zero-row and zero-column matrices are first-class citizens: both counts
    are stored explicitly, so a 0xk matrix keeps its column count.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValidationError(
                f"matrix data does not match declared shape {rows}x{cols}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *args):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "ExactMatrix":
        coerced = [[field.coerce(x) for x in row] for row in rows]
        r = len(coerced)
        c = len(coerced[0]) if coerced else 0
        return cls(field, r, c, coerced)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "ExactMatrix":
        z = field.zero()
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        z, o = field.zero(), field.one()
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"ExactMatrix({self.field.label()}, {self.rows}x{self.cols}, {self.data})"

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for row in self.data for x in row)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.field, self.cols, self.rows,
            [tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)],
        )

    def take_columns(self, indices: Iterable[int]) -> "ExactMatrix":
        idx = list(indices)
        return ExactMatrix(
            self.field, self.rows, len(idx),
            [tuple(row[j] for j in idx) for row in self.data],
        )

    # -- arithmetic ---------------------------------------------------------

    def _check_field(self, other: "ExactMatrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field.label()} vs {other.field.label()}")

    def _reduced(self, rows) -> "ExactMatrix":
        """A matrix of this shape holding rows, reduced mod p over GF(p)."""
        p = self.field.p
        if p is not None:
            rows = [[x % p for x in row] for row in rows]
        return ExactMatrix(self.field, self.rows, self.cols, rows)

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
        ot = other.transpose().data
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
        return ExactMatrix(field, self.rows, other.cols, out)

    def scale(self, c) -> "ExactMatrix":
        c = self.field.coerce(c)
        return self._reduced([[c * x for x in row] for row in self.data])

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...], int]:
        """Reduced row echelon form, zero rows last; pivot columns; rank."""
        rows, pivots = rref(self.data, self.cols, self.field.p)
        zero = self.field.zero()
        rows += [[zero] * self.cols] * (self.rows - len(rows))
        return ExactMatrix(self.field, self.rows, self.cols, rows), tuple(pivots), len(pivots)

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
    data = [sum((list(m.data[i]) for m in mats), []) for i in range(rows)]
    return ExactMatrix(field, rows, sum(m.cols for m in mats), data)


def vstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    mats = list(mats)
    if not mats:
        raise ValidationError("vstack of an empty list needs an explicit shape")
    field, cols = mats[0].field, mats[0].cols
    for m in mats[1:]:
        if m.field != field:
            raise FieldMismatch("vstack over mixed fields")
        if m.cols != cols:
            raise ValidationError("vstack column-count mismatch")
    data = [row for m in mats for row in m.data]
    return ExactMatrix(field, sum(m.rows for m in mats), cols, data)


# -- span utilities ------------------------------------------------------------


def column_space_basis(m: ExactMatrix) -> ExactMatrix:
    """Canonical basis of the column space (columns of the result).

    Canonical means: RREF rows of the transpose, transposed back, so equal
    spans yield equal matrices.
    """
    R, _, rank = m.transpose().rref()
    rows = R.data[:rank]
    return ExactMatrix(m.field, m.rows, rank, [
        tuple(rows[k][i] for k in range(rank)) for i in range(m.rows)
    ])


def span_sum(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return column_space_basis(hstack([a, b]))


def span_intersection(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Canonical basis of colspan(a) ∩ colspan(b): a·x over the solutions
    of a·x = b·y."""
    null = hstack([a, -b]).nullspace_basis() if a.cols and b.cols else []
    x = ExactMatrix(a.field, a.cols, len(null),
                    [tuple(v[j] for v in null) for j in range(a.cols)])
    return column_space_basis(a @ x)


def span_contains(a: ExactMatrix, b: ExactMatrix) -> bool:
    """colspan(b) ⊆ colspan(a)?"""
    if b.cols == 0:
        return True
    return hstack([a, b]).rank() == a.rank()


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
    sol = [[field.zero()] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots_in_a):
        for j in range(b.cols):
            sol[pc][j] = R.data[i][a.cols + j]
    return ExactMatrix(field, a.cols, b.cols, sol)


def _independent_columns(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    """The columns of right outside the span of left and of the right columns
    before them: right's pivot columns in rref([left | right])."""
    rows = [x + y for x, y in zip(left.data, right.data)]
    _, pivots = rref(rows, left.cols + right.cols, right.field.p)
    return right.take_columns(c - left.cols for c in pivots if c >= left.cols)


def complete_to_full_rank(m: ExactMatrix) -> ExactMatrix:
    """Greedy standard-basis completion: C with rank [m | C] = rows(m) and
    rows(m) - rank(m) independent columns, each standard basis vector outside
    the span of m and of the vectors before it, in index order."""
    return _independent_columns(m, ExactMatrix.identity(m.field, m.rows))
