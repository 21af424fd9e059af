"""The Tits quadratic form of a poset, critical dimensions, finite-type tests.

The form of a poset S on variables indexed by Ŝ = S ∪ {0} is

    Q(x) = Σ_{a∈Ŝ} x_a² + Σ_{a≺b} x_a x_b − Σ_{a∈S} x_0 x_a,

evaluated exactly over the integers (negative entries allowed).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import BudgetExceeded, UnknownElement, ValidationError
from .linalg import resolve_budget
from .poset import CriticalEmbedding, Poset, critical_posets, critical_subposet_embeddings, memo
from .value import Value

DEFAULT_SCAN_BUDGET = 10_000_000


class DimensionVector(Value):
    """Map Ŝ → ℤ with the added index 0 stored separately.

    Zero entries are dropped on construction, so equality and hashing ignore
    explicit zeros ("missing keys mean 0").  Entries must be integers
    (operator.index); anything else raises ValidationError.
    """

    __slots__ = ("d0", "values")

    def __init__(self, d0: int, values: Mapping[str, int] | None = None):
        values = values or {}
        try:
            d0 = operator.index(d0)
            entries = zip(values, map(operator.index, values.values()))
            vals = {str(k): v for k, v in entries if v}
        except TypeError:
            raise ValidationError(
                f"dimension entries must be integers: {d0!r}, {dict(values)!r}") from None
        self._fill(d0, vals)

    def get(self, a: str) -> int:
        return self.values.get(a, 0)

    def support(self) -> set[str]:
        return set(self.values)

    def total(self) -> int:
        return self.d0 + sum(self.values.values())

    def key(self):
        return (self.d0, tuple(sorted(self.values.items())))

    def __eq__(self, other):
        return isinstance(other, DimensionVector) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        inner = ", ".join(f"{a}:{v}" for a, v in sorted(self.values.items()))
        return f"({self.d0}; {inner})"


def _check_dimension(p: Poset, d: DimensionVector):
    for a in d.values:
        if a not in p:
            raise UnknownElement(f"dimension vector mentions unknown element {a!r}")


def tits_value(p: Poset, d: DimensionVector) -> int:
    """Q(d) = d0² + Σ_a d(a)² + Σ_{a≺b} d(a)d(b) − d0·Σ_a d(a), summed
    directly; it equals group_dimension − space_dimension."""
    _check_dimension(p, d)
    return _tits(p, _vector(p, d))


def _tits(p: Poset, vec: tuple[int, ...]) -> int:
    """Q of the vector (d0, d(a) for a in p.elements)."""
    d0 = vec[0]
    q = d0 * d0
    for x in vec[1:]:
        q += x * (x - d0)
    for i, j in p._pairs:
        q += vec[i + 1] * vec[j + 1]
    return q


def _vector(p: Poset, d: DimensionVector) -> tuple[int, ...]:
    """d as the vector (d0, d(a) for a in p.elements)."""
    return (d.d0, *(d.values.get(a, 0) for a in p.elements))


def group_dimension(p: Poset, d: DimensionVector) -> int:
    """d0² + Σ_a d(a)² + Σ_{a≺b} d(a)d(b): the base-change group dimension."""
    _check_dimension(p, d)
    vec = _vector(p, d)
    return sum(x * x for x in vec) + sum(vec[i + 1] * vec[j + 1] for i, j in p._pairs)


def space_dimension(p: Poset, d: DimensionVector) -> int:
    """Σ_a d0·d(a): the dimension of the space of elements of dimension d."""
    _check_dimension(p, d)
    return d.d0 * sum(d.get(a) for a in p.elements)


@dataclass(frozen=True)
class CriticalDimension:
    """One of the five zero vectors of the form on a critical poset."""

    kind: str
    c0: int
    assignment: Mapping[str, int]

    def dimension(self) -> DimensionVector:
        return DimensionVector(self.c0, dict(self.assignment))


# c0 and the values in the element order of critical_posets()[kind].
_CRITICAL_DIMENSIONS = tuple(
    CriticalDimension(kind, c0, dict(zip(critical_posets()[kind].elements, values)))
    for kind, c0, values in (("A4", 2, (1, 1, 1, 1)),
                             ("T222", 3, (1,) * 6),
                             ("T133", 4, (2, 1, 1, 1, 1, 1, 1)),
                             ("T125", 6, (3, 2, 2, 1, 1, 1, 1, 1)),
                             ("K", 5, (1, 2, 2, 1, 1, 1, 1, 1))))
_CRITICAL_BY_KIND = {c.kind: c for c in _CRITICAL_DIMENSIONS}


def critical_dimension_table() -> tuple[CriticalDimension, ...]:
    """The five critical dimensions C1..C5, keyed by abstract poset labels."""
    return _CRITICAL_DIMENSIONS


def dominated_critical(
    p: Poset, d: DimensionVector
) -> tuple[CriticalDimension, CriticalEmbedding] | None:
    """A critical dimension C with C ≤ d through some embedding, or None.

    Every embedding of each critical poset is tried, which covers all value
    placements consistent with the critical poset's automorphisms.
    """
    _check_dimension(p, d)
    return _dominated(p, _vector(p, d))


def _dominated(p: Poset, vec: tuple[int, ...]):
    """The witness of the first embedding whose lower bounds vec meets."""
    for c0, low, witness in memo(_BOUNDS, (p.elements, p._below), _build_bounds, p):
        if vec[0] >= c0 and all(vec[i] >= v for i, v in low):
            return witness
    return None


# Per labelled order: each critical embedding's c0, its (position, lower bound)
# pairs on (d_1, ..., d_n) and its witness, in critical_subposet_embeddings order.
_BOUNDS: dict[tuple, tuple] = {}


def _build_bounds(p: Poset) -> tuple:
    out = []
    for emb in critical_subposet_embeddings(p):
        crit = _CRITICAL_BY_KIND[emb.kind]
        low = tuple((p._index[emb.image_map[x]] + 1, v) for x, v in crit.assignment.items())
        out.append((crit.c0, low, (crit, emb)))
    return tuple(out)


def is_finite_type(p: Poset, d: DimensionVector) -> bool:
    """Criterion: no critical dimension is dominated by d."""
    return dominated_critical(p, d) is None


def is_root(p: Poset, d: DimensionVector) -> bool:
    return tits_value(p, d) == 1


def finite_type_scan(p: Poset, d: DimensionVector, budget: int | None = None) -> bool:
    """Exhaustive check that Q > 0 on every nonzero d' ≤ d.

    Exponential in the entries; serves as the cross-check oracle for
    is_finite_type.  Q is evaluated on the whole box of subvectors at once,
    in exact int64 arithmetic; a negative entry leaves no subvector, so the
    answer is True.  Raises BudgetExceeded when the box is too large, as
    counted entry by entry in order.
    """
    _check_dimension(p, d)
    budget = resolve_budget(budget, DEFAULT_SCAN_BUDGET)
    bounds = _vector(p, d)
    if min(bounds) < 0:
        return True
    count = 1
    for b in bounds:
        count *= b + 1
        if count > budget:
            raise BudgetExceeded(
                f"finite_type_scan grid of {count}+ subvectors exceeds budget {budget}"
            )
    # Every partial sum of Q lies within ±(Σ bounds)², so int64 is exact below
    # 2^63; the grid check above already ensures it for budgets up to 3·10^9.
    if sum(bounds) ** 2 >= 1 << 63:
        raise BudgetExceeded(
            f"finite_type_scan entries sum to {sum(bounds)}, past the exact int64 range"
        )
    # column 0 of the box is the zero vector, every later column is nonzero
    x = np.indices([b + 1 for b in bounds], dtype=np.int64).reshape(len(bounds), -1)
    q = (x * x).sum(axis=0) - x[0] * x[1:].sum(axis=0)
    for i, j in p._pairs:
        q += x[i + 1] * x[j + 1]
    return bool(np.all(q[1:] > 0))
