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
from .poset import CriticalEmbedding, Poset, critical_subposet_embeddings
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

    def is_zero(self) -> bool:
        return self.d0 == 0 and not self.values

    def restrict(self, subset) -> "DimensionVector":
        subset = set(subset)
        return DimensionVector(self.d0, {a: v for a, v in self.values.items() if a in subset})

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
    q = d.d0 * d.d0
    for x in d.values.values():
        q += x * (x - d.d0)
    for a, b in p.relation_pairs():
        q += d.get(a) * d.get(b)
    return q


def group_dimension(p: Poset, d: DimensionVector) -> int:
    """d0² + Σ_a d(a)² + Σ_{a≺b} d(a)d(b): the base-change group dimension."""
    _check_dimension(p, d)
    total = d.d0 * d.d0
    for a in p.elements:
        total += d.get(a) ** 2
    for a, b in p.relation_pairs():
        total += d.get(a) * d.get(b)
    return total


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


_CRITICAL_DIMENSIONS = (
    CriticalDimension("A4", 2, dict.fromkeys(["a1", "b1", "c1", "d1"], 1)),
    CriticalDimension("T222", 3, dict.fromkeys(["a1", "a2", "b1", "b2", "c1", "c2"], 1)),
    CriticalDimension(
        "T133", 4, {"a1": 2, **dict.fromkeys(["b1", "b2", "b3", "c1", "c2", "c3"], 1)}),
    CriticalDimension(
        "T125", 6,
        {"a1": 3, "b1": 2, "b2": 2, **dict.fromkeys(["c1", "c2", "c3", "c4", "c5"], 1)}),
    CriticalDimension(
        "K", 5,
        {"a1": 1, "a2": 2, "b1": 2, "b2": 1, **dict.fromkeys(["c1", "c2", "c3", "c4"], 1)}),
)
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
    for emb in critical_subposet_embeddings(p):
        crit = _CRITICAL_BY_KIND[emb.kind]
        if crit.c0 > d.d0:
            continue
        if all(v <= d.get(emb.image_map[x]) for x, v in crit.assignment.items()):
            return crit, emb
    return None


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
    elems = p.elements
    bounds = [d.d0] + [d.get(a) for a in elems]
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
    idx = {a: i + 1 for i, a in enumerate(elems)}
    for a, b in p.relation_pairs():
        q += x[idx[a]] * x[idx[b]]
    return bool(np.all(q[1:] > 0))
