"""Derivation with respect to a maximal element, and its inverse integration.

Deriving S at a maximal element a removes a and adjoins every incomparable
pair from Θ(a) as a new element; representations move down by intersecting
with V(a) and move back up through an explicit block-matrix recipe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import ContextMismatch, InvariantViolated, NotMaximal, ValidationError
from .linalg import ExactMatrix, complete_to_full_rank, hstack, meet_rows
from .poset import Poset, incomparables, strict_lower_cone
from .reps import MatrixRep, SubspaceRep, check_order, dimension_of
from .tits import DimensionVector


def pair_label(b: str, c: str) -> str:
    return "{%s,%s}" % (b, c)


@dataclass(frozen=True)
class PairMark:
    """An incomparable pair adjoined during derivation, with its marking."""

    label: str
    members: tuple[str, str]  # in base input order
    prime: str                # p'
    second: str               # p''


@dataclass(frozen=True)
class DerivedPoset:
    base: Poset
    pivot: str
    pairs: tuple[PairMark, ...]
    result: Poset


def derive_poset(p: Poset, a: str) -> DerivedPoset:
    """The derived poset: Θ(a)-pairs adjoined, a removed.

    The marking is deterministic: p' is the member with the smaller input
    index, unless exactly one member is maximal in the base poset, in which
    case the maximal member becomes p''.  A pair {b,c} is labelled "{b,c}",
    with ' appended until the label is not already taken.
    """
    i = p.index(a)
    if p._above[i]:
        raise NotMaximal(f"{a!r} is not maximal")
    elems, below, above, n = p.elements, p._below, p._above, len(p)
    theta = [j for j in range(n) if not (below[i] | above[i] | 1 << i) >> j & 1]
    # the members of each element of the result, as a mask over p
    marks, taken, members = [], set(elems), [1 << j for j in range(n) if j != i]
    for j, k in itertools.combinations(theta, 2):
        if (below[j] | above[j]) >> k & 1:
            continue
        b, c = elems[j], elems[k]
        # p' is the smaller index, unless exactly one member is maximal
        prime, second = (c, b) if not above[j] and above[k] else (b, c)
        label = pair_label(b, c)
        while label in taken:  # a pair adjoined by an earlier derivation
            label += "'"
        taken.add(label)
        marks.append(PairMark(label, (b, c), prime, second))
        members.append(1 << j | 1 << k)

    # B ≺ C when each member of B is at or below some member of C: on these
    # member sets that order is transitive and antisymmetric, so it is closed
    reach = [above[j] | 1 << j for j in range(n)]

    def dominated(low: int, high: int) -> bool:
        return all(reach[j] & high for j in range(n) if low >> j & 1)

    order = tuple(sum(1 << s for s, low in enumerate(members) if s != t and dominated(low, high))
                  for t, high in enumerate(members))
    result = Poset._of((*(x for x in elems if x != a), *(pm.label for pm in marks)), order)
    return DerivedPoset(p, a, tuple(marks), result)


def differentiate(v: SubspaceRep, a: str,
                  context: DerivedPoset | None = None) -> SubspaceRep:
    """Derived representation on S^a, with ambient space V(a).

    An adjoined pair q = {b, c} takes (V(b)+V(c)) ∩ V(a).  The literal
    reading V(b) ∩ V(c) ∩ V(a) can fail to be order preserving.  A vector of
    V(a) has its coordinates in V(a)'s echelon basis at V(a)'s pivots, and
    read there the echelon rows of each meet stay in echelon form.
    """
    p = v.poset
    if context is None:
        context = derive_poset(p, a)
    elif context.base != p or context.pivot != a:
        raise ContextMismatch("derivation context does not match representation/pivot")
    n, q, va = v.ambient_dim, v.field.p, v.rows[a]
    pivots = [row.index(1) for row in va]
    pairs = {pm.label: pm.members for pm in context.pairs}
    rows = {}
    for x in context.result.elements:
        span = v.rows[pairs[x][0]] + v.rows[pairs[x][1]] if x in pairs else v.rows[x]
        rows[x] = tuple(tuple(w[c] for c in pivots) for w in meet_rows(span, va, n, q))
    check_order(context.result, len(va), q, rows)
    return SubspaceRep._of(context.result, v.field, len(va), rows)


def integrate(v: MatrixRep, context: DerivedPoset) -> MatrixRep:
    """Inverse construction at the block-matrix level.

    New rows are indexed by the pair elements with multiplicity d(pair); each
    pair contributes identity blocks to both of its members' new columns, the
    p''-side additionally carrying the pair block on the original rows.  The
    pivot block is a deterministic rank completion of the blocks below it.
    """
    if v.poset != context.result:
        raise ContextMismatch("element is not defined over the given derived poset")
    base, a = context.base, context.pivot
    field, D0 = v.field, v.d0
    zero, one = field.zero(), field.one()
    widths = [v.cols(pm.label) for pm in context.pairs]
    offsets = list(itertools.accumulate(widths, initial=0))
    new_rows = offsets[-1]

    def assemble(own: ExactMatrix, b: str) -> ExactMatrix:
        """own's rows, then b's pair columns: the pair block on the old rows
        when b is p'' (zeros otherwise), an identity on the pair's new rows."""
        joined = [(k, pm) for k, pm in enumerate(context.pairs) if b in pm.members]
        cols = own.cols + sum(widths[k] for k, _ in joined)
        old = [list(r) for r in own.data]
        new = [[zero] * cols for _ in range(new_rows)]
        lead = own.cols
        for k, pm in joined:
            w = widths[k]
            top = v.blocks[pm.label].data if b == pm.second else [(zero,) * w] * D0
            for row, tail in zip(old, top):
                row.extend(tail)
            for j in range(w):
                new[offsets[k] + j][lead + j] = one
            lead += w
        return ExactMatrix._of(field, D0 + new_rows, cols, tuple(map(tuple, old + new)))

    blocks: dict[str, ExactMatrix] = {}
    for b in base.elements:
        if b == a:
            flat = hstack([ExactMatrix.zeros(field, D0, 0)] + [v.blocks[x] for x in base.below(a)])
            blocks[b] = assemble(complete_to_full_rank(flat), b)
        elif base.lt(a, b):  # impossible for a maximal pivot
            raise ValidationError(f"element {b!r} sits above the maximal pivot")
        else:
            blocks[b] = assemble(v.blocks[b], b)
    result = MatrixRep._of(base, field, D0 + new_rows, blocks)
    expected = dstar(dimension_of(v), context, blocks[a].cols)
    if dimension_of(result) != expected:
        raise InvariantViolated(
            f"integration gave {dimension_of(result)}, expected {expected}")
    return result


def dstar(dprime: DimensionVector, context: DerivedPoset, da: int) -> DimensionVector:
    """Dimension of the integrated element, given the completion column count."""
    base, a = context.base, context.pivot
    delta_prime = strict_lower_cone(base, a)
    theta = incomparables(base, a)
    pair_sum = sum(dprime.get(pm.label) for pm in context.pairs)
    values = {a: da}
    for b in base.elements:
        if b in delta_prime:
            values[b] = dprime.get(b)
        elif b in theta:
            values[b] = dprime.get(b) + sum(
                dprime.get(pm.label) for pm in context.pairs if b in pm.members
            )
    return DimensionVector(dprime.d0 + pair_sum, values)


def subordinate_dimensions(context: DerivedPoset,
                           d: DimensionVector) -> list[DimensionVector]:
    """All dimensions over the derived poset whose integration can have
    dimension d.

    The pivot value d(a) is forced to be the completion count, which pins the
    feasibility window for the rank of the blocks below a.
    """
    p, a = context.base, context.pivot
    delta_prime = p.below(a)
    theta = p.sorted_subset(incomparables(p, a))
    pairs = list(context.pairs)
    da = d.get(a)
    out = []
    ranges = [range(min(d.get(b) for b in pm.members) + 1) for pm in pairs]
    for assignment in itertools.product(*ranges):
        total = sum(assignment)
        d0p = d.d0 - total
        if d0p < 0:
            continue
        values = {b: d.get(b) for b in delta_prime}
        for b in theta:
            values[b] = d.get(b) - sum(
                s for s, pm in zip(assignment, pairs) if b in pm.members
            )
        if any(values[b] < 0 for b in theta):
            continue
        for pm, s in zip(pairs, assignment):
            values[pm.label] = s
        lower_rank_cap = sum(values.get(b, 0) for b in delta_prime)
        if not (max(0, d0p - lower_rank_cap) <= da <= d0p):
            continue
        out.append(DimensionVector(d0p, values))
    out.sort(key=lambda dv: dv.key())
    return out


@dataclass(frozen=True)
class ExceptionalSet:
    """Dimension vectors of the indecomposables annihilated by derivation."""

    pivot: str
    t0: DimensionVector
    e_singles: Mapping[str, DimensionVector]
    e_pairs: Mapping[tuple[str, str], DimensionVector]

    def dimension_vectors(self) -> list[DimensionVector]:
        return [self.t0] + list(self.e_singles.values()) + list(self.e_pairs.values())

    def contains_dimension(self, dv: DimensionVector) -> bool:
        return any(dv == other for other in self.dimension_vectors())


def exceptional_set(p: Poset, a: str) -> ExceptionalSet:
    """T0, E_b for each b in Θ(a) and E_{b,c} for each pair adjoined by
    derive_poset(p, a), in its order."""
    context = derive_poset(p, a)
    singles = {b: DimensionVector(1, {b: 1}) for b in p.sorted_subset(incomparables(p, a))}
    pairs = {pm.members: DimensionVector(1, dict.fromkeys(pm.members, 1))
             for pm in context.pairs}
    return ExceptionalSet(a, DimensionVector(1, {}), singles, pairs)
