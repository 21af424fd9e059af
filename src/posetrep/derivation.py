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
from .linalg import (
    ExactMatrix,
    complete_to_full_rank,
    hstack,
    solve_columns,
    span_intersection,
    span_sum,
    vstack,
)
from .poset import (
    Poset,
    build_poset,
    incomparables,
    lower_cone,
    maximal_elements,
    strict_lower_cone,
)
from .reps import MatrixRep, SubspaceRep, dimension_of
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
    provenance: Mapping[str, tuple]


def derive_poset(p: Poset, a: str) -> DerivedPoset:
    """The derived poset: Θ(a)-pairs adjoined, a removed.

    The marking is deterministic: p' is the member with the smaller input
    index, unless exactly one member is maximal in the base poset, in which
    case the maximal member becomes p''.
    """
    p.check_element(a)
    maxes = maximal_elements(p)
    if a not in maxes:
        raise NotMaximal(f"{a!r} is not maximal")
    theta = p.sorted_subset(incomparables(p, a))
    marks = []
    for b, c in itertools.combinations(theta, 2):
        if p.comparable(b, c):
            continue
        b_max, c_max = b in maxes, c in maxes
        if b_max != c_max:
            prime, second = (c, b) if b_max else (b, c)
        else:
            prime, second = b, c
        marks.append(PairMark(pair_label(b, c), (b, c), prime, second))

    member_sets: dict[str, tuple[str, ...]] = {x: (x,) for x in p.elements if x != a}
    provenance: dict[str, tuple] = {x: ("element", x) for x in p.elements if x != a}
    for pm in marks:
        member_sets[pm.label] = pm.members
        provenance[pm.label] = ("pair", pm.members)

    elements = [x for x in p.elements if x != a] + [pm.label for pm in marks]
    cones = {y: lower_cone(p, y) for y in p.elements}

    def dominated(bs: tuple[str, ...], cs: tuple[str, ...]) -> bool:
        return all(any(x in cones[y] for y in cs) for x in bs)

    relations = [(B, C) for B in elements for C in elements
                 if B != C and dominated(member_sets[B], member_sets[C])]
    result = build_poset(elements, relations)
    return DerivedPoset(p, a, tuple(marks), result, provenance)


def differentiate(v: SubspaceRep, a: str,
                  context: DerivedPoset | None = None) -> SubspaceRep:
    """Derived representation on S^a, with ambient space V(a).

    An adjoined pair q = {b, c} takes (V(b)+V(c)) ∩ V(a).  The literal
    reading V(b) ∩ V(c) ∩ V(a) can fail to be order preserving.
    """
    p = v.poset
    if context is None:
        context = derive_poset(p, a)
    elif context.base != p or context.pivot != a:
        raise ContextMismatch("derivation context does not match representation/pivot")
    Va = v.subspace(a)
    field = v.field

    def in_pivot_coords(x: ExactMatrix) -> ExactMatrix:
        inter = span_intersection(x, Va)
        coords = solve_columns(Va, inter)
        if coords is None:  # unreachable: inter ⊆ span(Va)
            raise ValidationError("intersection escaped the pivot subspace")
        return coords

    subs: dict[str, ExactMatrix] = {}
    for x in context.result.elements:
        kind, payload = context.provenance[x]
        if kind == "element":
            subs[x] = in_pivot_coords(v.subspace(payload))
        else:
            b, c = payload
            subs[x] = in_pivot_coords(span_sum(v.subspace(b), v.subspace(c)))
    return SubspaceRep(context.result, field, Va.cols, subs)


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
    pair_order = list(context.pairs)
    pair_cols = {pm.label: v.cols(pm.label) for pm in pair_order}
    new_rows = sum(pair_cols.values())
    row_offset = {}
    off = 0
    for pm in pair_order:
        row_offset[pm.label] = off
        off += pair_cols[pm.label]

    def with_zero_rows(top: ExactMatrix) -> ExactMatrix:
        return vstack([top, ExactMatrix.zeros(field, new_rows, top.cols)])

    def pair_column_block(pm: PairMark, b: str) -> ExactMatrix:
        cols = pair_cols[pm.label]
        top = v.blocks[pm.label] if b == pm.second else ExactMatrix.zeros(field, D0, cols)
        bottom = ExactMatrix.zeros(field, new_rows, cols)
        if cols:
            rows = [list(r) for r in bottom.data]
            for j in range(cols):
                rows[row_offset[pm.label] + j][j] = field.one()
            bottom = ExactMatrix(field, new_rows, cols, rows)
        return vstack([top, bottom])

    delta_prime = strict_lower_cone(base, a)
    theta = incomparables(base, a)
    blocks: dict[str, ExactMatrix] = {}
    for b in base.elements:
        if b == a:
            flat = hstack([ExactMatrix.zeros(field, D0, 0)]
                          + [v.blocks[x] for x in base.elements if x in delta_prime])
            completion = complete_to_full_rank(flat)
            blocks[b] = with_zero_rows(completion)
        elif b in delta_prime:
            blocks[b] = with_zero_rows(v.blocks[b])
        elif b in theta:
            parts = [with_zero_rows(v.blocks[b])]
            parts += [pair_column_block(pm, b) for pm in pair_order if b in pm.members]
            blocks[b] = hstack(parts)
        else:
            # comparable with a but not below: impossible for a maximal pivot
            raise ValidationError(f"element {b!r} sits above the maximal pivot")
    result = MatrixRep(base, field, D0 + new_rows, blocks)
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
    delta_prime = p.sorted_subset(strict_lower_cone(p, a))
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
        values = {}
        ok = True
        for b in delta_prime:
            values[b] = d.get(b)
        for b in theta:
            v = d.get(b) - sum(
                s for s, pm in zip(assignment, pairs) if b in pm.members
            )
            if v < 0:
                ok = False
                break
            values[b] = v
        if not ok:
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
