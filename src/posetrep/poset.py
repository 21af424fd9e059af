"""Finite posets and the order combinatorics used by the classification.

Elements are opaque string labels; the strict order is stored transitively
closed.  All querying operations are pure and results are cached on the
poset, which is immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import CycleDetected, DuplicateLabel, UnknownElement


class Poset:
    """Finite strict partial order, transitively closed at construction."""

    __slots__ = ("elements", "_index", "_lt", "_cache")

    def __init__(self, elements: Sequence[str], lt_pairs: Iterable[tuple[str, str]]):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise DuplicateLabel("element labels must be pairwise distinct")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(elements)})
        object.__setattr__(self, "_lt", frozenset(lt_pairs))
        object.__setattr__(self, "_cache", {})
        for a, b in self._lt:
            if a not in self._index or b not in self._index:
                raise UnknownElement(f"relation ({a},{b}) uses unknown labels")
            if a == b:
                raise CycleDetected(f"irreflexivity violated at {a}")

    def __setattr__(self, *args):
        raise AttributeError("Poset is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self._lt == other._lt
        )

    def __hash__(self):
        return hash((self.elements, self._lt))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, a):
        return a in self._index

    def __repr__(self):
        rels = sorted(self._lt, key=lambda ab: (self._index[ab[0]], self._index[ab[1]]))
        return f"Poset({list(self.elements)}, {rels})"

    def index(self, a: str) -> int:
        self.check_element(a)
        return self._index[a]

    def check_element(self, a: str):
        if a not in self._index:
            raise UnknownElement(f"{a!r} is not an element of this poset")

    def lt(self, a: str, b: str) -> bool:
        self.check_element(a)
        self.check_element(b)
        return (a, b) in self._lt

    def le(self, a: str, b: str) -> bool:
        return a == b and a in self or self.lt(a, b)

    def comparable(self, a: str, b: str) -> bool:
        return a == b or self.lt(a, b) or self.lt(b, a)

    def relation_pairs(self) -> frozenset[tuple[str, str]]:
        return self._lt

    def sorted_subset(self, subset: Iterable[str]) -> tuple[str, ...]:
        """Subset in element input order."""
        subset = set(subset)
        for a in subset:
            self.check_element(a)
        return tuple(a for a in self.elements if a in subset)


def build_poset(elements: Sequence[str], relations: Iterable[Sequence[str]]) -> Poset:
    """Build a poset from labels and generating relations (a, b) meaning a ≺ b.

    The relation is transitively closed; cycles raise CycleDetected.
    """
    elements = tuple(str(e) for e in elements)
    if len(set(elements)) != len(elements):
        raise DuplicateLabel("element labels must be pairwise distinct")
    index = {a: i for i, a in enumerate(elements)}
    n = len(elements)
    lt = [[False] * n for _ in range(n)]
    for rel in relations:
        a, b = rel
        if a not in index or b not in index:
            raise UnknownElement(f"relation ({a},{b}) uses unknown labels")
        if a == b:
            raise CycleDetected(f"self-relation at {a}")
        lt[index[a]][index[b]] = True
    # Floyd-Warshall closure; n stays tiny by the package's scope.
    for k in range(n):
        lk = lt[k]
        for i in range(n):
            if lt[i][k]:
                li = lt[i]
                for j in range(n):
                    if lk[j]:
                        li[j] = True
    pairs = []
    for i in range(n):
        if lt[i][i]:
            raise CycleDetected(f"cycle through {elements[i]}")
        for j in range(n):
            if lt[i][j]:
                pairs.append((elements[i], elements[j]))
    return Poset(elements, pairs)


# -- cone / comparability queries ------------------------------------------------


def maximal_elements(p: Poset) -> set[str]:
    return {a for a in p.elements if not any(p.lt(a, b) for b in p.elements)}


def lower_cone(p: Poset, a: str) -> set[str]:
    p.check_element(a)
    return {b for b in p.elements if p.le(b, a)}


def strict_lower_cone(p: Poset, a: str) -> set[str]:
    return lower_cone(p, a) - {a}


def incomparables(p: Poset, a: str) -> set[str]:
    p.check_element(a)
    return {b for b in p.elements if b != a and not p.comparable(a, b)}


@dataclass(frozen=True)
class Antichain:
    members: frozenset

    def __len__(self):
        return len(self.members)


def width(p: Poset) -> tuple[int, Antichain]:
    """Maximum antichain size with a witness, by exhaustive pruned search."""
    if "width" in p._cache:
        return p._cache["width"]
    best: list[str] = []
    elems = p.elements
    n = len(elems)

    def extend(start: int, current: list[str]):
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        for i in range(start, n):
            if len(current) + (n - i) <= len(best):
                break
            c = elems[i]
            if all(not p.comparable(c, x) for x in current):
                current.append(c)
                extend(i + 1, current)
                current.pop()

    extend(0, [])
    result = (len(best), Antichain(frozenset(best)))
    p._cache["width"] = result
    return result


def induced_subposet(p: Poset, subset: Iterable[str]) -> Poset:
    members = p.sorted_subset(subset)
    pairs = [(a, b) for a in members for b in members if p.lt(a, b)]
    return Poset(members, pairs)


# -- critical posets ----------------------------------------------------------------


def primitive_poset(*lengths: int) -> Poset:
    """Disjoint union of chains; chain i gets labels '<letter>1' (bottom) upward."""
    elements = []
    relations = []
    for i, ln in enumerate(lengths):
        letter = chr(ord("a") + i)
        labels = [f"{letter}{j + 1}" for j in range(ln)]
        elements.extend(labels)
        relations.extend((labels[j], labels[j + 1]) for j in range(ln - 1))
    return build_poset(elements, relations)


def poset_K() -> Poset:
    """The eight-element critical poset K."""
    return build_poset(
        ["a1", "a2", "b1", "b2", "c1", "c2", "c3", "c4"],
        [("a2", "a1"), ("b2", "b1"), ("b2", "a1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c4")],
    )


CRITICAL_KINDS = ("A4", "T222", "T133", "T125", "K")

_CRITICAL_POSETS: dict[str, Poset] | None = None


def critical_posets() -> dict[str, Poset]:
    global _CRITICAL_POSETS
    if _CRITICAL_POSETS is None:
        _CRITICAL_POSETS = {
            "A4": primitive_poset(1, 1, 1, 1),
            "T222": primitive_poset(2, 2, 2),
            "T133": primitive_poset(1, 3, 3),
            "T125": primitive_poset(1, 2, 5),
            "K": poset_K(),
        }
    return _CRITICAL_POSETS


@dataclass(frozen=True)
class CriticalEmbedding:
    """Order embedding of an abstract critical poset onto an induced subposet."""

    kind: str
    image_map: Mapping[str, str]

    def image(self) -> set[str]:
        return set(self.image_map.values())


def order_embeddings(pattern: Poset, host: Poset) -> list[dict[str, str]]:
    """All injective maps preserving and reflecting the strict order."""
    pat = pattern.elements
    out: list[dict[str, str]] = []

    def backtrack(i: int, assigned: dict[str, str], used: set[str]):
        if i == len(pat):
            out.append(dict(assigned))
            return
        x = pat[i]
        for h in host.elements:
            if h in used:
                continue
            ok = True
            for y, hy in assigned.items():
                if pattern.lt(x, y) != host.lt(h, hy) or pattern.lt(y, x) != host.lt(hy, h):
                    ok = False
                    break
            if ok:
                assigned[x] = h
                used.add(h)
                backtrack(i + 1, assigned, used)
                del assigned[x]
                used.remove(h)

    backtrack(0, {}, set())
    return out


def critical_subposet_embeddings(p: Poset) -> list[CriticalEmbedding]:
    """Every embedding of every critical poset; empty iff p is representation finite."""
    if "critical_embeddings" in p._cache:
        return p._cache["critical_embeddings"]
    w = width(p)[0]
    found = []
    for kind, pattern in critical_posets().items():
        if len(pattern) > len(p):
            continue
        if width(pattern)[0] > w:
            continue
        for emb in order_embeddings(pattern, p):
            found.append(CriticalEmbedding(kind, emb))
    p._cache["critical_embeddings"] = found
    return found


# -- semidecomposability --------------------------------------------------------------


def is_semidecomposable(p: Poset):
    """Partition (S1, S2, S3) with S3 a chain, S1, S2 nonempty and S2 entirely
    below S1; None when no such partition exists.

    Deterministic first-found order: S3 over chain subsets by size then mask,
    then S1 by ascending bitmask over the remainder.
    """
    elems = p.elements
    n = len(elems)
    chain_subsets = [frozenset()]
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            members = [elems[i] for i in combo]
            if all(p.comparable(a, b) for a, b in itertools.combinations(members, 2)):
                chain_subsets.append(frozenset(members))
    for s3 in chain_subsets:
        rest = [a for a in elems if a not in s3]
        m = len(rest)
        if m < 2:
            continue
        for mask in range(1, (1 << m) - 1):
            s1 = [rest[i] for i in range(m) if mask >> i & 1]
            s2 = [rest[i] for i in range(m) if not mask >> i & 1]
            if all(p.lt(b, a) for a in s1 for b in s2):
                return (
                    tuple(p.sorted_subset(s1)),
                    tuple(p.sorted_subset(s2)),
                    tuple(p.sorted_subset(s3)),
                )
    return None


# -- canonical forms ------------------------------------------------------------------


def canonical_form(p: Poset, weights: Mapping[str, int] | None = None):
    """Canonical invariant of (poset, optional vertex weights) under relabelling.

    Minimizes the encoded relation set (plus weights) over permutations that
    respect a cheap vertex invariant, so isomorphic weighted posets get equal
    keys.  Returns (key, order) where order lists the elements in canonical
    positions.
    """
    elems = p.elements
    n = len(elems)
    wt = {a: (weights.get(a, 0) if weights else 0) for a in elems}

    pairs = p.relation_pairs()
    below: dict[str, list[str]] = {a: [] for a in elems}
    above: dict[str, list[str]] = {a: [] for a in elems}
    for a, b in pairs:
        below[b].append(a)
        above[a].append(b)

    inv = {a: (wt[a], len(below[a]), len(above[a])) for a in elems}
    for _ in range(2):
        inv = {
            a: (
                inv[a],
                tuple(sorted(inv[b] for b in below[a])),
                tuple(sorted(inv[b] for b in above[a])),
            )
            for a in elems
        }

    groups: dict = {}
    for a in elems:
        groups.setdefault(inv[a], []).append(a)
    keys = sorted(groups)
    slots: list[list[str]] = [groups[k] for k in keys]

    best = None
    best_order = None
    for perm_parts in itertools.product(*(itertools.permutations(g) for g in slots)):
        order = [a for part in perm_parts for a in part]
        pos = {a: i for i, a in enumerate(order)}
        rels = tuple(sorted((pos[a], pos[b]) for a, b in pairs))
        key = (rels, tuple(wt[a] for a in order))
        if best is None or key < best:
            best = key
            best_order = tuple(order)
    return (n, best), best_order
