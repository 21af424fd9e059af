"""Finite posets and the order combinatorics used by the classification.

Elements are opaque string labels.  A poset owns its order: it stores each
element's strict down-set and up-set, and every cone, comparability and
maximality question in the package is answered from these tables.  Queries
are pure, and a poset is immutable after construction.  The public Poset
constructor checks its labels and relation.  build_poset checks and closes
generating relations; it, induced_subposet and the census's canonical
support build their posets through Poset._of, which trusts its order.

Every memo table in the package fills through memo(), under the one
reentrant LOCK: a hit is one dict read, a miss builds and stores its value
under the lock, so each value is built once even when threads race.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import CycleDetected, DuplicateLabel, UnknownElement, ValidationError
from .value import Value

# Reentrant, because a build may fill other tables: a census grows its space's.
LOCK = threading.RLock()


def memo(table: dict, key, build, *args):
    """table[key], stored as build(*args) under LOCK when missing."""
    got = table.get(key)
    if got is None:
        with LOCK:
            got = table.get(key)
            if got is None:
                got = table[key] = build(*args)
    return got


class Poset(Value):
    """Finite strict partial order with its tables _down[a] and _up[a], the
    frozensets of elements strictly below and strictly above a, _pairs, the
    relation as pairs of indices, and _cache, its memo table of canonical
    supports keyed by their weights.

    The labels must be distinct strings and the pairs transitively closed
    (build_poset closes generating relations): a pair given with its reverse
    raises CycleDetected, and an unclosed relation raises ValidationError.
    """

    __slots__ = ("elements", "_index", "_lt", "_pairs", "_down", "_up", "_cache")

    def __init__(self, elements: Sequence[str], lt_pairs: Iterable[tuple[str, str]]):
        elements = tuple(elements)
        if not all(isinstance(a, str) for a in elements):
            raise ValidationError(f"element labels must be strings, got {list(elements)}")
        if len(set(elements)) != len(elements):
            raise DuplicateLabel("element labels must be pairwise distinct")
        lt = frozenset(lt_pairs)
        for a, b in lt:
            if a not in elements or b not in elements:
                raise UnknownElement(f"relation ({a},{b}) uses unknown labels")
            if a == b:
                raise CycleDetected(f"irreflexivity violated at {a}")
            if (b, a) in lt:
                raise CycleDetected(f"cycle through {a} and {b}")
        self._fill(elements, lt, *_cones(elements, lt))
        for a, b in lt:
            if not self._up[b] <= self._up[a]:
                raise ValidationError(
                    f"relation is not transitively closed at ({a},{b}); "
                    "use build_poset to close generating relations")

    def _fill(self, elements: tuple[str, ...], lt: frozenset, down: dict, up: dict):
        """The slots of labels and a closed acyclic relation with its pairs and cones."""
        index = {a: i for i, a in enumerate(elements)}
        pairs = tuple((index[a], index[b]) for a, b in lt)
        super()._fill(elements, index, lt, pairs, down, up, {})

    def __eq__(self, other):
        return isinstance(other, Poset) and (self.elements, self._lt) == (
            other.elements, other._lt)

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
        return b in self._up[a]

    def le(self, a: str, b: str) -> bool:
        self.check_element(a)
        self.check_element(b)
        return a == b or b in self._up[a]

    def comparable(self, a: str, b: str) -> bool:
        self.check_element(a)
        self.check_element(b)
        return a == b or b in self._up[a] or b in self._down[a]

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
    up: dict[str, set[str]] = {a: set() for a in elements}
    for rel in relations:
        a, b = rel
        if a not in up or b not in up:
            raise UnknownElement(f"relation ({a},{b}) uses unknown labels")
        if a == b:
            raise CycleDetected(f"self-relation at {a}")
        up[a].add(b)
    # Warshall closure on up-sets; n stays tiny by the package's scope.
    for k in elements:
        for a in elements:
            if k in up[a]:
                up[a] |= up[k]
    for a in elements:
        if a in up[a]:
            raise CycleDetected(f"cycle through {a}")
    lt = frozenset((a, b) for a in elements for b in up[a])
    return Poset._of(elements, lt, *_cones(elements, lt))


def _cones(elements: tuple[str, ...], lt: frozenset) -> tuple[dict, dict]:
    """The strict down-set and up-set tables of the relation lt."""
    down: dict[str, list[str]] = {a: [] for a in elements}
    up: dict[str, list[str]] = {a: [] for a in elements}
    for a, b in lt:
        down[b].append(a)
        up[a].append(b)
    return {a: frozenset(s) for a, s in down.items()}, {a: frozenset(s) for a, s in up.items()}


# -- cone / comparability queries ------------------------------------------------


def maximal_elements(p: Poset) -> set[str]:
    return {a for a in p.elements if not p._up[a]}


def strict_lower_cone(p: Poset, a: str) -> frozenset[str]:
    p.check_element(a)
    return p._down[a]


def lower_cone(p: Poset, a: str) -> frozenset[str]:
    return strict_lower_cone(p, a) | {a}


def incomparables(p: Poset, a: str) -> set[str]:
    p.check_element(a)
    return set(p.elements) - p._down[a] - p._up[a] - {a}


@dataclass(frozen=True)
class Antichain:
    members: frozenset

    def __len__(self):
        return len(self.members)


def width(p: Poset) -> tuple[int, Antichain]:
    """Maximum antichain size with a witness, by exhaustive pruned search."""
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
    return len(best), Antichain(frozenset(best))


def induced_subposet(p: Poset, subset: Iterable[str]) -> Poset:
    """p's order on subset: a restriction of a valid order is valid, so it
    is not closed and re-checked."""
    members = p.sorted_subset(subset)
    keep = frozenset(members)
    return Poset._of(members, frozenset((a, b) for a in members for b in p._up[a] & keep),
                     {a: p._down[a] & keep for a in members},
                     {a: p._up[a] & keep for a in members})


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


_CRITICAL_POSETS = {
    "A4": primitive_poset(1, 1, 1, 1),
    "T222": primitive_poset(2, 2, 2),
    "T133": primitive_poset(1, 3, 3),
    "T125": primitive_poset(1, 2, 5),
    "K": poset_K(),
}
_CRITICAL_WIDTHS = {kind: width(q)[0] for kind, q in _CRITICAL_POSETS.items()}


def critical_posets() -> dict[str, Poset]:
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
    pdown, pup, hdown, hup = pattern._down, pattern._up, host._down, host._up
    # h can take x only if its cones are at least as large as x's
    cands = {x: [h for h in host.elements if len(hdown[h]) >= len(pdown[x])
                 and len(hup[h]) >= len(pup[x])] for x in pat}
    out: list[dict[str, str]] = []

    def backtrack(i: int, assigned: dict[str, str], used: set[str]):
        if i == len(pat):
            out.append(dict(assigned))
            return
        x = pat[i]
        for h in cands[x]:
            if h in used:
                continue
            below, above = hdown[h], hup[h]
            if all((y in pdown[x]) == (hy in below) and (y in pup[x]) == (hy in above)
                   for y, hy in assigned.items()):
                assigned[x] = h
                used.add(h)
                backtrack(i + 1, assigned, used)
                del assigned[x]
                used.remove(h)

    backtrack(0, {}, set())
    return out


# One list per labelled order (elements, relation pairs), so equal posets share
# one search.
_EMBEDDINGS: dict[tuple, list[CriticalEmbedding]] = {}


def critical_subposet_embeddings(p: Poset) -> list[CriticalEmbedding]:
    """Every embedding of every critical poset; empty iff p is representation finite."""
    return memo(_EMBEDDINGS, (p.elements, p._lt), _search_critical_embeddings, p)


def _search_critical_embeddings(p: Poset) -> list[CriticalEmbedding]:
    w = width(p)[0]
    found = []
    for kind, pattern in _CRITICAL_POSETS.items():
        if len(pattern) > len(p) or _CRITICAL_WIDTHS[kind] > w:
            continue
        for emb in order_embeddings(pattern, p):
            found.append(CriticalEmbedding(kind, emb))
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
            if all(b in p._down[a] for a in s1 for b in s2):
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
    below, above = p._down, p._up
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
