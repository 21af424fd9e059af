"""Finite posets and the order combinatorics used by the classification.

Elements are opaque string labels at the boundary and indices inside.  A
poset owns its order once, as int bitmasks over its element indices: _below[i]
holds the elements strictly below elements[i], and _above and the sorted index
pairs _pairs are derived from it.  Every cone, comparability and maximality
question in the package is answered from these masks; the label views
(relation_pairs, the cones, incomparables) decode them.  Queries are pure, and
a poset is immutable after construction.  The public Poset constructor checks
its labels and relation.  build_poset checks and closes generating relations;
it, induced_subposet and the package's own derived posets and canonical
supports build their posets through Poset._of, which trusts its masks.

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
    """Finite strict partial order, immutable and holding no table.  _below[i]
    and _above[i] are the bitmasks of the elements strictly below and above
    elements[i], _pairs the relation as sorted index pairs (i, j) with
    elements[i] ≺ elements[j]; memo tables key it by (elements, _below).

    The labels must be distinct strings and the pairs transitively closed
    (build_poset closes generating relations): a pair given with its reverse
    raises CycleDetected, and an unclosed relation raises ValidationError.
    """

    __slots__ = ("elements", "_index", "_below", "_above", "_pairs")

    def __init__(self, elements: Sequence[str], lt_pairs: Iterable[tuple[str, str]]):
        elements = _check_labels(elements)
        lt = frozenset(map(_relation, lt_pairs))
        below = [0] * len(elements)
        for a, b in lt:
            if a not in elements or b not in elements:
                raise UnknownElement(f"relation ({a},{b}) uses unknown labels")
            if a == b:
                raise CycleDetected(f"irreflexivity violated at {a}")
            if (b, a) in lt:
                raise CycleDetected(f"cycle through {a} and {b}")
            below[elements.index(b)] |= 1 << elements.index(a)
        self._fill(elements, tuple(below))
        for a, b in lt:
            if self._above[self._index[b]] & ~self._above[self._index[a]]:
                raise ValidationError(
                    f"relation is not transitively closed at ({a},{b}); "
                    "use build_poset to close generating relations")

    def _fill(self, elements: tuple[str, ...], below: tuple[int, ...]):
        """The slots of labels and the below masks of a closed acyclic relation."""
        above, pairs = [0] * len(elements), []
        for j, down in enumerate(below):
            for i in range(down.bit_length()):
                if down >> i & 1:
                    above[i] |= 1 << j
                    pairs.append((i, j))
        pairs.sort()
        super()._fill(elements, {a: i for i, a in enumerate(elements)}, below, tuple(above),
                      tuple(pairs))

    def __eq__(self, other):
        return isinstance(other, Poset) and (self.elements, self._below) == (
            other.elements, other._below)

    def __hash__(self):
        return hash((self.elements, self._below))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, a):
        return a in self._index

    def __repr__(self):
        elems = self.elements
        return f"Poset({list(elems)}, {[(elems[i], elems[j]) for i, j in self._pairs]})"

    def index(self, a: str) -> int:
        self.check_element(a)
        return self._index[a]

    def check_element(self, a: str):
        if a not in self._index:
            raise UnknownElement(f"{a!r} is not an element of this poset")

    def lt(self, a: str, b: str) -> bool:
        return bool(self._above[self.index(a)] >> self.index(b) & 1)

    def le(self, a: str, b: str) -> bool:
        return self.lt(a, b) or a == b

    def comparable(self, a: str, b: str) -> bool:
        i, j = self.index(a), self.index(b)
        return i == j or bool((self._below[i] | self._above[i]) >> j & 1)

    def relation_pairs(self) -> frozenset[tuple[str, str]]:
        elems = self.elements
        return frozenset((elems[i], elems[j]) for i, j in self._pairs)

    def below(self, a: str) -> tuple[str, ...]:
        """The elements strictly below a, in element order."""
        return self._labels(self._below[self.index(a)])

    def _labels(self, mask: int) -> tuple[str, ...]:
        """The elements whose bits are set in mask, in element order."""
        return tuple(a for i, a in enumerate(self.elements) if mask >> i & 1)

    def sorted_subset(self, subset: Iterable[str]) -> tuple[str, ...]:
        """Subset in element input order."""
        subset = set(subset)
        for a in subset:
            self.check_element(a)
        return tuple(a for a in self.elements if a in subset)


def _check_labels(elements: Sequence[str]) -> tuple[str, ...]:
    """The labels as a tuple, when they are pairwise distinct strings."""
    elements = tuple(elements)
    if not all(isinstance(a, str) for a in elements):
        raise ValidationError(f"element labels must be strings, got {list(elements)}")
    if len(set(elements)) != len(elements):
        raise DuplicateLabel("element labels must be pairwise distinct")
    return elements


def _relation(rel) -> tuple[str, str]:
    """(a, b), meaning a ≺ b, from a list or tuple of two string labels."""
    if not (isinstance(rel, (list, tuple)) and len(rel) == 2
            and all(isinstance(x, str) for x in rel)):
        raise ValidationError(f"relation {rel!r} must be a pair of string labels")
    return tuple(rel)


def build_poset(elements: Sequence[str], relations: Iterable[Sequence[str]]) -> Poset:
    """Build a poset from labels and generating relations (a, b) meaning a ≺ b.

    Labels are checked as in Poset; the relation is transitively closed and
    a cycle raises CycleDetected.
    """
    elements = _check_labels(elements)
    index = {a: i for i, a in enumerate(elements)}
    below = [0] * len(elements)
    for a, b in map(_relation, relations):
        if a not in index or b not in index:
            raise UnknownElement(f"relation ({a},{b}) uses unknown labels")
        if a == b:
            raise CycleDetected(f"self-relation at {a}")
        below[index[b]] |= 1 << index[a]
    # Warshall closure on down-sets; n stays tiny by the package's scope.
    for k in range(len(elements)):
        for i, mask in enumerate(below):
            if mask >> k & 1:
                below[i] |= below[k]
    for i, a in enumerate(elements):
        if below[i] >> i & 1:
            raise CycleDetected(f"cycle through {a}")
    return Poset._of(elements, tuple(below))


# -- cone / comparability queries ------------------------------------------------


def maximal_elements(p: Poset) -> set[str]:
    return {a for a, above in zip(p.elements, p._above) if not above}


def strict_lower_cone(p: Poset, a: str) -> frozenset[str]:
    return frozenset(p.below(a))


def lower_cone(p: Poset, a: str) -> frozenset[str]:
    return strict_lower_cone(p, a) | {a}


def incomparables(p: Poset, a: str) -> set[str]:
    i = p.index(a)
    return set(p._labels(~(p._below[i] | p._above[i] | 1 << i)))


@dataclass(frozen=True)
class Antichain:
    members: frozenset

    def __len__(self):
        return len(self.members)


def width(p: Poset) -> tuple[int, Antichain]:
    """Maximum antichain size with a witness, by exhaustive pruned search."""
    comparables = [below | above for below, above in zip(p._below, p._above)]
    best: list[int] = []
    n = len(p)

    def extend(start: int, current: list[int], blocked: int):
        """blocked: the elements comparable with some member of current."""
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        for i in range(start, n):
            if len(current) + (n - i) <= len(best):
                break
            if not blocked >> i & 1:
                current.append(i)
                extend(i + 1, current, blocked | comparables[i])
                current.pop()

    extend(0, [], 0)
    return len(best), Antichain(frozenset(p.elements[i] for i in best))


def induced_subposet(p: Poset, subset: Iterable[str]) -> Poset:
    """p's order on subset: a restriction of a valid order is valid, so it
    is not closed and re-checked."""
    members = p.sorted_subset(subset)
    return Poset._of(members, _restrict(p, [p._index[a] for a in members]))


def _restrict(p: Poset, keep: Sequence[int]) -> tuple[int, ...]:
    """The below masks of p's order on the elements at the ascending indices
    keep, renumbered in that order."""
    if len(keep) == len(p):
        return p._below
    return tuple(sum(1 << k for k, j in enumerate(keep) if p._below[i] >> j & 1)
                 for i in keep)


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
    pdown, pup, hdown, hup = pattern._below, pattern._above, host._below, host._above
    m = len(pattern)
    # h can take x only if its cones are at least as large as x's
    cands = [[h for h in range(len(host)) if hdown[h].bit_count() >= pdown[x].bit_count()
              and hup[h].bit_count() >= pup[x].bit_count()] for x in range(m)]
    out: list[dict[str, str]] = []
    image: list[int] = []

    def backtrack(used: int):
        x = len(image)
        if x == m:
            out.append({pattern.elements[y]: host.elements[h] for y, h in enumerate(image)})
            return
        # the images of the assigned elements below and above x, which h's
        # cones must meet in exactly these
        down = sum(1 << h for y, h in enumerate(image) if pdown[x] >> y & 1)
        up = sum(1 << h for y, h in enumerate(image) if pup[x] >> y & 1)
        for h in cands[x]:
            if not used >> h & 1 and hdown[h] & used == down and hup[h] & used == up:
                image.append(h)
                backtrack(used | 1 << h)
                image.pop()

    backtrack(0)
    return out


# One list per labelled order (elements, below masks), so equal posets share
# one search.
_EMBEDDINGS: dict[tuple, list[CriticalEmbedding]] = {}


def critical_subposet_embeddings(p: Poset) -> list[CriticalEmbedding]:
    """Every embedding of every critical poset; empty iff p is representation finite."""
    return memo(_EMBEDDINGS, (p.elements, p._below), _search_critical_embeddings, p)


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
    n = len(p)
    comparables = [below | above for below, above in zip(p._below, p._above)]
    chains = [0]
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            if all(comparables[i] >> j & 1 for i, j in itertools.combinations(combo, 2)):
                chains.append(sum(1 << i for i in combo))
    for s3 in chains:
        rest = [i for i in range(n) if not s3 >> i & 1]
        m = len(rest)
        if m < 2:
            continue
        for mask in range(1, (1 << m) - 1):
            s1 = [i for k, i in enumerate(rest) if mask >> k & 1]
            s2 = sum(1 << i for k, i in enumerate(rest) if not mask >> k & 1)
            if all(p._below[i] & s2 == s2 for i in s1):
                return p._labels(sum(1 << i for i in s1)), p._labels(s2), p._labels(s3)
    return None


# -- canonical forms ------------------------------------------------------------------


def canonical_form(p: Poset, weights: Mapping[str, int] | None = None):
    """Canonical invariant of (poset, optional vertex weights) under relabelling.

    Minimizes the encoded relation set (plus weights) over permutations that
    respect a cheap vertex invariant, so isomorphic weighted posets get equal
    keys.  Returns (key, order) where order lists the elements in canonical
    positions.
    """
    n = len(p)
    wt = [weights.get(a, 0) if weights else 0 for a in p.elements]
    below: list[list[int]] = [[] for _ in range(n)]
    above: list[list[int]] = [[] for _ in range(n)]
    for i, j in p._pairs:
        below[j].append(i)
        above[i].append(j)
    inv = [(wt[i], len(below[i]), len(above[i])) for i in range(n)]
    for _ in range(2):
        inv = [(inv[i], tuple(sorted(inv[j] for j in below[i])),
                tuple(sorted(inv[j] for j in above[i]))) for i in range(n)]

    groups: dict = {}
    for i in range(n):
        groups.setdefault(inv[i], []).append(i)
    slots = [groups[k] for k in sorted(groups)]

    best = None
    best_order = None
    for perm_parts in itertools.product(*(itertools.permutations(g) for g in slots)):
        order = [i for part in perm_parts for i in part]
        pos = {i: k for k, i in enumerate(order)}
        key = (tuple(sorted((pos[i], pos[j]) for i, j in p._pairs)), tuple(wt[i] for i in order))
        if best is None or key < best:
            best = key
            best_order = order
    return (n, best), tuple(p.elements[i] for i in best_order)
