"""Classification and construction procedures, plus brute-force oracles.

Isomorphism classes of representations with an exact dimension vector are
counted on the fibre over the first element: the first element, of
dimension k, is fixed to the coordinate span S_k = span(e_0, ..., e_{k-1}),
the rest are enumerated in echelon order, and the orbits of the block
triangular stabilizer of S_k are taken on arrays, one per GL(d0)-orbit; the
first configuration of each orbit represents it, so the representatives
depend on the support, d and p alone.  Each generator permutes the
interned subspace ids through a lazily grown table, all configurations are
moved at once, image rows are found by searching their bytes among the
configurations' sorted bytes, and the orbits are the connected components
of those moves.  A census is cached as a core of numbers and
configurations: count_iso_classes, el_indecomposable_count and the
verification harness's counts read the core, and only
rep_iso_census and brute_force_indecomposables lift its indecomposables to
elements.  Indecomposables of finite-type root dimensions are built by the
derive/recurse/integrate induction alone; the derived posets and subordinate
roots of that route are kept per labelled order, shared by equal posets and
by every field.  The main theorem makes the indecomposable of a root unique,
so _ROOTS keeps each built one per labelled support order, dimension and
field, as its row count and blocks with no poset in them; every call wraps
the blocks over the caller's own poset.

The census caches, the spaces and their tables, the route tables and the
built roots may be filled from several threads: each fills through
poset.memo, so a hit is a lock-free read and a miss is built under the
package's one lock, and the stabilizer tables grow under the same lock.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .derivation import DerivedPoset, derive_poset, integrate, subordinate_dimensions
from .errors import (
    BudgetExceeded,
    ConstructionFailed,
    FieldTooRestrictive,
    InvariantViolated,
    NotFiniteType,
    ValidationError,
)
from .linalg import ExactMatrix, FieldSpec, resolve_budget, rref, _columns
from .poset import (LOCK, Poset, canonical_form, induced_subposet, maximal_elements,
                    memo, strict_lower_cone, _cones)
from .reps import (
    MatrixRep,
    SubspaceRep,
    antichain_unit_element,
    are_isomorphic,
    dimension_of,
    el_hom_basis,
    lift,
    rep_end_dimension,
    rho,
    special_T,
    _padded_blocks,
    _splitting_idempotent,
)
from .tits import (
    DimensionVector,
    is_finite_type,
    dominated_critical,
    tits_value,
)

DEFAULT_ENUM_BUDGET = 1 << 24


def _primitive_root(p: int) -> int:
    return next(g for g in range(1, p) if len({pow(g, e, p) for e in range(1, p)}) == p - 1)


class SubspaceSpace:
    """Interned subspaces of F_p^n with memoized joins, supersets and
    stabilizer actions.

    A subspace is the canonical tuple of its reduced-echelon basis rows, which
    linalg.rref, the one elimination kernel, returns for any spanning set; its
    id is its place in interning order.  supersets lists in echelon order,
    by pivot columns and then rows, so what a census enumerates depends on
    the subspaces alone, never on their ids.  The stabilizer in GL_n(F_p) of
    each coordinate span the census fixes is kept per dimension k, with its
    own image table over these ids (see _Stabilizer); at k = 0 it is
    GL_n(F_p) itself.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self._keys: dict[tuple, int] = {}
        self._basis: list[tuple] = []
        self._join: dict[tuple[int, int], int] = {}
        self._supersets: dict[tuple[int, int], tuple[int, ...]] = {}
        self._stabilizers: dict[int, _Stabilizer] = {}
        self.zero_id = self._intern(())

    def _intern(self, rows: tuple[tuple[int, ...], ...]) -> int:
        sid = self._keys.get(rows)
        if sid is None:
            sid = len(self._basis)
            self._keys[rows] = sid
            self._basis.append(rows)
        return sid

    def _intern_span(self, rows: Iterable[Sequence[int]]) -> int:
        """The id of the span of the given rows."""
        reduced, _ = rref(rows, self.n, self.p)
        return self._intern(tuple(map(tuple, reduced)))

    def basis_rows(self, sid: int) -> tuple[tuple[int, ...], ...]:
        return self._basis[sid]

    def dim(self, sid: int) -> int:
        return len(self._basis[sid])

    def join(self, s1: int, s2: int) -> int:
        if s1 > s2:
            s1, s2 = s2, s1
        return memo(self._join, (s1, s2), self._join_rows, s1, s2)

    def _join_rows(self, s1: int, s2: int) -> int:
        return self._intern_span(self._basis[s1] + self._basis[s2])

    def supersets(self, sid: int, k: int) -> tuple[int, ...]:
        """All subspaces containing sid with dim(sid) + k dimensions, sorted
        by (pivot columns, echelon rows): with sid = zero_id the coordinate
        span S_k comes first."""
        return memo(self._supersets, (sid, k), self._grow, sid, k)

    def _grow(self, sid: int, k: int) -> tuple[int, ...]:
        """Each superset T of sid built once, as sid + W for W in echelon form
        on the columns off sid's pivots, which stand for the quotient by sid:
        each choice of k pivot columns, then each value of the free entries
        right of the pivots; T is reduced with one rref."""
        n, p = self.n, self.p
        rows = self._basis[sid]
        taken = {row.index(1) for row in rows}
        free = [c for c in range(n) if c not in taken]
        found = []
        for piv in itertools.combinations(free, k):
            slots = [(r, c) for r, q in enumerate(piv) for c in free if c > q and c not in piv]
            for values in itertools.product(range(p), repeat=len(slots)):
                lifted = [[int(c == q) for c in range(n)] for q in piv]
                for (r, c), x in zip(slots, values):
                    lifted[r][c] = x
                reduced, pivots = rref([*rows, *lifted], n, p)
                found.append((pivots, tuple(map(tuple, reduced))))
        return tuple(self._intern(reduced) for _, reduced in sorted(found))

    def stabilizer(self, k: int) -> _Stabilizer:
        """The stabilizer in GL_n(F_p) of span(e_0, ..., e_{k-1}), created once."""
        return memo(self._stabilizers, k, _Stabilizer, self, k)

    def to_matrix(self, sid: int, field: FieldSpec) -> ExactMatrix:
        """Canonical basis of the subspace, as columns of an ExactMatrix."""
        rows = self._basis[sid]
        return ExactMatrix._of(field, self.n, len(rows), _columns(rows, self.n))


class _Stabilizer:
    """The stabilizer in GL_n(F_p) of the coordinate span
    S_k = span(e_0, ..., e_{k-1}), acting on the ids of its SubspaceSpace.

    It is the block upper triangular group, generated by the elementary
    column operations (i, j, c), x_i += c x_j on row vectors, with i < k or
    j >= k, and, when p > 2, by scaling x_0 and x_k by a primitive root; with
    k = 0 or k = n it is GL_n(F_p).  fixed is the id of S_k.  The actions are
    kept as one table over the subspace ids, row g holding the image of each
    id under generator g (-1 where not yet computed), grown under the package
    lock.
    """

    def __init__(self, space: SubspaceSpace, k: int):
        self.space = space
        n, p = space.n, space.p
        self.fixed = space._intern(tuple(tuple(int(a == b) for a in range(n)) for b in range(k)))
        self.generators = [(i, j, 1) for i in range(n) for j in range(n)
                           if i != j and (i < k or j >= k)]
        if p > 2:
            self.generators += [(m, m, _primitive_root(p) - 1) for m in sorted({0, k}) if m < n]
        self._table = np.full((len(self.generators), 0), -1, dtype=np.int64)

    def apply(self, g: int, sid: int) -> int:
        """The id of generator g applied to subspace sid: c row[j] added to
        row[i] of each echelon row, then re-reduced and interned."""
        p = self.space.p
        i, j, c = self.generators[g]
        return self.space._intern_span(row[:i] + ((row[i] + c * row[j]) % p,) + row[i + 1:]
                                       for row in self.space.basis_rows(sid))

    def table(self, ids: np.ndarray) -> np.ndarray:
        """The (generators, ·) image table, filled in at least for the ids in
        the given array: table[g, s] is the id of generator g applied to s."""
        with LOCK:
            table = self._table
            need = int(ids.max()) + 1
            if table.shape[1] < need:
                grown = np.full((len(table), max(need, 2 * table.shape[1])),
                                -1, dtype=np.int64)
                grown[:, :table.shape[1]] = table
                self._table = table = grown
            if len(table):
                wanted = np.zeros(table.shape[1], dtype=bool)
                wanted[ids] = True
                for sid in np.flatnonzero(wanted & (table[0] < 0)).tolist():
                    table[:, sid] = [self.apply(g, sid) for g in range(len(table))]
            return table


_SPACES: dict[tuple[int, int], SubspaceSpace] = {}


def _space(p: int, n: int) -> SubspaceSpace:
    return memo(_SPACES, (p, n), SubspaceSpace, p, n)


def _enumerate_fibre(poset: Poset, d: DimensionVector, space: SubspaceSpace,
                     budget: int) -> tuple[list[tuple[int, ...]], _Stabilizer, int]:
    """The fibre of the census of d over its first element.

    Elements are enumerated minimal first, so the first one, of dimension
    k = d(first), may take any of the k-subspaces; here it is fixed to the
    coordinate span S_k.  Returns the configurations realizing d exactly
    (quotient dimensions) in which it takes S_k, in enumeration order, which
    follows space.supersets; then the stabilizer of S_k (GL(d0) itself when
    the support is empty or k exceeds d0) and the number of k-subspaces, the
    Gaussian binomial [d0 k]_p, the factor by which the full enumeration is
    larger.  BudgetExceeded is raised as soon as the full count would pass
    the budget.
    """
    elems = poset.elements
    below = {a: poset.sorted_subset(strict_lower_cone(poset, a)) for a in elems}
    order = sorted(elems, key=lambda a: (len(below[a]), poset.index(a)))
    if not order:
        return [()], space.stabilizer(0), 1
    k, n, p = d.get(order[0]), space.n, space.p
    if k > n:
        return [], space.stabilizer(0), 0
    firsts = math.prod(p ** (n - i) - 1 for i in range(k)) // \
        math.prod(p ** (i + 1) - 1 for i in range(k))
    group = space.stabilizer(k)
    cap = budget // firsts
    out: list[tuple[int, ...]] = []
    assignment = {order[0]: group.fixed}

    def rec(i: int):
        if i == len(order):
            out.append(tuple(assignment[a] for a in elems))
            if len(out) > cap:
                raise BudgetExceeded(
                    f"configuration enumeration exceeds budget {budget}")
            return
        a = order[i]
        base = space.zero_id
        for b in below[a]:
            base = space.join(base, assignment[b])
        if space.dim(base) + d.get(a) > space.n:
            return
        for sid in space.supersets(base, d.get(a)):
            assignment[a] = sid
            rec(i + 1)
            del assignment[a]

    rec(1)
    return out, group, firsts


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a 2-d integer array: the row's bytes.  Keys are
    equal exactly when the rows are; they sort, and searchsorted finds them,
    in byte order, not numeric order."""
    rows = np.ascontiguousarray(rows, np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).reshape(-1)


def _orbit_minima(moves: np.ndarray) -> np.ndarray:
    """The least index in each configuration's orbit.

    moves[g] is the permutation of configuration indices by generator g.
    Every label is an index in its own orbit; each round lowers it to the
    least label among its neighbours under the generators and their
    inverses, then jumps pointers, until nothing changes.
    """
    label = np.arange(moves.shape[1])
    while True:
        new = label.copy()
        for move in moves:
            np.minimum(new, label[move], out=new)
            new[move] = np.minimum(new[move], label)
        jumped = new[new]
        while not np.array_equal(jumped, new):
            new, jumped = jumped, jumped[jumped]
        if np.array_equal(new, label):
            return label
        label = new


def _orbit_representatives(configs: list[tuple[int, ...]],
                           group: _Stabilizer) -> list[tuple[int, ...]]:
    """One representative per orbit of the group: the first configuration of
    each orbit, in enumeration order.

    Raises InvariantViolated when a generator moves a configuration out of
    the set, which the enumeration of an exact dimension rules out.
    """
    n = len(configs)
    if n <= 1:
        return list(configs)
    cfg = np.array(configs, dtype=np.int64)
    table = group.table(cfg)
    keys = _row_keys(cfg)
    order = np.argsort(keys)
    ordered = keys[order]
    moves = np.empty((len(table), n), dtype=np.int64)
    for g, image in enumerate(table):
        moved = _row_keys(image[cfg])
        pos = np.minimum(np.searchsorted(ordered, moved), n - 1)
        moves[g] = np.where(ordered[pos] == moved, order[pos], -1)
    if (moves < 0).any():
        raise InvariantViolated("a generator moved a configuration out of the set")
    label = _orbit_minima(moves)
    return [configs[i] for i in np.flatnonzero(label == np.arange(n)).tolist()]


@dataclass(frozen=True)
class Census:
    """Representation-level isomorphism classes of one exact dimension."""

    poset: Poset
    dimension: DimensionVector
    field: FieldSpec
    count: int
    indecomposables: tuple[MatrixRep, ...]


@dataclass(frozen=True)
class _CensusCore:
    count: int
    indec_configs: tuple[tuple[int, ...], ...]
    n_configs: int                     # configurations of d, held against budgets


_CENSUS_CACHE: dict[tuple, _CensusCore] = {}


def _census_core(canon: Poset, d: DimensionVector, p: int, budget: int) -> _CensusCore:
    """The census of d, taken on the fibre over its first element.

    GL(d0) is transitive on the k-subspaces the first element can take, so
    each GL(d0)-orbit meets the fibre over the coordinate span S_k in
    exactly one orbit of its stabilizer, and the representatives are the
    first configuration of each, in the fibre's order.  S_k leads the
    k-subspaces in echelon order, so the fibre is the first block of the full
    enumeration: the representatives are those of the full enumeration, in
    the same order, whatever the process interned before.
    """
    space = _space(p, d.d0)
    configs, group, n_firsts = _enumerate_fibre(canon, d, space, budget)
    reps = _orbit_representatives(configs, group)
    field = FieldSpec("gf", p)
    indec = []
    for cfg in reps:
        subs = {a: space.to_matrix(cfg[i], field)
                for i, a in enumerate(canon.elements)}
        if _splitting_idempotent(SubspaceRep._of(canon, field, d.d0, subs)) is None:
            indec.append(cfg)
    return _CensusCore(len(reps), tuple(indec), len(configs) * n_firsts)


def _canonical_support(poset: Poset, d: DimensionVector):
    """(canonical order, canonical relations, canonical values) of the support
    weighted by d.

    Memoized in poset._cache per weighted support, so every d0 over the same
    weights shares one canonical_form call.  Only the order, the relation set
    and the sorted (position label, value) items of the relabelled d are kept,
    not the subposet itself.
    """
    weights = tuple(d.get(a) for a in poset.elements)
    return memo(poset._cache, weights, _relabel_support, poset, d)


def _relabel_support(poset: Poset, d: DimensionVector):
    sub = induced_subposet(poset, d.support())
    _, order = canonical_form(sub, {a: d.get(a) for a in sub.elements})
    pos = {a: i for i, a in enumerate(order)}
    rels = frozenset((str(pos[a]), str(pos[b])) for a, b in sub.relation_pairs())
    dc = DimensionVector(0, {str(i): d.get(a) for i, a in enumerate(order)})
    return order, rels, dc.key()[1]


def _cold_census(key: tuple, budget: int) -> _CensusCore:
    """The census core of a cache key, on the canonically labelled support."""
    n, rels, (d0, values), p = key
    labels = tuple(str(i) for i in range(n))
    canon = Poset._of(labels, rels, *_cones(labels, rels))
    return _census_core(canon, DimensionVector(d0, dict(values)), p, budget)


def _census_lookup(poset: Poset, d: DimensionVector, field: FieldSpec,
                   budget: int | None) -> tuple[_CensusCore, tuple[str, ...]]:
    """The validated, cached census core of d, and the support order its
    configurations are indexed by.

    Every census entry point comes through here: the field must be a finite
    prime field, every element of the support must belong to the poset and
    no entry may be negative.  Censuses with d0 = 0 are answered without the
    cache.  A cached core still raises BudgetExceeded when its enumeration
    exceeds the caller's budget.
    """
    if not field.is_prime_field:
        raise FieldTooRestrictive("class counting requires a finite prime field")
    budget = resolve_budget(budget, DEFAULT_ENUM_BUDGET)
    for a in d.support():
        poset.check_element(a)
    _check_nonnegative(d)
    if d.d0 == 0:
        return _CensusCore(0 if d.support() else 1, (), 0), ()
    order, rels, values = _canonical_support(poset, d)
    key = (len(order), rels, (d.d0, values), field.p)
    core = memo(_CENSUS_CACHE, key, _cold_census, key, budget)
    if core.n_configs > budget:
        raise BudgetExceeded(f"configuration enumeration exceeds budget {budget}")
    return core, order


def _check_nonnegative(d: DimensionVector):
    if d.d0 < 0 or any(v < 0 for v in d.values.values()):
        raise ValidationError(f"dimension {d} has a negative entry")


def _lift_configs(poset: Poset, d0: int, field: FieldSpec, order: tuple[str, ...],
                  configs: Sequence[tuple[int, ...]]) -> tuple[MatrixRep, ...]:
    """The elements of poset lifted from census configurations."""
    if not configs:
        return ()
    sub = induced_subposet(poset, order)
    space = _space(field.p, d0)
    out = []
    for cfg in configs:
        subs = {a: space.to_matrix(cfg[order.index(a)], field) for a in sub.elements}
        u = lift(SubspaceRep._of(sub, field, d0, subs))
        out.append(MatrixRep._of(poset, field, d0, _padded_blocks(poset, field, d0, u.blocks)))
    return tuple(out)


def rep_iso_census(poset: Poset, d: DimensionVector, field: FieldSpec,
                   budget: int | None = None) -> Census:
    """Classes of representations of dimension exactly d over GF(p), with
    each indecomposable lifted to an element of the poset.

    Cached by the canonically labelled support poset, so isomorphic supports
    share the underlying enumeration.  A cached census still raises
    BudgetExceeded when its enumeration exceeds the caller's budget.
    Callers that only count should use
    count_iso_classes or el_indecomposable_count, which read the cached core
    and lift nothing.
    """
    core, order = _census_lookup(poset, d, field, budget)
    indec = _lift_configs(poset, d.d0, field, order, core.indec_configs)
    return Census(poset, d, field, core.count, indec)


def count_iso_classes(poset: Poset, d: DimensionVector, field: FieldSpec,
                      budget: int | None = None) -> int:
    """Number of representation-level isomorphism classes of exact dimension d."""
    return _census_lookup(poset, d, field, budget)[0].count


def el_indecomposable_count(poset: Poset, d: DimensionVector, field: FieldSpec,
                            budget: int | None = None) -> int:
    """Indecomposable count at the element level.

    Elements with zero rows decompose into trivial summands, so for d0 = 0
    the count is 1 exactly when a single entry equals 1; otherwise the
    representation-level census answers.
    """
    core, _ = _census_lookup(poset, d, field, budget)
    return _indecomposable_count(d, core)


def _indecomposable_count(d: DimensionVector, core: _CensusCore) -> int:
    if d.d0:
        return len(core.indec_configs)
    return 1 if sorted(d.values.values()) == [1] else 0


def brute_force_indecomposables(poset: Poset, d: DimensionVector, field: FieldSpec,
                                budget: int | None = None) -> list[MatrixRep]:
    """Complete pairwise non-isomorphic list of indecomposables of dimension d.

    Reads the census of d and lifts each indecomposable configuration to an
    element.  Elements with zero rows decompose into trivial summands, so for
    d0 = 0 the only indecomposable is a single trivial element.  The tests
    cross-check this against the enumeration of every block matrix.
    """
    core, order = _census_lookup(poset, d, field, budget)
    if d.d0 == 0:
        if not _indecomposable_count(d, core):
            return []
        (a,) = d.support()
        return [special_T(poset, field, a)]
    return list(_lift_configs(poset, d.d0, field, order, core.indec_configs))


# -- construction -----------------------------------------------------------------


def construct_indecomposable(poset: Poset, d: DimensionVector,
                             field: FieldSpec) -> MatrixRep | None:
    """The unique indecomposable of a finite-type root dimension, or None.

    Raises ValidationError on a negative entry and NotFiniteType when d
    dominates a critical dimension, and returns None when Q(d) != 1.  A root
    is built by the derive/recurse/integrate induction alone, which the main
    theorem guarantees for every finite-type root: restrict to the support,
    emit the explicit element when d0 <= 1, and otherwise try each maximal
    pivot in order, constructing each subordinate finite-type root on the
    derived poset, integrating it back and keeping the first result of
    dimension d.  Raises ConstructionFailed when no pivot gives a route.
    """
    _check_nonnegative(d)
    if not is_finite_type(poset, d):
        raise NotFiniteType(f"{d} dominates a critical dimension")
    if tits_value(poset, d) != 1:
        return None
    return _construct_root(poset, d, field)


# One built root per labelled support order, dimension and field, as
# (d0, blocks): no poset in it, so the table keeps no poset alive.
_ROOTS: dict[tuple, tuple[int, dict[str, ExactMatrix]]] = {}


def _construct_root(poset: Poset, d: DimensionVector, field: FieldSpec) -> MatrixRep:
    """The indecomposable of the finite-type root d, built on its support."""
    supp = poset.sorted_subset(d.support())
    sub, dsub = induced_subposet(poset, supp), d.restrict(supp)
    key = (sub.elements, sub._lt, dsub, field)
    d0, blocks = memo(_ROOTS, key, _build_root, sub, dsub, field)
    return MatrixRep._of(poset, field, d0, _padded_blocks(poset, field, d0, blocks))


def _build_root(sub: Poset, d: DimensionVector, field: FieldSpec):
    u = _construct_sincere(sub, d, field)
    return u.d0, u.blocks


# The route depends on the labelled order alone, not on the field or the
# Poset object: the derived poset at each pivot, and the subordinate
# dimensions there that are finite-type roots, in subordinate_dimensions order.
_DERIVED: dict[tuple, DerivedPoset] = {}
_SUBORDINATE_ROOTS: dict[tuple, tuple[DimensionVector, ...]] = {}


def _subordinate_roots(context: DerivedPoset,
                       d: DimensionVector) -> tuple[DimensionVector, ...]:
    derived, out = context.result, []
    for dprime in subordinate_dimensions(context, d):
        if dprime.total() >= d.total():
            raise InvariantViolated(f"subordinate dimension {dprime} is not below {d}")
        if tits_value(derived, dprime) == 1 and is_finite_type(derived, dprime):
            out.append(dprime)
    return tuple(out)


def _construct_sincere(poset: Poset, d: DimensionVector, field: FieldSpec) -> MatrixRep:
    if d.d0 == 0:
        items = list(d.values.items())
        if len(items) != 1 or items[0][1] != 1:
            raise InvariantViolated(f"root {d} with zero rows is not trivial")
        return special_T(poset, field, items[0][0])
    if d.d0 == 1:
        members = [a for a in poset.elements if d.get(a)]
        if any(d.get(a) != 1 for a in members):
            raise InvariantViolated(f"root {d} with one row has an entry above 1")
        return antichain_unit_element(poset, field, members)
    order, maxes = (poset.elements, poset._lt), maximal_elements(poset)
    for a in poset.elements:
        if a not in maxes:
            continue
        context = memo(_DERIVED, (order, a), derive_poset, poset, a)
        for dprime in memo(_SUBORDINATE_ROOTS, (order, a, d), _subordinate_roots, context, d):
            candidate = integrate(_construct_root(context.result, dprime, field), context)
            if dimension_of(candidate) == d:
                return candidate
    raise ConstructionFailed(
        f"recursive construction found no route to {d} on {poset.elements}")


# -- the verification harness --------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    dimension: DimensionVector
    finite_type: bool
    witness: tuple | None              # (CriticalDimension, CriticalEmbedding)
    is_root: bool
    indecomposable: MatrixRep | None
    end_dim: int | None
    iso_class_counts: Mapping[str, int]
    notes: tuple[str, ...]
    ok: bool


def _all_dimensions(poset: Poset, max_total: int) -> Iterable[DimensionVector]:
    slots = len(poset.elements) + 1

    def rec(i: int, remaining: int, acc: list[int]):
        if i == slots:
            yield DimensionVector(acc[0], dict(zip(poset.elements, acc[1:])))
            return
        for v in range(remaining + 1):
            yield from rec(i + 1, remaining - v, acc + [v])

    yield from rec(0, max_total, [])


def verify_main_theorem(poset: Poset, max_total: int,
                        fields: Sequence[FieldSpec],
                        budget: int | None = None
                        ) -> tuple[list[ClassificationReport], list[str]]:
    """Check the finite-type equivalences and uniqueness claims exhaustively.

    For every dimension with |d| ≤ max_total: the scan criterion must agree
    with the critical-dominance criterion; for finite-type d the class count
    must be field independent, the indecomposable count must be 1 or 0
    according to Q(d) = 1, and the unique indecomposable must have scalar
    endomorphisms only (both at the representation and the element level).

    The scan criterion, Q > 0 on every nonzero d' ≤ d, is decided by
    induction over the sweep: the dimensions form a down-set visited by
    total, so it holds at d iff d = 0, or Q(d) > 0 and it holds at every
    d − e_i with d_i > 0; it is compared with dominance at every d, and
    budget bounds only the censuses.  One cached census core per field
    serves the class and indecomposable counts; only the first field's
    indecomposable of a root is lifted, for the endomorphism and
    construction checks.  A negative max_total or an empty field list
    raises ValidationError.
    """
    fields = list(fields)
    if max_total < 0 or not fields:
        raise ValidationError("verification needs max_total >= 0 and at least one field")
    positive: dict[tuple[int, ...], bool] = {}
    reports = []
    failures: list[str] = []
    for d in sorted(_all_dimensions(poset, max_total), key=lambda v: (v.total(), v.key())):
        notes = []
        ok = True
        witness = dominated_critical(poset, d)
        ft = witness is None
        q = tits_value(poset, d)
        root = q == 1
        vec = (d.d0, *(d.get(a) for a in poset.elements))
        scan = d.is_zero() or q > 0 and all(
            positive[vec[:i] + (v - 1,) + vec[i + 1:]] for i, v in enumerate(vec) if v)
        positive[vec] = scan
        if scan != ft:
            ok = False
            failures.append(f"{d}: scan criterion {scan} vs dominance {not witness}")
        cores: list[tuple[_CensusCore, tuple[str, ...]] | None] = []
        for f in fields:
            try:
                cores.append(_census_lookup(poset, d, f, budget))
            except BudgetExceeded:
                cores.append(None)
                notes.append(f"census skipped over {f.label()}: budget")
        counts = {f.label(): c[0].count for f, c in zip(fields, cores) if c is not None}
        indec = None
        end_dim = None
        if ft:
            expected = 1 if root else 0
            for f, c in zip(fields, cores):
                if c is None:
                    continue
                n_ind = _indecomposable_count(d, c[0])
                if n_ind != expected:
                    ok = False
                    failures.append(f"{d} over {f.label()}: {n_ind} "
                                    f"indecomposables, expected {expected}")
            if len(set(counts.values())) > 1:
                ok = False
                failures.append(f"{d}: class counts differ across fields: {counts}")
            if expected == 1:
                f = fields[0]
                if d.d0 == 0:
                    (a, _), = d.values.items()
                    indec = special_T(poset, f, a)
                    end_dim = len(el_hom_basis(indec, indec))
                elif cores[0] is not None and cores[0][0].indec_configs:
                    core, order = cores[0]
                    indec, = _lift_configs(poset, d.d0, f, order, core.indec_configs[:1])
                    end_dim = len(el_hom_basis(indec, indec))
                    rep_end = rep_end_dimension(rho(indec))
                    if rep_end != 1 or end_dim != 1:
                        ok = False
                        failures.append(
                            f"{d}: End dims rep={rep_end} el={end_dim}, expected 1")
                    built = construct_indecomposable(poset, d, f)
                    if built is None or are_isomorphic(built, indec) is None:
                        ok = False
                        failures.append(f"{d}: constructed element not isomorphic")
        reports.append(ClassificationReport(
            dimension=d, finite_type=ft, witness=witness, is_root=root,
            indecomposable=indec, end_dim=end_dim, iso_class_counts=counts,
            notes=tuple(notes), ok=ok,
        ))
    return reports, failures
