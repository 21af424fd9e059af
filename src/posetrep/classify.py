"""Classification and construction procedures, plus brute-force oracles.

Isomorphism classes of representations with an exact dimension vector are
counted by enumerating subspace configurations and taking their GL(d0)
orbits on arrays: each generator, an elementary column operation, permutes
the interned subspace ids through a lazily grown table, all configurations
are moved at once, image rows are found by exact packed keys, and the orbits
are the connected components of those moves.  A census is cached as a core
of numbers and configurations: count_iso_classes, el_indecomposable_count
and the verification harness's counts read the core, and only
rep_iso_census and brute_force_indecomposables lift its indecomposables to
elements.  Indecomposables of finite-type root dimensions are built by the
derive/recurse/integrate induction with a brute-force fallback.

The census caches may be filled from several threads: one lock covers
space creation, census computation (with the generator tables it grows)
and the cache insert; cache hits are lock-free reads.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .derivation import derive_poset, integrate, subordinate_dimensions
from .errors import (
    BudgetExceeded,
    ConstructionFailed,
    FieldTooRestrictive,
    InvariantViolated,
    NotFiniteType,
    ValidationError,
)
from .linalg import ExactMatrix, FieldSpec, env_budget
from .poset import Poset, canonical_form, induced_subposet, maximal_elements
from .reps import (
    MatrixRep,
    SubspaceRep,
    antichain_unit_element,
    are_isomorphic,
    dimension_of,
    el_hom_basis,
    is_indecomposable,
    lift,
    rep_end_dimension,
    rep_hom_basis,
    rho,
    special_T,
    _find_splitting_idempotent,
)
from .tits import (
    DEFAULT_SCAN_BUDGET,
    DimensionVector,
    is_finite_type,
    dominated_critical,
    tits_value,
)

DEFAULT_ENUM_BUDGET = 1 << 24


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValidationError(f"no primitive root modulo {p}")


class SubspaceSpace:
    """Interned subspaces of F_p^n with memoized span and GL-generator actions.

    Vectors are encoded as base-p integers; a subspace is a canonical tuple
    of reduced-echelon basis vectors.  Each GL generator is an elementary
    column operation, so an image costs one operation per basis row and a
    re-reduction.  The generator actions are kept as one table over the
    subspace ids, row g holding the image of each id under generator g
    (-1 where not yet computed).
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.pn = p ** n
        self._keys: dict[tuple, int] = {}
        self._basis: list[tuple] = []
        self._vectors: dict[int, frozenset] = {}
        self._extend: dict[tuple[int, int], int] = {}
        self._join: dict[tuple[int, int], int] = {}
        self._supersets: dict[tuple[int, int], tuple[int, ...]] = {}
        self.zero_id = self._intern(())
        self.generators = self._gl_generators()
        self._table = np.full((len(self.generators), 0), -1, dtype=np.int64)

    # vector encoding ------------------------------------------------------

    def vec_tuple(self, v: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def tuple_vec(self, t: Sequence[int]) -> int:
        v = 0
        for x in reversed(t):
            v = v * self.p + x % self.p
        return v

    # interning --------------------------------------------------------------

    def _rref(self, rows: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
        p = self.p
        work = [list(r) for r in rows]
        out = []
        pivots = []
        r = 0
        for c in range(self.n):
            pr = None
            for i in range(r, len(work)):
                if work[i][c] % p:
                    pr = i
                    break
            if pr is None:
                continue
            work[r], work[pr] = work[pr], work[r]
            inv = pow(work[r][c], -1, p)
            work[r] = [x * inv % p for x in work[r]]
            for i in range(len(work)):
                if i != r and work[i][c] % p:
                    f = work[i][c]
                    work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == len(work):
                break
        return tuple(tuple(work[i]) for i in range(r))

    def _intern(self, rows: tuple[tuple[int, ...], ...]) -> int:
        sid = self._keys.get(rows)
        if sid is None:
            sid = len(self._basis)
            self._keys[rows] = sid
            self._basis.append(rows)
        return sid

    def basis_rows(self, sid: int) -> tuple[tuple[int, ...], ...]:
        return self._basis[sid]

    def dim(self, sid: int) -> int:
        return len(self._basis[sid])

    def vectors(self, sid: int) -> frozenset:
        got = self._vectors.get(sid)
        if got is None:
            members = {0}
            for row in self._basis[sid]:
                rv = self.tuple_vec(row)
                fresh = set()
                for c in range(1, self.p):
                    scaled = self.tuple_vec(tuple(x * c % self.p for x in row))
                    for m in members:
                        mt = self.vec_tuple(m)
                        st = self.vec_tuple(scaled)
                        fresh.add(self.tuple_vec(
                            tuple((x + y) % self.p for x, y in zip(mt, st))))
                members |= fresh
            got = frozenset(members)
            self._vectors[sid] = got
        return got

    def extend(self, sid: int, vec: int) -> int:
        key = (sid, vec)
        got = self._extend.get(key)
        if got is None:
            rows = list(self._basis[sid]) + [self.vec_tuple(vec)]
            got = self._intern(self._rref(rows))
            self._extend[key] = got
        return got

    def join(self, s1: int, s2: int) -> int:
        if s1 > s2:
            s1, s2 = s2, s1
        key = (s1, s2)
        got = self._join.get(key)
        if got is None:
            got = s1
            for row in self._basis[s2]:
                got = self.extend(got, self.tuple_vec(row))
            self._join[key] = got
        return got

    def supersets(self, sid: int, k: int) -> tuple[int, ...]:
        """All subspaces containing sid with dim(sid) + k dimensions."""
        key = (sid, k)
        got = self._supersets.get(key)
        if got is None:
            frontier = {sid}
            for _ in range(k):
                nxt = set()
                for s in frontier:
                    members = self.vectors(s)
                    for v in range(1, self.pn):
                        if v not in members:
                            nxt.add(self.extend(s, v))
                frontier = nxt
            got = tuple(sorted(frontier))
            self._supersets[key] = got
        return got

    # group action --------------------------------------------------------------

    def _gl_generators(self) -> list[tuple[int, int, int]]:
        """Generators of GL_n(F_p), each an elementary column operation
        (i, j, r) on the coordinates: x_i += x_j when i != j, and x_0 *= r
        for a primitive root r when p > 2."""
        n = self.n
        gens = [(i, j, 1) for i in range(n) for j in range(n) if i != j]
        if self.p > 2 and n > 0:
            gens.append((0, 0, _primitive_root(self.p)))
        return gens

    def apply_generator(self, gidx: int, sid: int) -> int:
        """The id of generator gidx applied to subspace sid: its column
        operation on each echelon row, then re-reduced and interned."""
        i, j, r = self.generators[gidx]
        p = self.p
        rows = []
        for row in self._basis[sid]:
            row = list(row)
            row[i] = (row[i] + row[j]) % p if i != j else row[i] * r % p
            rows.append(row)
        return self._intern(self._rref(rows))

    def generator_table(self, ids: np.ndarray) -> np.ndarray:
        """The (generators, ·) image table, filled in at least for the ids in
        the given array: table[g, s] is the id of generator g applied to s."""
        table = self._table
        need = int(ids.max()) + 1
        if table.shape[1] < need:
            grown = np.full((len(self.generators), max(need, 2 * table.shape[1])),
                            -1, dtype=np.int64)
            grown[:, :table.shape[1]] = table
            self._table = table = grown
        if len(self.generators):
            wanted = np.zeros(table.shape[1], dtype=bool)
            wanted[ids] = True
            for sid in np.flatnonzero(wanted & (table[0] < 0)).tolist():
                table[:, sid] = [self.apply_generator(g, sid)
                                 for g in range(len(self.generators))]
        return table

    def to_matrix(self, sid: int, field: FieldSpec) -> ExactMatrix:
        """Canonical basis of the subspace, as columns of an ExactMatrix."""
        rows = self._basis[sid]
        return ExactMatrix(field, self.n, len(rows),
                           [tuple(row[i] for row in rows) for i in range(self.n)])


_SPACES: dict[tuple[int, int], SubspaceSpace] = {}
# Guards every write to _SPACES, _CENSUS_CACHE and the spaces themselves.
# Reentrant, because _census_core runs under it and looks up its space.
_LOCK = threading.RLock()


def _space(p: int, n: int) -> SubspaceSpace:
    got = _SPACES.get((p, n))
    if got is None:
        with _LOCK:
            got = _SPACES.get((p, n))
            if got is None:
                got = _SPACES[(p, n)] = SubspaceSpace(p, n)
    return got


def _enumerate_configs(poset: Poset, d: DimensionVector, space: SubspaceSpace,
                       budget: int) -> list[tuple[int, ...]]:
    """All subspace assignments realizing d exactly (quotient dimensions)."""
    elems = poset.elements
    below = {a: [b for b in elems if poset.lt(b, a)] for a in elems}
    order = sorted(elems, key=lambda a: (len(below[a]), poset.index(a)))
    out: list[tuple[int, ...]] = []
    assignment: dict[str, int] = {}

    def rec(i: int):
        if i == len(order):
            out.append(tuple(assignment[a] for a in elems))
            if len(out) > budget:
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

    rec(0)
    return out


class _RowKeys:
    """Exact int64 keys for the rows of a 2-d integer array.

    Each column is coded densely, by its sorted distinct values, and the
    codes are combined in mixed radix.  Before the radix product would pass
    2^63, the partial key is re-ranked densely, so its radix drops to at most
    the number of rows.  keys holds one key per row, equal exactly when the
    rows are equal.
    """

    def __init__(self, rows: np.ndarray):
        self._steps: list[tuple[np.ndarray, np.ndarray | None]] = []
        key = np.zeros(len(rows), dtype=np.int64)
        radix = 1
        for col in rows.T:
            values, code = np.unique(col, return_inverse=True)
            ranks = None
            if radix * len(values) > 1 << 63:
                ranks, key = np.unique(key, return_inverse=True)
                radix = len(ranks)
            self._steps.append((values, ranks))
            key = key * len(values) + code
            radix *= len(values)
        self.keys = key
        self._order = np.argsort(key)
        self._sorted = key[self._order]

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The index of each given row among the coded rows, or -1."""
        found = np.ones(len(rows), dtype=bool)
        key = np.zeros(len(rows), dtype=np.int64)
        for col, (values, ranks) in zip(rows.T, self._steps):
            if ranks is not None:
                key = _locate(ranks, key, found)
            key = key * len(values) + _locate(values, col, found)
        pos = _locate(self._sorted, key, found)
        return np.where(found, self._order[pos], -1)


def _locate(ordered: np.ndarray, x: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Positions of x in the sorted array, kept in range; clears found where
    x is absent."""
    pos = np.minimum(np.searchsorted(ordered, x), len(ordered) - 1)
    found &= ordered[pos] == x
    return pos


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
                           space: SubspaceSpace) -> list[tuple[int, ...]]:
    """One representative per GL(d0)-orbit: the first configuration of each
    orbit, in enumeration order.

    Raises InvariantViolated when a generator moves a configuration out of
    the set, which the enumeration of an exact dimension rules out.
    """
    n = len(configs)
    if n <= 1:
        return list(configs)
    cfg = np.array(configs, dtype=np.int64)
    table = space.generator_table(cfg)
    rows = _RowKeys(cfg)
    moves = np.empty((len(table), n), dtype=np.int64)
    for g, image in enumerate(table):
        moves[g] = rows.find(image[cfg])
    if (moves < 0).any():
        raise InvariantViolated("a GL generator moved a configuration out of the set")
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
    n_configs: int                     # configurations enumerated, held against budgets


_CENSUS_CACHE: dict[tuple, _CensusCore] = {}


def _census_core(canon: Poset, d: DimensionVector, p: int, budget: int) -> _CensusCore:
    space = _space(p, d.d0)
    configs = _enumerate_configs(canon, d, space, budget)
    reps = _orbit_representatives(configs, space)
    field = FieldSpec("gf", p)
    indec = []
    for cfg in reps:
        subs = {a: space.to_matrix(cfg[i], field)
                for i, a in enumerate(canon.elements)}
        v = SubspaceRep(canon, field, d.d0, subs)
        basis = [m.f for m in rep_hom_basis(v, v)]
        if _find_splitting_idempotent(basis, d.d0, field) is None:
            indec.append(cfg)
    return _CensusCore(len(reps), tuple(indec), len(configs))


def _canonical_support(poset: Poset, d: DimensionVector):
    """(canonical order, canonical relations) of the support weighted by d.

    Memoized in poset._cache per weighted support, so every d0 over the same
    weights shares one canonical_form call.  Only the order and the relation
    set are kept, not the subposet itself.
    """
    memo = poset._cache.setdefault("canonical_support", {})
    weights = tuple(d.get(a) for a in poset.elements)
    got = memo.get(weights)
    if got is None:
        sub = induced_subposet(poset, d.support())
        _, order = canonical_form(sub, {a: d.get(a) for a in sub.elements})
        pos = {a: i for i, a in enumerate(order)}
        rels = frozenset((str(pos[a]), str(pos[b])) for a, b in sub.relation_pairs())
        got = memo[weights] = (order, rels)
    return got


def _census_lookup(poset: Poset, d: DimensionVector, field: FieldSpec,
                   budget: int | None) -> tuple[_CensusCore, tuple[str, ...]]:
    """The validated, cached census core of d, and the support order its
    configurations are indexed by.

    Every census entry point comes through here: the field must be a finite
    prime field and every element of the support must belong to the poset.
    Censuses with d0 = 0 are answered without the cache.  A cached core
    still raises BudgetExceeded when its enumeration exceeds the caller's
    budget.
    """
    if not field.is_prime_field:
        raise FieldTooRestrictive("class counting requires a finite prime field")
    if budget is None:
        budget = env_budget(DEFAULT_ENUM_BUDGET)
    for a in d.support():
        poset.check_element(a)
    if d.d0 == 0:
        return _CensusCore(0 if d.support() else 1, (), 0), ()
    order, rels = _canonical_support(poset, d)
    dc = DimensionVector(d.d0, {str(i): d.get(a) for i, a in enumerate(order)})
    key = (len(order), rels, dc.key(), field.p)
    core = _CENSUS_CACHE.get(key)
    if core is None:
        with _LOCK:
            core = _CENSUS_CACHE.get(key)
            if core is None:
                canon = Poset([str(i) for i in range(len(order))], rels)
                core = _CENSUS_CACHE[key] = _census_core(canon, dc, field.p, budget)
    if core.n_configs > budget:
        raise BudgetExceeded(f"configuration enumeration exceeds budget {budget}")
    return core, order


def _lift_configs(poset: Poset, d0: int, field: FieldSpec, order: tuple[str, ...],
                  configs: Sequence[tuple[int, ...]]) -> tuple[MatrixRep, ...]:
    """The elements of poset lifted from census configurations."""
    if not configs:
        return ()
    sub = induced_subposet(poset, order)
    space = _space(field.p, d0)
    out = []
    for cfg in configs:
        subs = {order[i]: space.to_matrix(cfg[i], field) for i in range(len(order))}
        u = lift(SubspaceRep(sub, field, d0, subs))
        out.append(MatrixRep(poset, field, d0, {a: u.blocks[a] for a in sub.elements}))
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
                                method: str = "auto",
                                budget: int | None = None) -> list[MatrixRep]:
    """Complete pairwise non-isomorphic list of indecomposables of dimension d.

    method="matrices" enumerates every block matrix, filters those realizing
    d as a representation dimension, and buckets by are_isomorphic: the
    stated desk-scale oracle.  The default enumerates subspace configurations
    instead, which produces the same classes far faster; a dedicated test
    cross-checks the two routes.
    """
    if not field.is_prime_field:
        raise FieldTooRestrictive("brute force requires a finite prime field")
    if budget is None:
        budget = env_budget(DEFAULT_ENUM_BUDGET)
    if method not in ("auto", "configurations", "matrices"):
        raise ValidationError(f"unknown method {method!r}")
    for a in d.support():
        poset.check_element(a)
    if d.d0 == 0:
        # zero-row elements decompose into trivial summands; the only
        # indecomposable of such a dimension is a single trivial element
        vals = dict(d.values)
        if sorted(vals.values()) == [1]:
            (a, _), = vals.items()
            return [special_T(poset, field, a)]
        return []
    if method in ("auto", "configurations"):
        return list(rep_iso_census(poset, d, field, budget).indecomposables)
    total_cols = sum(d.get(a) for a in poset.elements)
    size = field.p ** (d.d0 * total_cols)
    if size > budget:
        raise BudgetExceeded(
            f"{size} block matrices exceed the enumeration budget {budget}")
    reps: list[MatrixRep] = []
    for entries in itertools.product(range(field.p), repeat=d.d0 * total_cols):
        blocks = {}
        offset = 0
        for a in poset.elements:
            c = d.get(a)
            rows = [entries[offset + i * c: offset + (i + 1) * c]
                    for i in range(d.d0)]
            blocks[a] = ExactMatrix(field, d.d0, c, rows)
            offset += d.d0 * c
        u = MatrixRep(poset, field, d.d0, blocks)
        if rho(u).dimension_vector() != d:
            continue
        if any(are_isomorphic(u, v) is not None for v in reps):
            continue
        reps.append(u)
    return [u for u in reps if is_indecomposable(u)]


# -- construction -----------------------------------------------------------------


def construct_indecomposable(poset: Poset, d: DimensionVector, field: FieldSpec,
                             fallback: str = "allow") -> MatrixRep | None:
    """The unique indecomposable of a finite-type root dimension, or None.

    Restricts to the support, then either emits an explicit small element or
    recurses through a derivation pivot: enumerate subordinate root
    dimensions, construct there, integrate back, and keep the first result
    of the right dimension.  fallback="forbid" raises ConstructionFailed
    instead of falling back to brute force.
    """
    if fallback not in ("allow", "forbid"):
        raise ValidationError(f"unknown fallback mode {fallback!r}")
    if not is_finite_type(poset, d):
        raise NotFiniteType(f"{d} dominates a critical dimension")
    if tits_value(poset, d) != 1:
        return None
    supp = poset.sorted_subset(d.support())
    sub = induced_subposet(poset, supp)
    ds = d.restrict(supp)
    u = _construct_sincere(sub, ds, field, fallback)
    return MatrixRep(poset, field, u.d0, {a: u.blocks[a] for a in sub.elements})


def _construct_sincere(poset: Poset, d: DimensionVector, field: FieldSpec,
                       fallback: str) -> MatrixRep:
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
    for a in poset.elements:
        if a not in maximal_elements(poset):
            continue
        context = derive_poset(poset, a)
        derived = context.result
        for dprime in subordinate_dimensions(poset, a, d):
            if dprime.total() >= d.total():
                raise InvariantViolated(f"subordinate dimension {dprime} is not below {d}")
            if tits_value(derived, dprime) != 1:
                continue
            if not is_finite_type(derived, dprime):
                continue
            inner = construct_indecomposable(derived, dprime, field, fallback)
            if inner is None:
                continue
            candidate = integrate(inner, context)
            if dimension_of(candidate) == d:
                return candidate
    if fallback == "forbid":
        raise ConstructionFailed(
            f"recursive construction found no route to {d} on {poset.elements}")
    if not field.is_prime_field:
        raise FieldTooRestrictive(
            "construction over the rationals needed the enumeration fallback")
    found = brute_force_indecomposables(poset, d, field)
    if len(found) != 1:
        raise InvariantViolated(
            f"finite-type root {d} has {len(found)} indecomposables, not one")
    return found[0]


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
    d − e_i with d_i > 0.  Like finite_type_scan, the comparison is skipped
    with a note when the subvector grid of d exceeds the scan budget.  One
    cached census core per field serves the class and indecomposable
    counts; only the first field's indecomposable of a root is lifted, for
    the endomorphism and construction checks.
    """
    fields = list(fields)
    scan_budget = env_budget(DEFAULT_SCAN_BUDGET) if budget is None else budget
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
        if math.prod(v + 1 for v in vec) > scan_budget:
            notes.append("scan skipped: budget")
        elif scan != ft:
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
            if expected == 1 and fields:
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
