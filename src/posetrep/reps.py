"""Block-matrix elements, subspace representations, and the functor between them.

An element over a poset S is one block M(a) per element, all sharing a row
count d0.  The associated representation assigns to a the column span of the
blocks at or below a.  Morphisms of elements are triangular families
Φ(0), Φ(a), Φ(ba) subject to  Φ(0)M(a) = M'(a)Φ(a) + Σ_{b≺a} M'(b)Φ(ba).

The public MatrixRep and SubspaceRep constructors check their blocks and
subspaces; SubspaceRep canonicalizes them.  Every element and representation
built here goes through _of: its blocks are valid, its subspaces canonical
and order preserving by construction.

Decomposition splits off trivial columns, then splits the representation by
idempotents of its endomorphism algebra, found by a seeded search, and keeps
each summand's inclusion.  Isomorphism pairs the summands of two
decompositions and lifts the assembled ambient map to a certificate exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    FieldMismatch,
    InvariantViolated,
    UndecidableAtBudget,
    UnknownElement,
    ValidationError,
)
from .linalg import (
    DEFAULT_SEARCH_BUDGET,
    ExactMatrix,
    FieldSpec,
    column_space_basis,
    check_counts,
    hstack,
    resolve_budget,
    solve_columns,
    span_contains,
    _columns,
    _independent_columns,
)
from .poset import Poset, lower_cone, strict_lower_cone
from .tits import DimensionVector
from .value import Value


# -- core containers ---------------------------------------------------------------


class MatrixRep(Value):
    """Element of the block-matrix category: one d0 x d(a) block per element,
    in element order; a block the caller leaves out has no columns."""

    __slots__ = ("poset", "field", "d0", "blocks")

    def __init__(self, poset: Poset, field: FieldSpec, d0: int,
                 blocks: Mapping[str, ExactMatrix] | None = None):
        check_counts(field, d0)
        blocks = blocks or {}
        full = _padded_blocks(poset, field, d0, blocks)
        for a, m in full.items():
            if not isinstance(m, ExactMatrix):
                raise ValidationError(f"block {a!r} is not an ExactMatrix")
            if m.field != field:
                raise FieldMismatch(f"block {a!r} is over {m.field.label()}")
            if m.rows != d0:
                raise ValidationError(f"block {a!r} has {m.rows} rows, expected {d0}")
        unknown = sorted(a for a in blocks if a not in poset)
        if unknown:
            raise UnknownElement(f"blocks given for unknown elements {unknown}")
        self._fill(poset, field, d0, full)

    def block(self, a: str) -> ExactMatrix:
        self.poset.check_element(a)
        return self.blocks[a]

    def cols(self, a: str) -> int:
        return self.block(a).cols

    def key(self):
        return (self.d0, tuple((a, self.blocks[a].data, self.blocks[a].cols)
                               for a in self.poset.elements))

    def __eq__(self, other):
        return isinstance(other, MatrixRep) and (self.poset, self.field, self.key()) == (
            other.poset, other.field, other.key())

    def __hash__(self):
        return hash((self.poset, self.field, self.key()))

    def __repr__(self):
        bits = ", ".join(f"{a}:{m.rows}x{m.cols}" for a, m in self.blocks.items())
        return f"MatrixRep(d0={self.d0}, {bits})"


def _padded_blocks(poset: Poset, field: FieldSpec, d0: int,
                  blocks: Mapping[str, ExactMatrix]) -> dict[str, ExactMatrix]:
    """blocks over every element of poset, in element order: a d0 x 0 block
    at each element blocks leaves out."""
    empty = ExactMatrix.zeros(field, d0, 0)
    return {a: blocks.get(a, empty) for a in poset.elements}


def dimension_of(u: MatrixRep) -> DimensionVector:
    return DimensionVector(u.d0, {a: u.cols(a) for a in u.poset.elements})


def stacked_lower_blocks(u: MatrixRep, a: str, strict: bool = False) -> ExactMatrix:
    """The blocks M(b) for b ⪯ a (or b ≺ a) side by side, in element order."""
    cone = strict_lower_cone(u.poset, a) if strict else lower_cone(u.poset, a)
    mats = [ExactMatrix.zeros(u.field, u.d0, 0)]
    mats += [u.blocks[b] for b in u.poset.elements if b in cone]
    return hstack(mats)


class SubspaceRep(Value):
    """Order-preserving assignment of subspaces of an ambient space.

    Basis matrices are canonicalized on construction, so two equal
    representations compare equal entrywise.
    """

    __slots__ = ("poset", "field", "ambient_dim", "subspaces")

    def __init__(self, poset: Poset, field: FieldSpec, ambient_dim: int,
                 subspaces: Mapping[str, ExactMatrix]):
        check_counts(field, ambient_dim)
        unknown = [a for a in subspaces if a not in poset]
        if unknown:
            raise UnknownElement(f"subspaces given for unknown elements {sorted(unknown)}")
        canon, empty = {}, ExactMatrix.zeros(field, ambient_dim, 0)
        for a in poset.elements:
            m = subspaces.get(a, empty)
            if not isinstance(m, ExactMatrix) or m.rows != ambient_dim or m.field != field:
                raise ValidationError(f"subspace basis at {a!r} has the wrong shape/field")
            canon[a] = column_space_basis(m)
        for a, b in poset.relation_pairs():
            if not span_contains(canon[b], canon[a]):
                raise ValidationError(
                    f"not order preserving: V({a}) is not contained in V({b})"
                )
        self._fill(poset, field, ambient_dim, canon)

    def subspace(self, a: str) -> ExactMatrix:
        self.poset.check_element(a)
        return self.subspaces[a]

    def dim(self, a: str) -> int:
        return self.subspace(a).cols

    def below_sum(self, a: str) -> ExactMatrix:
        cone = strict_lower_cone(self.poset, a)
        mats = [ExactMatrix.zeros(self.field, self.ambient_dim, 0)]
        mats += [self.subspaces[b] for b in self.poset.elements if b in cone]
        return column_space_basis(hstack(mats))

    def dimension_vector(self) -> DimensionVector:
        vals = {}
        for a in self.poset.elements:
            vals[a] = self.dim(a) - self.below_sum(a).cols
        return DimensionVector(self.ambient_dim, vals)

    def __eq__(self, other):
        return isinstance(other, SubspaceRep) and (
            self.poset, self.field, self.ambient_dim, self.subspaces) == (
            other.poset, other.field, other.ambient_dim, other.subspaces)

    def __hash__(self):
        return hash((self.poset, self.field, self.ambient_dim,
                     tuple(self.subspaces[a] for a in self.poset.elements)))

    def __repr__(self):
        bits = ", ".join(f"{a}:{m.cols}" for a, m in self.subspaces.items())
        return f"SubspaceRep(dim {self.ambient_dim}; {bits})"


# -- the functor both ways -----------------------------------------------------------


def rho(u: MatrixRep) -> SubspaceRep:
    """V(a) = column span of the blocks at or below a."""
    subs = {a: column_space_basis(stacked_lower_blocks(u, a)) for a in u.poset.elements}
    return SubspaceRep._of(u.poset, u.field, u.d0, subs)


def lift(v: SubspaceRep) -> MatrixRep:
    """Canonical element with rho(lift(v)) = v.

    Block a holds the canonical basis columns of V(a) that complete
    Σ_{b≺a} V(b), greedily in index order: the pivot columns of V(a) in
    rref([Σ_{b≺a} V(b) | V(a)]).
    """
    subs = v.subspaces
    blocks = {a: subs[a].take_columns(_independent_columns(v.below_sum(a), subs[a]))
              for a in v.poset.elements}
    return MatrixRep._of(v.poset, v.field, v.ambient_dim, blocks)


# -- distinguished elements -----------------------------------------------------------


def special_T(p: Poset, field: FieldSpec, a: str) -> MatrixRep:
    """Trivial element at a: zero rows, one column in block a."""
    p.check_element(a)
    column = ExactMatrix.zeros(field, 0, 1)
    return MatrixRep._of(p, field, 0, _padded_blocks(p, field, 0, {a: column}))


def antichain_unit_element(p: Poset, field: FieldSpec, members: Sequence[str]) -> MatrixRep:
    """d0 = 1 element with a single 1 x 1 unit block at each listed element.

    The members must be pairwise incomparable; this covers T0 (no members),
    E_a (one member) and E_p (an incomparable pair).
    """
    members = list(members)
    for m in members:
        p.check_element(m)
    for x, y in itertools.combinations(members, 2):
        if p.comparable(x, y):
            raise ValidationError(f"{x!r} and {y!r} are comparable")
    one = ExactMatrix.identity(field, 1)
    return MatrixRep._of(p, field, 1, _padded_blocks(p, field, 1, dict.fromkeys(members, one)))


# -- morphisms ------------------------------------------------------------------------


@dataclass(frozen=True)
class ElMorphism:
    """Triangular morphism family between two elements over the same poset."""

    phi0: ExactMatrix
    phi_diag: Mapping[str, ExactMatrix]
    phi_tri: Mapping[tuple[str, str], ExactMatrix]  # key (b, a) with b ≺ a

    def is_invertible(self) -> bool:
        if not self.phi0.is_invertible():
            return False
        return all(m.is_invertible() for m in self.phi_diag.values())


def _hom_slots(u: MatrixRep, v: MatrixRep):
    """Unknown layout for the morphism system u -> v."""
    p = u.poset
    slots = [("0", None, v.d0, u.d0)]
    for a in p.elements:
        slots.append(("diag", a, v.cols(a), u.cols(a)))
    for a in p.elements:
        slots += [("tri", (b, a), v.cols(b), u.cols(a))
                  for b in p.sorted_subset(strict_lower_cone(p, a))]
    offsets = {}
    total = 0
    for kind, key, r, c in slots:
        offsets[(kind, key)] = total
        total += r * c
    return slots, offsets, total


def _vector_to_morphism(vec, u: MatrixRep, v: MatrixRep, slots, offsets) -> ElMorphism:
    field = u.field

    def grab(kind, key, r, c):
        off = offsets[(kind, key)]
        return ExactMatrix._of(field, r, c,
                               tuple(vec[off + i * c: off + (i + 1) * c] for i in range(r)))

    parts = {"0": {}, "diag": {}, "tri": {}}
    for kind, key, r, c in slots:
        parts[kind][key] = grab(kind, key, r, c)
    return ElMorphism(parts["0"][None], parts["diag"], parts["tri"])


def el_hom_basis(u: MatrixRep, v: MatrixRep) -> list[ElMorphism]:
    """Basis of the solution space of the morphism equations u -> v."""
    if u.poset != v.poset:
        raise ValidationError("hom between elements over different posets")
    if u.field != v.field:
        raise FieldMismatch("hom between elements over different fields")
    p, field, q = u.poset, u.field, u.field.p
    slots, offsets, total = _hom_slots(u, v)
    zero = field.zero()
    off0 = offsets[("0", None)]
    rows = []
    for a in p.elements:
        Ma = u.blocks[a]
        # each unknown occurs once per equation: +M(a) on phi0, -M'(b) on
        # phi(a) and on each phi(ba)
        targets = [(offsets[("diag", a)], v.blocks[a])]
        targets += [(offsets[("tri", (b, a))], v.blocks[b])
                    for b in p.sorted_subset(strict_lower_cone(p, a))]
        for i in range(v.d0):
            for j in range(Ma.cols):
                row = [zero] * total
                for k in range(u.d0):
                    row[off0 + i * u.d0 + k] = Ma.data[k][j]
                for off, Vb in targets:
                    for k, x in enumerate(Vb.data[i]):
                        row[off + k * Ma.cols + j] = -x if q is None else -x % q
                rows.append(row)
    system = ExactMatrix._of(field, len(rows), total, tuple(map(tuple, rows)))
    return [
        _vector_to_morphism(vec, u, v, slots, offsets)
        for vec in system.nullspace_basis()
    ]


def end_dimension(u: MatrixRep) -> int:
    """Dimension of the element-level endomorphism space."""
    return len(el_hom_basis(u, u))


@dataclass(frozen=True)
class RepMorphism:
    """Ambient linear map carrying each subspace into its counterpart."""

    f: ExactMatrix


def rep_hom_basis(v: SubspaceRep, w: SubspaceRep) -> list[RepMorphism]:
    """Basis of {f : f·V(a) ⊆ W(a) for all a}."""
    if v.poset != w.poset:
        raise ValidationError("hom between representations over different posets")
    if v.field != w.field:
        raise FieldMismatch("hom between representations over different fields")
    field, p, n = v.field, v.field.p, v.ambient_dim
    n_unknowns = w.ambient_dim * n
    zero = field.zero()
    rows = []
    for a in v.poset.elements:
        columns = v.subspaces[a].transpose().data
        annihilator = w.subspaces[a].transpose().nullspace_basis()
        # y^T f b = 0 for y in the annihilator of W(a), b a basis column of V(a)
        for y in annihilator:
            for b in columns:
                row = [zero] * n_unknowns
                for i, yi in enumerate(y):
                    if yi:
                        row[i * n:(i + 1) * n] = ([yi * x for x in b] if p is None
                                                  else [yi * x % p for x in b])
                rows.append(row)
    system = ExactMatrix._of(field, len(rows), n_unknowns, tuple(map(tuple, rows)))
    return [RepMorphism(ExactMatrix._of(field, w.ambient_dim, n,
                                        tuple(vec[i * n:(i + 1) * n]
                                              for i in range(w.ambient_dim))))
            for vec in system.nullspace_basis()]


def rep_end_dimension(v: SubspaceRep) -> int:
    return len(rep_hom_basis(v, v))


# -- decomposition ---------------------------------------------------------------------


def split_trivial_columns(u: MatrixRep) -> tuple[MatrixRep, dict[str, int]]:
    """Split off trivial summands: block columns dependent on the part below.

    Block a keeps its pivot columns in rref([blocks strictly below a | M(a)]),
    the same greedy choice lift makes.  Returns the column-independent core
    and the multiset of split columns.
    """
    blocks = {}
    trivials: dict[str, int] = {}
    for a in u.poset.elements:
        blocks[a] = u.blocks[a].take_columns(_kept_columns(u, a))
        dropped = u.cols(a) - blocks[a].cols
        if dropped:
            trivials[a] = dropped
    return MatrixRep._of(u.poset, u.field, u.d0, blocks), trivials


def _kept_columns(u: MatrixRep, a: str) -> list[int]:
    """Indices of the pivot columns of M(a) in rref([blocks strictly below a | M(a)])."""
    return _independent_columns(stacked_lower_blocks(u, a, strict=True), u.blocks[a])


def _combination(basis: list[ExactMatrix], coeffs) -> ExactMatrix | None:
    """Σ c·b over the nonzero coefficients, or None when all are zero: one
    candidate of the idempotent search."""
    cand = None
    for c, b in zip(coeffs, basis):
        if c:
            term = b.scale(c)
            cand = term if cand is None else cand + term
    return cand


def _find_splitting_idempotent(basis: list[ExactMatrix], n: int, field: FieldSpec,
                               budget: int | None = None) -> ExactMatrix | None:
    """Nontrivial idempotent in the span of basis (an algebra), or None if local.

    Strategy: scan basis elements, pairwise sums and products, then seeded
    random combinations, using Fitting decompositions; finish with exhaustive
    enumeration when the algebra is small enough, otherwise give up loudly.
    """
    budget = resolve_budget(budget, DEFAULT_SEARCH_BUDGET)
    if n == 0 or len(basis) <= 1:
        return None
    ident = ExactMatrix.identity(field, n)

    def inspect(f: ExactMatrix | None) -> ExactMatrix | None:
        if f is None or f.is_zero() or f == ident:
            return None
        if f @ f == f:
            return f
        g = f
        for _ in range((n - 1).bit_length()):  # g = f^(2^k) with 2^k >= n: Fitting
            g = g @ g
        r = g.rank()
        if r == 0 or r == n:
            return None
        img = column_space_basis(g)
        ker_vecs = g.nullspace_basis()
        ker = ExactMatrix._of(field, n, len(ker_vecs), _columns(ker_vecs, n))
        e = hstack([img, ExactMatrix.zeros(field, n, n - r)]) @ hstack([img, ker]).inverse()
        if e @ e != e:
            raise InvariantViolated("splitting element is not idempotent")
        return e

    def drawn():  # seeded once the scans before it have failed
        rng = random.Random(0xC0FFEE)
        low, high = (0, field.p) if field.is_prime_field else (-3, 4)
        for _ in range(64):
            yield _combination(basis, [rng.randrange(low, high) for _ in basis])

    candidates = itertools.chain(
        basis,
        (f + g for f, g in itertools.combinations(basis, 2)),
        (f @ g for f, g in itertools.permutations(basis, 2)),
        drawn())
    for f in candidates:
        e = inspect(f)
        if e is not None:
            return e
    if not field.is_prime_field:  # over Q the heuristics above are all we attempt
        raise UndecidableAtBudget("cannot certify indecomposability over the rationals "
                                  "at this size")
    if field.p ** len(basis) > budget:
        raise UndecidableAtBudget(
            f"endomorphism algebra of dimension {len(basis)} over {field.label()} "
            f"exceeds the idempotent search budget {budget}")
    for coeffs in itertools.product(range(field.p), repeat=len(basis)):
        cand = _combination(basis, coeffs)
        if cand is not None and cand != ident and cand @ cand == cand:
            return cand
    return None


def _splitting_idempotent(v: SubspaceRep, budget: int | None = None) -> ExactMatrix | None:
    """A nontrivial idempotent of End(v), or None when End(v) is local."""
    return _find_splitting_idempotent([m.f for m in rep_hom_basis(v, v)], v.ambient_dim,
                                      v.field, budget)


def _restrict_rep(v: SubspaceRep, e: ExactMatrix) -> tuple[SubspaceRep, ExactMatrix]:
    """Restriction of v to the image of the idempotent e, in the coordinates
    of the canonical basis C of that image; and C."""
    C = column_space_basis(e)
    subs = {a: column_space_basis(solve_columns(C, e @ v.subspaces[a]))
            for a in v.poset.elements}
    return SubspaceRep._of(v.poset, v.field, C.cols, subs), C


def _split(v: SubspaceRep, budget: int | None) -> list[tuple[SubspaceRep, ExactMatrix]]:
    """Indecomposable summands of v, each with its inclusion into v's ambient
    space; the inclusions side by side form an invertible matrix."""
    if v.ambient_dim == 0:
        return []
    e = _splitting_idempotent(v, budget)
    ident = ExactMatrix.identity(v.field, v.ambient_dim)
    if e is None:
        return [(v, ident)]
    parts = [_restrict_rep(v, part) for part in (e, ident - e)]
    return [(x, C @ inner) for w, C in parts for x, inner in _split(w, budget)]


def rep_decompose(v: SubspaceRep, budget: int | None = None) -> list[SubspaceRep]:
    """Indecomposable summands of a subspace representation."""
    return [w for w, _ in _split(v, budget)]


@dataclass(frozen=True)
class Decomposition:
    pieces: tuple[MatrixRep, ...]
    trivials: Mapping[str, int]


def decompose(u: MatrixRep, budget: int | None = None) -> Decomposition:
    """Krull-Schmidt decomposition; trivial summands are reported separately."""
    reduced, trivials = split_trivial_columns(u)
    pieces: list[MatrixRep] = []
    if reduced.d0 > 0:
        pieces = [lift(w) for w in rep_decompose(rho(reduced), budget)]
    pieces.sort(key=lambda m: (dimension_of(m).key(), m.key()))
    return Decomposition(tuple(pieces), dict(trivials))


def is_indecomposable(u: MatrixRep, budget: int | None = None) -> bool:
    """Indecomposability in the element category.

    Trivial summands are split off by column reduction first; the remaining
    core is tested through its representation's endomorphism algebra.
    """
    reduced, trivials = split_trivial_columns(u)
    tcount = sum(trivials.values())
    if u.d0 == 0:
        return tcount == 1
    if tcount > 0:
        return False
    return _splitting_idempotent(rho(reduced), budget) is None


# -- isomorphism ------------------------------------------------------------------------


def _identity_morphism(u: MatrixRep) -> ElMorphism:
    p, field = u.poset, u.field
    return ElMorphism(
        ExactMatrix.identity(field, u.d0),
        {a: ExactMatrix.identity(field, u.cols(a)) for a in p.elements},
        {(b, a): ExactMatrix.zeros(field, u.cols(b), u.cols(a))
         for a in p.elements for b in p.sorted_subset(strict_lower_cone(p, a))},
    )


def are_isomorphic(u: MatrixRep, v: MatrixRep,
                   budget: int | None = None) -> ElMorphism | None:
    """An invertible morphism u -> v, or None.

    Invertibility of a morphism means all diagonal components (including the
    ambient one) are invertible; the triangular parts never obstruct.  Past
    two cheap exits (u == v, an invertible hom basis element) the decision
    is exact.  The trivial columns must agree, and each summand of rho(u) is
    paired with an unused summand of rho(v) of its dimension vector by the
    first invertible element of their hom basis; between isomorphic
    indecomposables the non-isomorphisms form a proper subspace.  The pairs
    assemble one ambient isomorphism, lifted by _lift_isomorphism.  budget
    bounds only the idempotent search of the two decompositions.
    """
    budget = resolve_budget(budget, DEFAULT_SEARCH_BUDGET)
    if u.poset != v.poset or u.field != v.field:
        return None
    if dimension_of(u) != dimension_of(v):
        return None
    if u == v:
        return _identity_morphism(u)
    for h in el_hom_basis(u, v):
        if h.is_invertible():
            return h
    reduced_u, trivials = split_trivial_columns(u)
    reduced_v, trivials_v = split_trivial_columns(v)
    if trivials != trivials_v:
        return None
    remaining = _split(rho(reduced_v), budget)
    sources, targets = [], []
    for w, inclusion in _split(rho(reduced_u), budget):
        dim = w.dimension_vector()
        match = next(((i, g.f) for i, (x, _) in enumerate(remaining)
                      if x.dimension_vector() == dim
                      for g in rep_hom_basis(w, x) if g.f.is_invertible()), None)
        if match is None:
            return None
        i, g = match
        sources.append(inclusion)
        targets.append(remaining.pop(i)[1] @ g)
    return _lift_isomorphism(u, v, hstack(targets) @ hstack(sources).inverse())


def _lift_isomorphism(u: MatrixRep, v: MatrixRep, f: ExactMatrix) -> ElMorphism:
    """The isomorphism u -> v with Φ(0) = f, an isomorphism of rho(u) onto
    rho(v), when u and v split off the same trivial columns.

    At each a the 0/1 matrix S sends u's trivial columns onto v's in order,
    and [lower'(a) | M'(a)]·X = f·M(a) − M'(a)·S is solved: the rows of X at
    v's trivial columns are 0, so Φ(a) = S + (the M'(a) rows of X) is block
    triangular with an invertible diagonal.  The lower'(a) rows give Φ(b, a).
    """
    p, field = u.poset, u.field
    diag, tri = {}, {}
    for a in p.elements:
        m, m_v, lower = u.blocks[a], v.blocks[a], stacked_lower_blocks(v, a, strict=True)
        kept, kept_v = _kept_columns(u, a), _independent_columns(lower, m_v)
        trivial = iter(j for j in range(m.cols) if j not in kept)
        match = {i: next(trivial) for i in range(m_v.cols) if i not in kept_v}
        S = ExactMatrix._of(field, m_v.cols, m.cols, tuple(
            tuple(field.one() if match.get(i) == j else field.zero() for j in range(m.cols))
            for i in range(m_v.cols)))
        X = solve_columns(hstack([lower, m_v]), f @ m - m_v @ S)
        if X is None:
            raise InvariantViolated("f does not carry rho(u) onto rho(v)")
        diag[a] = S + ExactMatrix._of(field, m_v.cols, m.cols, X.data[lower.cols:])
        row = 0
        for b in p.sorted_subset(strict_lower_cone(p, a)):
            n = v.cols(b)
            tri[(b, a)] = ExactMatrix._of(field, n, m.cols, X.data[row:row + n])
            row += n
    return ElMorphism(f, diag, tri)
