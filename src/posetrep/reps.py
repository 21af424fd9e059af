"""Block-matrix elements, subspace representations, and the functor between them.

An element over a poset S is one block M(a) per element, all sharing a row
count d0.  The associated representation assigns to a the column span of the
blocks at or below a.  Morphisms of elements are triangular families
Φ(0), Φ(a), Φ(ba) subject to  Φ(0)M(a) = M'(a)Φ(a) + Σ_{b≺a} M'(b)Φ(ba).
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
    hstack,
    resolve_budget,
    solve_columns,
    span_contains,
    _independent_columns,
)
from .poset import Poset, lower_cone, strict_lower_cone
from .tits import DimensionVector


# -- core containers ---------------------------------------------------------------


class MatrixRep:
    """Element of the block-matrix category: one d0 x d(a) block per element."""

    __slots__ = ("poset", "field", "d0", "blocks")

    def __init__(self, poset: Poset, field: FieldSpec, d0: int,
                 blocks: Mapping[str, ExactMatrix] | None = None):
        if d0 < 0:
            raise ValidationError("row count must be non-negative")
        blocks = dict(blocks or {})
        full = {}
        for a in poset.elements:
            m = blocks.pop(a, None)
            if m is None:
                m = ExactMatrix.zeros(field, d0, 0)
            if m.field != field:
                raise FieldMismatch(f"block {a!r} is over {m.field.label()}")
            if m.rows != d0:
                raise ValidationError(f"block {a!r} has {m.rows} rows, expected {d0}")
            full[a] = m
        if blocks:
            raise UnknownElement(f"blocks given for unknown elements {sorted(blocks)}")
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "blocks", full)

    def __setattr__(self, *args):
        raise AttributeError("MatrixRep is immutable")

    def block(self, a: str) -> ExactMatrix:
        self.poset.check_element(a)
        return self.blocks[a]

    def cols(self, a: str) -> int:
        return self.block(a).cols

    def key(self):
        return (self.d0, tuple((a, self.blocks[a].data, self.blocks[a].cols)
                               for a in self.poset.elements))

    def __eq__(self, other):
        return (
            isinstance(other, MatrixRep)
            and self.poset == other.poset
            and self.field == other.field
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.poset, self.field, self.key()))

    def __repr__(self):
        bits = ", ".join(f"{a}:{m.rows}x{m.cols}" for a, m in self.blocks.items())
        return f"MatrixRep(d0={self.d0}, {bits})"


def dimension_of(u: MatrixRep) -> DimensionVector:
    return DimensionVector(u.d0, {a: u.cols(a) for a in u.poset.elements})


def stacked_lower_blocks(u: MatrixRep, a: str, strict: bool = False) -> ExactMatrix:
    """The blocks M(b) for b ⪯ a (or b ≺ a) side by side, in element order."""
    cone = strict_lower_cone(u.poset, a) if strict else lower_cone(u.poset, a)
    mats = [ExactMatrix.zeros(u.field, u.d0, 0)]
    mats += [u.blocks[b] for b in u.poset.elements if b in cone]
    return hstack(mats)


class SubspaceRep:
    """Order-preserving assignment of subspaces of an ambient space.

    Basis matrices are canonicalized on construction, so two equal
    representations compare equal entrywise.
    """

    __slots__ = ("poset", "field", "ambient_dim", "subspaces")

    def __init__(self, poset: Poset, field: FieldSpec, ambient_dim: int,
                 subspaces: Mapping[str, ExactMatrix]):
        canon = {}
        for a in poset.elements:
            m = subspaces.get(a)
            if m is None:
                m = ExactMatrix.zeros(field, ambient_dim, 0)
            if m.rows != ambient_dim or m.field != field:
                raise ValidationError(f"subspace basis at {a!r} has the wrong shape/field")
            canon[a] = column_space_basis(m)
        for a, b in poset.relation_pairs():
            if not span_contains(canon[b], canon[a]):
                raise ValidationError(
                    f"not order preserving: V({a}) is not contained in V({b})"
                )
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "subspaces", canon)

    def __setattr__(self, *args):
        raise AttributeError("SubspaceRep is immutable")

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
        return (
            isinstance(other, SubspaceRep)
            and self.poset == other.poset
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and all(self.subspaces[a] == other.subspaces[a] for a in self.poset.elements)
        )

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
    return SubspaceRep(u.poset, u.field, u.d0, subs)


def lift(v: SubspaceRep) -> MatrixRep:
    """Canonical element with rho(lift(v)) = v.

    Block a holds the canonical basis columns of V(a) that complete
    Σ_{b≺a} V(b), greedily in index order: the pivot columns of V(a) in
    rref([Σ_{b≺a} V(b) | V(a)]).
    """
    blocks = {a: _independent_columns(v.below_sum(a), v.subspace(a))
              for a in v.poset.elements}
    return MatrixRep(v.poset, v.field, v.ambient_dim, blocks)


# -- distinguished elements -----------------------------------------------------------


def special_T(p: Poset, field: FieldSpec, a: str) -> MatrixRep:
    """Trivial element at a: zero rows, one column in block a."""
    p.check_element(a)
    return MatrixRep(p, field, 0, {a: ExactMatrix.zeros(field, 0, 1)})


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
    one = ExactMatrix.from_rows(field, [[1]])
    return MatrixRep(p, field, 1, {m: one for m in members})


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

    def scale(self, c) -> "ElMorphism":
        return ElMorphism(
            self.phi0.scale(c),
            {a: m.scale(c) for a, m in self.phi_diag.items()},
            {k: m.scale(c) for k, m in self.phi_tri.items()},
        )

    def __add__(self, other: "ElMorphism") -> "ElMorphism":
        return ElMorphism(
            self.phi0 + other.phi0,
            {a: m + other.phi_diag[a] for a, m in self.phi_diag.items()},
            {k: m + other.phi_tri[k] for k, m in self.phi_tri.items()},
        )


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
        return ExactMatrix(field, r, c,
                           [vec[off + i * c: off + (i + 1) * c] for i in range(r)])

    phi0 = grab("0", None, v.d0, u.d0)
    diag = {}
    tri = {}
    for kind, key, r, c in slots:
        if kind == "diag":
            diag[key] = grab(kind, key, r, c)
        elif kind == "tri":
            tri[key] = grab(kind, key, r, c)
    return ElMorphism(phi0, diag, tri)


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
    if not rows:
        system = ExactMatrix.zeros(field, 0, total)
    else:
        system = ExactMatrix(field, len(rows), total, rows)
    return [
        _vector_to_morphism(list(vec), u, v, slots, offsets)
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
    system = (ExactMatrix(field, len(rows), n_unknowns, rows)
              if rows else ExactMatrix.zeros(field, 0, n_unknowns))
    out = []
    for vec in system.nullspace_basis():
        out.append(RepMorphism(ExactMatrix(
            field, w.ambient_dim, v.ambient_dim,
            [vec[i * v.ambient_dim:(i + 1) * v.ambient_dim]
             for i in range(w.ambient_dim)])))
    return out


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
        blocks[a] = _independent_columns(stacked_lower_blocks(u, a, strict=True),
                                         u.blocks[a])
        dropped = u.cols(a) - blocks[a].cols
        if dropped:
            trivials[a] = dropped
    return MatrixRep(u.poset, u.field, u.d0, blocks), trivials


def _matrix_power_at_least(m: ExactMatrix, n: int) -> ExactMatrix:
    out = m
    e = 1
    while e < n:
        out = out @ out
        e *= 2
    return out


def _combination(basis: list, coeffs):
    """Σ c·b over the nonzero coefficients, or None when all are zero; for
    ExactMatrix and ElMorphism alike."""
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

    def inspect(f: ExactMatrix) -> ExactMatrix | None:
        if f.is_zero() or f == ident:
            return None
        if f @ f == f:
            return f
        g = _matrix_power_at_least(f, n)
        r = g.rank()
        if r == 0 or r == n:
            return None
        img = column_space_basis(g)
        ker_vecs = g.nullspace_basis()
        ker = ExactMatrix(field, n, len(ker_vecs),
                          [tuple(v[i] for v in ker_vecs) for i in range(n)])
        A = hstack([img, ker])
        diag = ExactMatrix(field, n, n, [
            [field.one() if (i == j and i < r) else field.zero() for j in range(n)]
            for i in range(n)
        ])
        e = A @ diag @ A.inverse()
        if e @ e != e:
            raise InvariantViolated("splitting element is not idempotent")
        return e

    for f in basis:
        e = inspect(f)
        if e is not None:
            return e
    for f, g in itertools.combinations(basis, 2):
        e = inspect(f + g)
        if e is not None:
            return e
    for f, g in itertools.permutations(basis, 2):
        e = inspect(f @ g)
        if e is not None:
            return e
    rng = random.Random(0xC0FFEE)
    if field.is_prime_field:
        for _ in range(64):
            cand = _combination(basis, [rng.randrange(field.p) for _ in basis])
            if cand is not None:
                e = inspect(cand)
                if e is not None:
                    return e
        if field.p ** len(basis) <= budget:
            for coeffs in itertools.product(range(field.p), repeat=len(basis)):
                cand = _combination(basis, coeffs)
                if cand is None or cand == ident:
                    continue
                if cand @ cand == cand:
                    return cand
            return None
        raise UndecidableAtBudget(
            f"endomorphism algebra of dimension {len(basis)} over {field.label()} "
            f"exceeds the idempotent search budget {budget}"
        )
    # rationals: the heuristics above are all we attempt
    for _ in range(64):
        cand = _combination(basis, [rng.randrange(-3, 4) for _ in basis])
        if cand is not None:
            e = inspect(cand)
            if e is not None:
                return e
    raise UndecidableAtBudget(
        "cannot certify indecomposability over the rationals at this size"
    )


def _restrict_rep(v: SubspaceRep, e: ExactMatrix) -> SubspaceRep:
    """Restriction of v to the image of the idempotent e, recoordinatized."""
    C = column_space_basis(e)
    subs = {}
    for a in v.poset.elements:
        image = e @ v.subspaces[a]
        coords = solve_columns(C, image)
        subs[a] = coords if coords is not None else ExactMatrix.zeros(v.field, C.cols, 0)
    return SubspaceRep(v.poset, v.field, C.cols, subs)


def rep_decompose(v: SubspaceRep, budget: int | None = None) -> list[SubspaceRep]:
    """Indecomposable summands of a subspace representation."""
    if v.ambient_dim == 0:
        return []
    basis = [m.f for m in rep_hom_basis(v, v)]
    e = _find_splitting_idempotent(basis, v.ambient_dim, v.field, budget)
    if e is None:
        return [v]
    comp = ExactMatrix.identity(v.field, v.ambient_dim) - e
    return rep_decompose(_restrict_rep(v, e), budget) + rep_decompose(
        _restrict_rep(v, comp), budget)


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
    v = rho(reduced)
    basis = [m.f for m in rep_hom_basis(v, v)]
    return _find_splitting_idempotent(basis, v.ambient_dim, v.field, budget) is None


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
    ambient one) are invertible; the triangular parts never obstruct.
    """
    budget = resolve_budget(budget, DEFAULT_SEARCH_BUDGET)
    if u.poset != v.poset or u.field != v.field:
        return None
    if dimension_of(u) != dimension_of(v):
        return None
    if u == v:
        return _identity_morphism(u)
    hom = el_hom_basis(u, v)
    for h in hom:
        if h.is_invertible():
            return h
    # basis scan suffices for indecomposables; otherwise match summands
    du = decompose(u, budget)
    dv = decompose(v, budget)
    if dict(du.trivials) != dict(dv.trivials):
        return None
    if len(du.pieces) != len(dv.pieces):
        return None
    if len(du.pieces) <= 1 and not du.trivials:
        return None  # both indecomposable; the basis scan was conclusive
    remaining = list(dv.pieces)
    for piece in du.pieces:
        match = next(
            (i for i, q in enumerate(remaining)
             if are_isomorphic(piece, q, budget) is not None),
            None,
        )
        if match is None:
            return None
        remaining.pop(match)
    # summands match, so an isomorphism exists; hunt for a certificate
    rng = random.Random(0xBEEF)
    if u.field.is_prime_field:
        for _ in range(4096):
            cand = _combination(hom, [rng.randrange(u.field.p) for _ in hom])
            if cand is not None and cand.is_invertible():
                return cand
        if u.field.p ** len(hom) <= 1 << 14:
            for coeffs in itertools.product(range(u.field.p), repeat=len(hom)):
                cand = _combination(hom, coeffs)
                if cand is not None and cand.is_invertible():
                    return cand
            return None  # exhaustive: genuinely no invertible morphism
        raise UndecidableAtBudget("summands match but no certificate was found")
    for _ in range(4096):
        cand = _combination(hom, [rng.randrange(-3, 4) for _ in hom])
        if cand is not None and cand.is_invertible():
            return cand
    raise UndecidableAtBudget("summands match but no certificate was found")
