"""Shared helpers: poset catalogs, random generators, small oracles, and the
order and morphism checks the tests make outside the library."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import posetrep as pr
from posetrep import classify
from posetrep import poset as poset_module
from posetrep.classify import _all_dimensions as all_dimensions  # noqa: F401
from posetrep.linalg import ExactMatrix, hstack
from posetrep.poset import Poset, canonical_form, strict_lower_cone


def all_posets_upto(n: int) -> list[Poset]:
    """One representative per isomorphism class of posets on <= n elements."""
    out = []
    seen = set()
    for size in range(1, n + 1):
        labels = [f"e{i}" for i in range(size)]
        pairs = list(itertools.combinations(range(size), 2))
        for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
            lt = [[False] * size for _ in range(size)]
            for (i, j), c in zip(pairs, choice):
                if c == 1:
                    lt[i][j] = True
                elif c == 2:
                    lt[j][i] = True
            if not _transitive(lt, size):
                continue
            p = Poset(labels, [(labels[i], labels[j])
                               for i in range(size) for j in range(size) if lt[i][j]])
            key = canonical_form(p)[0]
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def _transitive(lt, size) -> bool:
    for i in range(size):
        for j in range(size):
            if lt[i][j]:
                for k in range(size):
                    if lt[j][k] and not lt[i][k]:
                        return False
    return True


def is_chain(p: Poset, subset=None) -> bool:
    members = p.sorted_subset(subset) if subset is not None else p.elements
    return all(p.comparable(a, b) for a, b in itertools.combinations(members, 2))


def is_antichain(p: Poset, subset) -> bool:
    members = p.sorted_subset(subset)
    return all(not p.comparable(a, b) for a, b in itertools.combinations(members, 2))


def all_antichains(p: Poset) -> list[frozenset]:
    """Every antichain including the empty one."""
    out = [frozenset()]
    for r in range(1, len(p) + 1):
        out += [frozenset(c) for c in itertools.combinations(p.elements, r)
                if is_antichain(p, c)]
    return out


def chain_cover(p: Poset) -> list[tuple[str, ...]]:
    """Partition into width(p) chains (Dilworth), each listed bottom to top,
    by augmenting-path bipartite matching on the closed relation."""
    succ = {a: [b for b in p.elements if p.lt(a, b)] for a in p.elements}
    match_right: dict[str, str] = {}  # b -> a means a is followed by b in a chain
    match_left: dict[str, str] = {}

    def try_augment(a: str, seen: set[str]) -> bool:
        for b in succ[a]:
            if b in seen:
                continue
            seen.add(b)
            if b not in match_right or try_augment(match_right[b], seen):
                match_right[b] = a
                match_left[a] = b
                return True
        return False

    for a in p.elements:
        try_augment(a, set())
    chains = []
    for a in p.elements:
        if a not in match_right:  # a chain head
            chain = [a]
            while chain[-1] in match_left:
                chain.append(match_left[chain[-1]])
            chains.append(tuple(chain))
    return chains


def vstack(mats: list[ExactMatrix]) -> ExactMatrix:
    """The matrices stacked top to bottom (the constructor checks the widths)."""
    return ExactMatrix(mats[0].field, sum(m.rows for m in mats), mats[0].cols,
                       [row for m in mats for row in m.data])


def check_trusted_matrix(m: ExactMatrix):
    """m, built through _of, holds tuple rows of canonical entries (Fractions
    over Q) and equals the checked constructor's matrix on the same data."""
    assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)
    if m.field.p is None:
        assert all(type(x) is Fraction for row in m.data for x in row)
    assert m == ExactMatrix(m.field, m.rows, m.cols, m.data)


def block_diag(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    top = hstack([a, ExactMatrix.zeros(a.field, a.rows, b.cols)])
    bot = hstack([ExactMatrix.zeros(a.field, b.rows, a.cols), b])
    return vstack([top, bot])


def direct_sum(u: pr.MatrixRep, v: pr.MatrixRep) -> pr.MatrixRep:
    blocks = {a: block_diag(u.blocks[a], v.blocks[a]) for a in u.poset.elements}
    return pr.MatrixRep(u.poset, u.field, u.d0 + v.d0, blocks)


def nilpotent_graph(a4: Poset, field) -> pr.MatrixRep:
    """Four planes in F^4 on the 4-antichain w, x, y, z: <e0,e1>, <e2,e3>,
    <e0+e2,e1+e3> and <e0,e1+e2>, the graph of a nilpotent Jordan block.
    Its endomorphism algebra is local of dimension 2, spanned by the identity
    and a nilpotent, so the idempotent search runs through every stage."""
    columns = {"w": [[1, 0, 0, 0], [0, 1, 0, 0]], "x": [[0, 0, 1, 0], [0, 0, 0, 1]],
               "y": [[1, 0, 1, 0], [0, 1, 0, 1]], "z": [[1, 0, 0, 0], [0, 1, 1, 0]]}
    return pr.MatrixRep(a4, field, 4, {
        a: ExactMatrix.from_rows(field, [list(row) for row in zip(*cols)])
        for a, cols in columns.items()})


def el_morphism_satisfies(phi: pr.ElMorphism, u: pr.MatrixRep, v: pr.MatrixRep) -> bool:
    """The defining block equations of a morphism u -> v."""
    p = u.poset
    for a in p.elements:
        rhs = v.blocks[a] @ phi.phi_diag[a]
        for b in strict_lower_cone(p, a):
            rhs = rhs + v.blocks[b] @ phi.phi_tri[(b, a)]
        if phi.phi0 @ u.blocks[a] != rhs:
            return False
    return True


def add(phi: pr.ElMorphism, psi: pr.ElMorphism) -> pr.ElMorphism:
    """The sum of two morphisms between the same elements, block by block."""
    return pr.ElMorphism(phi.phi0 + psi.phi0,
                         {a: m + psi.phi_diag[a] for a, m in phi.phi_diag.items()},
                         {k: m + psi.phi_tri[k] for k, m in phi.phi_tri.items()})


def compose(psi: pr.ElMorphism, phi: pr.ElMorphism, poset: Poset) -> pr.ElMorphism:
    """psi after phi, with the triangular convolution on the lower parts."""
    diag = {a: psi.phi_diag[a] @ phi.phi_diag[a] for a in poset.elements}
    tri = {}
    for (b, a), m in phi.phi_tri.items():
        acc = psi.phi_tri[(b, a)] @ phi.phi_diag[a] + psi.phi_diag[b] @ m
        for c in strict_lower_cone(poset, a):
            if poset.lt(b, c):
                acc = acc + psi.phi_tri[(b, c)] @ phi.phi_tri[(c, a)]
        tri[(b, a)] = acc
    return pr.ElMorphism(psi.phi0 @ phi.phi0, diag, tri)


def random_element(poset: Poset, rng: random.Random, field=None,
                   d0max: int = 3, colmax: int = 2) -> pr.MatrixRep:
    field = field or pr.GF(2)
    d0 = rng.randint(0, d0max)
    blocks = {}
    for x in poset.elements:
        c = rng.randint(0, colmax)
        if c:
            blocks[x] = pr.ExactMatrix.from_rows(
                field, [[rng.randrange(field.p) for _ in range(c)] for _ in range(d0)])
    return pr.MatrixRep(poset, field, d0, blocks)


def matrix_indecomposables(poset: Poset, d: pr.DimensionVector,
                           field) -> list[pr.MatrixRep]:
    """Reference oracle for brute_force_indecomposables: enumerate every block
    matrix, keep those realizing d as a representation dimension, bucket them
    by are_isomorphic and keep the indecomposable classes.  Zero-row elements
    decompose into trivial summands, so at d0 = 0 the only indecomposable is a
    single trivial element."""
    if d.d0 == 0:
        vals = dict(d.values)
        if sorted(vals.values()) == [1]:
            (a, _), = vals.items()
            return [pr.special_T(poset, field, a)]
        return []
    total_cols = sum(d.get(a) for a in poset.elements)
    reps: list[pr.MatrixRep] = []
    for entries in itertools.product(range(field.p), repeat=d.d0 * total_cols):
        blocks = {}
        offset = 0
        for a in poset.elements:
            c = d.get(a)
            rows = [entries[offset + i * c: offset + (i + 1) * c] for i in range(d.d0)]
            blocks[a] = pr.ExactMatrix(field, d.d0, c, rows)
            offset += d.d0 * c
        u = pr.MatrixRep(poset, field, d.d0, blocks)
        if pr.rho(u).dimension_vector() != d:
            continue
        if any(pr.are_isomorphic(u, v) is not None for v in reps):
            continue
        reps.append(u)
    return [u for u in reps if pr.is_indecomposable(u)]


def burnside_point_tuple_orbits(p: int, n: int, m: int) -> int:
    """Orbit count of GL_n(F_p) on m-tuples of points of P^{n-1}(F_p), by
    Burnside's lemma: the mean over the group of (fixed points)^m."""
    vectors = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    points = {frozenset(tuple(c * x % p for x in v) for c in range(1, p)) for v in vectors}
    order = total = 0
    for entries in itertools.product(range(p), repeat=n * n):
        g = [entries[i * n:(i + 1) * n] for i in range(n)]
        fixed = 0
        for point in points:
            v = next(iter(point))
            gv = tuple(sum(gi[j] * v[j] for j in range(n)) % p for gi in g)
            if not any(gv):
                break  # g kills a point, so g is singular
            fixed += gv in point
        else:
            order += 1
            total += fixed ** m
    assert total % order == 0
    return total // order


@pytest.fixture(scope="session")
def poset_catalog():
    return all_posets_upto(5)


@pytest.fixture(scope="session")
def a3():
    return pr.build_poset(["x", "y", "z"], [])


@pytest.fixture(scope="session")
def a4():
    return pr.build_poset(["w", "x", "y", "z"], [])


@pytest.fixture(scope="session")
def chain4():
    return pr.build_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])


@pytest.fixture(scope="session")
def kposet():
    return pr.poset_K()


def cold():
    """Empty every module-level memo table: the census caches, the shared
    critical embeddings, the construction routes and the built roots, so the
    next census or construction is computed afresh.  The stabilizers and
    their tables live on the spaces and go with them."""
    classify._CENSUS_CACHE.clear()
    classify._SPACES.clear()
    classify._DERIVED.clear()
    classify._SUBORDINATE_ROOTS.clear()
    classify._ROOTS.clear()
    poset_module._EMBEDDINGS.clear()


def positive_roots(p):
    """Every nonzero d ≥ 0 with Q(d) = 1, on a representation-finite poset p.
    Q is then a weakly positive unit form, so each such d that is not a unit
    vector stays a root after lowering some entry by one (Ringel, LNM 1099),
    and adding unit vectors to the unit vectors reaches every one."""
    def dim(v):
        return pr.DimensionVector(v[0], dict(zip(p.elements, v[1:])))

    units = [tuple(int(i == j) for i in range(len(p) + 1)) for j in range(len(p) + 1)]
    seen, todo = set(units), list(units)
    while todo:
        v = todo.pop()
        for u in units:
            w = tuple(a + b for a, b in zip(v, u))
            if w not in seen and pr.is_root(p, dim(w)):
                seen.add(w)
                todo.append(w)
    return [dim(v) for v in sorted(seen)]


def form_on_box(p: Poset, bound: int):
    """Every vector of N^(n+1) with entries <= bound, d0 first and then one
    entry per element of p, as an array of shape (bound + 1,) * (n + 1) + (n + 1,),
    and the Tits form Q on each, computed here from its definition."""
    n = len(p)
    x = np.indices((bound + 1,) * (n + 1), dtype=np.int64)
    q = (x * x).sum(axis=0) - x[0] * x[1:].sum(axis=0)
    for a, b in p.relation_pairs():
        q += x[p.index(a) + 1] * x[p.index(b) + 1]
    return np.moveaxis(x, 0, -1), q


def minimal_vectors(mask: np.ndarray) -> np.ndarray:
    """The minimal points, in the product order, of a boolean mask on a box:
    those with no other point of the mask below them."""
    below = mask.copy()  # some point of the mask is <= this one
    for axis in range(mask.ndim):
        below = np.logical_or.accumulate(below, axis=axis)
    strictly = np.zeros_like(mask)
    for axis in range(mask.ndim):
        lower = [slice(None)] * mask.ndim
        upper = [slice(None)] * mask.ndim
        lower[axis], upper[axis] = slice(1, None), slice(None, -1)
        strictly[tuple(lower)] |= below[tuple(upper)]
    return mask & ~strictly
