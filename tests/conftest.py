"""Shared helpers: poset catalogs, random generators, small oracles."""

from __future__ import annotations

import itertools
import random

import pytest

import posetrep as pr
from posetrep.classify import _all_dimensions as all_dimensions  # noqa: F401
from posetrep.poset import Poset, canonical_key


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
            key = canonical_key(p)
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
