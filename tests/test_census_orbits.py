"""Census orbits on arrays, checked against the per-tuple flood and the
matrix-product generator action they replace."""

import ast
import math
import pathlib
import sys
import threading

import numpy as np
import pytest

import posetrep as pr
from posetrep import classify

from conftest import all_dimensions, burnside_point_tuple_orbits

F2, F3 = pr.GF(2), pr.GF(3)
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "posetrep"


def generator_matrix(space, gidx):
    """Generator gidx of space as an n x n matrix over F_p."""
    i, j, r = space.generators[gidx]
    g = [[int(a == b) for b in range(space.n)] for a in range(space.n)]
    g[i][j] = r if i == j else 1
    return g


def matrix_apply_generator(space, gidx, sid):
    """Reference oracle: the generator matrix applied to each echelon row of
    the subspace by a full matrix product."""
    g = generator_matrix(space, gidx)
    n, p = space.n, space.p
    rows = [tuple(sum(g[a][b] * row[b] for b in range(n)) % p for a in range(n))
            for row in space.basis_rows(sid)]
    return space._intern(space._rref(rows))


def flood_representatives(configs, space):
    """Reference oracle: flood each unseen configuration's orbit tuple by
    tuple, one generator move at a time; representatives in first-seen order."""
    config_set = set(configs)
    images = {}

    def move(g, sid):
        if (g, sid) not in images:
            images[g, sid] = space.apply_generator(g, sid)
        return images[g, sid]

    seen = set()
    reps = []
    for cfg in configs:
        if cfg in seen:
            continue
        reps.append(cfg)
        queue = [cfg]
        seen.add(cfg)
        while queue:
            cur = queue.pop()
            for g in range(len(space.generators)):
                nxt = tuple(move(g, sid) for sid in cur)
                if nxt not in seen:
                    if nxt not in config_set:
                        raise AssertionError("orbit left the configuration set")
                    seen.add(nxt)
                    queue.append(nxt)
    return reps


def census_configs(poset, d, p):
    """The configurations rep_iso_census enumerates for (poset, d, GF(p))."""
    order, rels = classify._canonical_support(poset, d)
    canon = pr.Poset([str(i) for i in range(len(order))], rels)
    dc = pr.DimensionVector(d.d0, {str(i): d.get(a) for i, a in enumerate(order)})
    space = classify._space(p, d.d0)
    return classify._enumerate_configs(canon, dc, space, classify.DEFAULT_ENUM_BUDGET), space


def cold():
    """Empty the census caches, so the next census is computed afresh."""
    classify._CENSUS_CACHE.clear()
    classify._SPACES.clear()


def antichain(m):
    return pr.build_poset([f"a{i}" for i in range(m)], [])


def ones(m, n):
    return pr.DimensionVector(n, {f"a{i}": 1 for i in range(m)})


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4),
                                 (3, 1), (3, 2), (3, 3)])
def test_column_operations_match_matrix_products(p, n):
    space = classify.SubspaceSpace(p, n)
    subspaces = [sid for k in range(n + 1) for sid in space.supersets(space.zero_id, k)]
    # every subspace of F_p^n: the Gaussian binomials summed over k
    assert len(subspaces) == {(2, 1): 2, (2, 2): 5, (2, 3): 16, (2, 4): 67,
                              (3, 1): 2, (3, 2): 6, (3, 3): 28}[p, n]
    for g in range(len(space.generators)):
        for sid in subspaces:
            assert space.apply_generator(g, sid) == matrix_apply_generator(space, g, sid), \
                (space.generators[g], space.basis_rows(sid))


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_generators_generate_gl(p, n):
    space = classify.SubspaceSpace(p, n)
    gens = [generator_matrix(space, g) for g in range(len(space.generators))]
    identity = tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = tuple(tuple(sum(g[a][c] * m[c][b] for c in range(n)) % p
                                   for b in range(n)) for a in range(n))
                if prod not in group:
                    group.add(prod)
                    nxt.append(prod)
        frontier = nxt
    assert len(group) == math.prod(p ** n - p ** k for k in range(n))


def test_count_readers_never_lift(a3, chain4, monkeypatch):
    jobs = [(poset, d, f) for poset in (a3, chain4) for d in all_dimensions(poset, 5)
            for f in (F2, F3)]

    def no_lift(*args, **kwargs):
        raise AssertionError("a count reader lifted a configuration")

    cold()
    with monkeypatch.context() as m:
        m.setattr(classify, "lift", no_lift)
        counts = [(pr.count_iso_classes(*job), pr.el_indecomposable_count(*job))
                  for job in jobs]
    cold()
    lifted = []
    for poset, d, f in jobs:
        census = pr.rep_iso_census(poset, d, f)
        n_ind = len(census.indecomposables) if d.d0 else \
            pr.el_indecomposable_count(poset, d, f)
        lifted.append((census.count, n_ind))
    assert counts == lifted
    assert sum(n for _, n in counts) > 30


def test_verify_lifts_only_first_field_roots(a3, monkeypatch):
    calls = []
    real_lift = classify.lift

    def counting_lift(*args, **kwargs):
        calls.append(args)
        return real_lift(*args, **kwargs)

    monkeypatch.setattr(classify, "lift", counting_lift)
    reports, failures = pr.verify_main_theorem(a3, 5, [F2, F3])
    assert failures == []
    roots = [r for r in reports if r.finite_type and r.is_root and r.dimension.d0]
    assert roots and len(calls) == len(roots)
    assert all(r.indecomposable is not None for r in roots)


@pytest.mark.parametrize("p", [2, 3])
def test_orbits_match_flood_on_small_posets(a3, chain4, p):
    checked = 0
    for poset in (a3, chain4):
        for d in all_dimensions(poset, 5):
            if d.d0 == 0:
                continue
            configs, space = census_configs(poset, d, p)
            assert classify._orbit_representatives(configs, space) == \
                flood_representatives(configs, space), d
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("m,n,p", [(4, 2, 2), (4, 2, 3), (5, 2, 2), (5, 2, 3),
                                   (4, 3, 2), (4, 3, 3), (5, 3, 2)])
def test_orbits_match_flood_on_antichains(m, n, p):
    configs, space = census_configs(antichain(m), ones(m, n), p)
    reps = classify._orbit_representatives(configs, space)
    assert reps == flood_representatives(configs, space)
    assert len(reps) == burnside_point_tuple_orbits(p, n, m)


def test_orbit_closure_violation_raises():
    space = classify._space(2, 2)
    lines = space.supersets(space.zero_id, 1)
    # two of the three lines of F_2^2: GL_2 moves one of them to the third
    with pytest.raises(pr.InvariantViolated):
        classify._orbit_representatives([(lines[0],), (lines[1],)], space)


def test_row_keys_exact_past_int64():
    rng = np.random.default_rng(7)
    base = rng.integers(0, 1 << 40, size=(100, 12))
    rows = base[rng.integers(0, len(base), size=400)]
    rows[::7, 5] += 1
    radix = np.prod([len(np.unique(c)) for c in rows.T], dtype=object)
    assert radix > 1 << 63
    coded = classify._RowKeys(rows)
    assert coded.keys.dtype == np.int64
    _, expected = np.unique(rows, axis=0, return_inverse=True)
    _, got = np.unique(coded.keys, return_inverse=True)
    # the same partition of the rows, and keys ordered like the distinct rows
    assert np.array_equal(got, expected.reshape(-1))
    # find: every row is found as an equal row; rows made of known column
    # values in a new combination, or of an unknown value, are not found
    hit = coded.find(rows)
    assert (hit >= 0).all() and np.array_equal(rows[hit], rows)
    mixed = rows[:50].copy()
    mixed[:, 11] = rows[50:100, 11]
    fresh = ~(mixed[:, None, :] == rows[None, :, :]).all(axis=2).any(axis=1)
    assert fresh.any()
    assert np.array_equal(coded.find(mixed) < 0, fresh)
    unknown = rows[:5].copy()
    unknown[:, 0] = -1
    assert (coded.find(unknown) == -1).all()


@pytest.mark.parametrize("p,expected", [(2, 25), (3, 26)])
def test_antichain_census_at_d0_three(p, expected):
    a4 = antichain(4)
    assert burnside_point_tuple_orbits(p, 3, 4) == expected
    assert pr.count_iso_classes(a4, ones(4, 3), pr.GF(p)) == expected


def test_census_threads_match_serial(a3, chain4):
    # four threads run every census from cold caches, two from the start of
    # the list and two from its middle, so pairs race on the same census
    # while the pairs share spaces
    jobs = [(poset, d, f) for poset in (a3, chain4) for d in all_dimensions(poset, 5)
            for f in (F2, F3)]

    def summary(c):
        return c.count, len(c.indecomposables)

    cold()
    serial = [summary(pr.rep_iso_census(*job)) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            cold()
            results = [[None] * len(jobs) for _ in range(4)]
            errors = []

            def worker(k):
                try:
                    for j in range(len(jobs)):
                        i = (j + k // 2 * len(jobs) // 2) % len(jobs)
                        results[k][i] = summary(pr.rep_iso_census(*jobs[i]))
                except Exception as exc:  # reported through the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert results == [serial] * 4
    finally:
        sys.setswitchinterval(interval)


def test_broken_invariant_raises(a3, monkeypatch):
    # no pivot, and a fallback that finds no indecomposable of a root: the
    # construction must raise, even under python -O
    monkeypatch.setattr(classify, "maximal_elements", lambda poset: [])
    monkeypatch.setattr(classify, "brute_force_indecomposables", lambda *a, **k: [])
    with pytest.raises(pr.InvariantViolated):
        classify._construct_sincere(a3, pr.DimensionVector(2, {"x": 1, "y": 1, "z": 1}),
                                    F2, "allow")


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == [], "checks must hold under python -O: " + ", ".join(found)
