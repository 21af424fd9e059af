"""The census on its first element's fibre, with stabilizer orbits on arrays,
checked against the full enumeration, the per-tuple flood and matrix-product
generator actions."""

import ast
import itertools
import math
import pathlib
import random
import sys
import threading

import numpy as np
import pytest

import posetrep as pr
from posetrep import classify
from posetrep.linalg import rref

from conftest import all_dimensions, burnside_point_tuple_orbits, cold

F2, F3 = pr.GF(2), pr.GF(3)
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "posetrep"


def generator_matrix(group, g):
    """Generator g of a stabilizer as an n x n matrix on row vectors:
    I + c E_ji for its column operation (i, j, c), x_i += c x_j."""
    i, j, c = group.generators[g]
    n, p = group.space.n, group.space.p
    return [[(int(a == b) + c * (a == j and b == i)) % p for b in range(n)] for a in range(n)]


def elementary_gl_matrices(n, p):
    """The elementary generators of GL_n(F_p) on row vectors, x_i += x_j and
    x_0 scaled by a generator of F_p^*, built without the library."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                m = [[int(a == b) for b in range(n)] for a in range(n)]
                m[j][i] = 1
                gens.append(m)
    if p > 2 and n:
        r = next(g for g in range(2, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
        m = [[int(a == b) for b in range(n)] for a in range(n)]
        m[0][0] = r
        gens.append(m)
    return gens


def matrix_apply(space, matrix, sid):
    """Reference oracle: the matrix applied to each echelon row of the
    subspace by a full matrix product, re-reduced and interned."""
    n, p = space.n, space.p
    rows = [tuple(sum(row[a] * matrix[a][b] for a in range(n)) % p for b in range(n))
            for row in space.basis_rows(sid)]
    reduced, _ = rref(rows, n, p)
    return space._intern(tuple(map(tuple, reduced)))


def matrix_apply_generator(group, g, sid):
    """Reference oracle: stabilizer generator g applied to the subspace by a
    full matrix product."""
    return matrix_apply(group.space, generator_matrix(group, g), sid)


def group_order(gens, n, p):
    """The order of the group the matrices generate, by closing the identity
    under right multiplication, all products of a round at once."""
    gens = np.array(gens, dtype=np.int64).reshape(-1, n, n)
    weights = p ** np.arange(n * n, dtype=np.int64)
    frontier = np.eye(n, dtype=np.int64)[None]
    seen = frontier.reshape(1, -1) @ weights
    while len(frontier):
        prods = (frontier[:, None] @ gens[None] % p).reshape(-1, n, n)
        codes, first = np.unique(prods.reshape(len(prods), n * n) @ weights, return_index=True)
        new = ~np.isin(codes, seen)
        frontier = prods[first[new]]
        seen = np.union1d(seen, codes[new])
    return len(seen)


def gl_order(n, p):
    return math.prod(p ** n - p ** k for k in range(n))


def gaussian_binomial(n, k, p):
    return math.prod(p ** (n - i) - 1 for i in range(k)) // \
        math.prod(p ** (i + 1) - 1 for i in range(k))


def flood_representatives(configs, space):
    """Reference oracle: flood each unseen configuration's orbit under the
    elementary generators of GL(d0), tuple by tuple and one matrix product at
    a time; representatives in first-seen order."""
    gens = elementary_gl_matrices(space.n, space.p)
    config_set = set(configs)
    images = {}

    def move(g, sid):
        if (g, sid) not in images:
            images[g, sid] = matrix_apply(space, gens[g], sid)
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
            for g in range(len(gens)):
                nxt = tuple(move(g, sid) for sid in cur)
                if nxt not in seen:
                    if nxt not in config_set:
                        raise AssertionError("orbit left the configuration set")
                    seen.add(nxt)
                    queue.append(nxt)
    return reps


def enumerate_configs(poset, d, space):
    """Reference oracle: every subspace assignment realizing d exactly
    (quotient dimensions), minimal elements first, in the census's order."""
    elems = poset.elements
    below = {a: [b for b in elems if poset.lt(b, a)] for a in elems}
    order = sorted(elems, key=lambda a: (len(below[a]), poset.index(a)))
    out = []
    assignment = {}

    def rec(i):
        if i == len(order):
            out.append(tuple(assignment[a] for a in elems))
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


def canonical(poset, d):
    """The canonical support poset and dimension the census of d runs on."""
    weights = tuple(d.get(a) for a in poset.elements)
    order, below, values = classify._canonical_support(poset, weights)
    labels = [str(i) for i in range(len(order))]
    canon = pr.Poset(labels, [(labels[i], labels[j]) for j, mask in enumerate(below)
                              for i in range(len(below)) if mask >> i & 1])
    assert canon._below == below  # the memoized masks are a closed order
    dc = pr.DimensionVector(d.d0, {str(i): d.get(a) for i, a in enumerate(order)})
    assert tuple(dc.get(a) for a in labels) == values  # and the key's weights
    return canon, dc


def census_key(poset, d, p):
    """The census cache key of d over GF(p): (below masks, d0, weights, p)."""
    canon, dc = canonical(poset, d)
    return canon._below, d.d0, tuple(dc.get(a) for a in canon.elements), p


def census_configs(poset, d, p):
    """Every configuration of (poset, d, GF(p)), by the full enumeration, and
    its space."""
    canon, dc = canonical(poset, d)
    space = classify._space(p, d.d0)
    return enumerate_configs(canon, dc, space), space


def check_fibre_census(poset, d, p):
    """The full enumeration and the flood against the fibre census: the same
    representatives in the same order, count and n_configs.  Returns the
    representatives."""
    configs, space = census_configs(poset, d, p)
    reps = flood_representatives(configs, space)
    key = census_key(poset, d, p)
    fibre, group, m = classify._enumerate_fibre(key[0], key[2], space,
                                                classify.DEFAULT_ENUM_BUDGET)
    assert fibre == configs[:len(fibre)] and len(fibre) * m == len(configs), d
    assert classify._orbit_representatives(fibre, group) == reps, d
    core = classify._cold_census(key, classify.DEFAULT_ENUM_BUDGET)
    assert (core.count, core.n_configs) == (len(reps), len(configs)), d
    rows = [tuple(map(space.basis_rows, c)) for c in reps]
    assert list(core.indec_configs) == [r for r in rows if r in core.indec_configs], d
    return reps


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
    for k in range(n + 1):
        group = space.stabilizer(k)
        s = group.fixed
        assert space.basis_rows(s) == tuple(tuple(int(a == b) for a in range(n))
                                            for b in range(k))
        for g in range(len(group.generators)):
            assert group.apply(g, s) == matrix_apply_generator(group, g, s) == s
            for sid in subspaces:
                assert group.apply(g, sid) == matrix_apply_generator(group, g, sid), \
                    (group.generators[g], space.basis_rows(sid))


def all_subspaces(p, n):
    """Reference oracle: every subspace of F_p^n as its reduced echelon rows,
    the spans of ever longer tuples of vectors, without SubspaceSpace."""
    vectors = list(itertools.product(range(p), repeat=n))
    found = frontier = {()}
    while frontier:
        frontier = {tuple(map(tuple, rref([*rows, v], n, p)[0]))
                    for rows in frontier for v in vectors} - found
        found = found | frontier
    return found


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4),
                                 (3, 1), (3, 2), (3, 3)])
def test_supersets_match_spans_in_echelon_order(p, n):
    # every subspace interned first in reverse echelon order, so ids run
    # against the order supersets must keep
    subspaces = sorted(all_subspaces(p, n), key=lambda rows: (rref(rows, n, p)[1], rows))
    space = classify.SubspaceSpace(p, n)
    ids = {rows: space._intern_span(rows) for rows in reversed(subspaces)}
    for s in subspaces:
        for k in range(n - len(s) + 1):
            got = [space.basis_rows(sid) for sid in space.supersets(ids[s], k)]
            want = [t for t in subspaces if len(t) == len(s) + k
                    and tuple(map(tuple, rref([*t, *s], n, p)[0])) == t]
            assert sorted(got) == sorted(want), (s, k)
            assert got == want, (s, k)
    for k in range(n + 1):
        assert space.basis_rows(space.supersets(space.zero_id, k)[0]) == \
            tuple(tuple(int(a == b) for a in range(n)) for b in range(k))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_generators_generate_gl(p, n):
    # at k = 0 and k = n the stabilizer is GL_n itself; at every k its order
    # is |GL_n| over the number of k-subspaces, by orbit-stabilizer
    space = classify.SubspaceSpace(p, n)
    assert group_order(elementary_gl_matrices(n, p), n, p) == gl_order(n, p)
    for k in range(n + 1):
        group = space.stabilizer(k)
        gens = [generator_matrix(group, g) for g in range(len(group.generators))]
        assert group_order(gens, n, p) == gl_order(n, p) // gaussian_binomial(n, k, p)


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
            check_fibre_census(poset, d, p)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("p", [2, 3])
def test_fibre_edge_cases(a3, p):
    # the first element wider than the space: an empty fibre and no class;
    # an empty support with d0 > 0: one configuration, and its one class
    for d, count in ((pr.DimensionVector(1, {"x": 2}), 0),
                     (pr.DimensionVector(2, {"x": 3, "y": 1}), 0),
                     (pr.DimensionVector(2, {}), 1),
                     (pr.DimensionVector(1, {}), 1)):
        assert len(check_fibre_census(a3, d, p)) == count
        cold()
        core, _ = classify._census_lookup(a3, d, pr.GF(p), None)
        assert (core.count, core.n_configs) == (count, count)
        assert pr.count_iso_classes(a3, d, pr.GF(p)) == count


@pytest.mark.parametrize("m,n,p", [(4, 2, 2), (4, 2, 3), (5, 2, 2), (5, 2, 3),
                                   (4, 3, 2), (4, 3, 3), (5, 3, 2)])
def test_orbits_match_flood_on_antichains(m, n, p):
    reps = check_fibre_census(antichain(m), ones(m, n), p)
    assert len(reps) == burnside_point_tuple_orbits(p, n, m)


def test_orbit_closure_violation_raises():
    space = classify.SubspaceSpace(2, 2)
    lines = space.supersets(space.zero_id, 1)
    # two of the three lines of F_2^2: GL_2 moves one of them to the third
    with pytest.raises(pr.InvariantViolated):
        classify._orbit_representatives([(lines[0],), (lines[1],)], space.stabilizer(0))
    # a fibre over the first line, span(e_0), missing a configuration: its
    # stabilizer moves the second line to the third
    assert space.stabilizer(1).fixed == lines[0]
    with pytest.raises(pr.InvariantViolated):
        classify._orbit_representatives([(lines[0], lines[1]), (lines[0], lines[0])],
                                        space.stabilizer(1))


def test_fibre_fixed_at_the_coordinate_span():
    # a space that interned span(e_0 + e_1) before any other line: the fibre
    # still fixes the first element to span(e_0), which still leads the
    # lines, and the census still counts the classes the full enumeration has
    cold()
    try:
        space = classify._space(2, 2)
        space._intern_span([[1, 1]])
        canon, dc = canonical(antichain(3), ones(3, 2))
        key = census_key(antichain(3), ones(3, 2), 2)
        fibre, group, m = classify._enumerate_fibre(key[0], key[2], space,
                                                    classify.DEFAULT_ENUM_BUDGET)
        first = space._intern_span([[1, 0]])
        assert space.supersets(space.zero_id, 1)[0] == first
        assert fibre and {cfg[0] for cfg in fibre} == {first}
        assert group.fixed == first and m == 3
        assert classify._cold_census(key, classify.DEFAULT_ENUM_BUDGET).count == \
            len(flood_representatives(enumerate_configs(canon, dc, space), space)) == \
            burnside_point_tuple_orbits(2, 2, 3)
    finally:
        cold()


def test_census_independent_of_interning_history(a3, a4):
    # each scramble interns random subspaces in five spaces before verify
    # runs: the reports, printed indecomposables included, are the cold ones
    posets = [a3, a4, pr.primitive_poset(1, 1, 2)]

    def reports(poset):
        return pr.verify_main_theorem(poset, 5, [F2, F3])

    try:
        expected = []
        for poset in posets:
            cold()
            expected.append(reports(poset))
        for seed in range(8):
            for poset, cold_reports in zip(posets, expected):
                cold()
                rng = random.Random(seed)
                for p, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
                    space = classify._space(p, n)
                    for _ in range(20):
                        space._intern_span([[rng.randrange(p) for _ in range(n)]
                                            for _ in range(rng.randint(1, n))])
                assert reports(poset) == cold_reports, (seed, poset.elements)
    finally:
        cold()


@pytest.mark.parametrize("p,expected", [(2, 25), (3, 26)])
def test_antichain_census_at_d0_three(p, expected):
    five = {2: 131, 3: 156}[p]
    for m, count in ((4, expected), (5, five)):
        assert burnside_point_tuple_orbits(p, 3, m) == count
        assert pr.count_iso_classes(antichain(m), ones(m, 3), pr.GF(p)) == count


def test_census_threads_match_serial(a3, chain4):
    # four threads run every census and construct every root from cold
    # caches, two from the start of the list and two from its middle, so
    # pairs race on the same census while the pairs share spaces and posets
    censuses = [(poset, d, f) for poset in (a3, chain4) for d in all_dimensions(poset, 5)
                for f in (F2, F3)]
    roots = [(poset, d, f) for poset, d, f in censuses
             if pr.is_finite_type(poset, d) and pr.tits_value(poset, d) == 1]

    def summary(c):
        return c.count, len(c.indecomposables)

    jobs = [lambda job=job: summary(pr.rep_iso_census(*job)) for job in censuses]
    jobs += [lambda job=job: pr.construct_indecomposable(*job) for job in roots]

    cold()
    serial = [job() for job in jobs]
    assert sum(u is not None for u in serial[len(censuses):]) == len(roots) > 30
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
                        results[k][i] = jobs[i]()
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
    # a root with no pivot, or with a subordinate dimension not below it: the
    # construction must raise, even under python -O.  Start cold, or the
    # route an earlier test stored for a3 stands in for the patched call.
    cold()
    d = pr.DimensionVector(2, {"x": 1, "y": 1, "z": 1})
    with monkeypatch.context() as m:
        m.setattr(classify, "maximal_elements", lambda poset: [])
        with pytest.raises(pr.ConstructionFailed):
            pr.construct_indecomposable(a3, d, F2)
    monkeypatch.setattr(classify, "subordinate_dimensions", lambda context, dim: [dim])
    with pytest.raises(pr.InvariantViolated):
        pr.construct_indecomposable(a3, d, F2)


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == [], "checks must hold under python -O: " + ", ".join(found)
