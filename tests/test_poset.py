"""Poset construction and order-combinatorial queries."""

import collections
import itertools
import random

import pytest

import posetrep as pr
from posetrep import poset as poset_module
from posetrep.poset import Poset, canonical_form, critical_posets, order_embeddings

from conftest import (all_antichains, all_posets_upto, chain_cover, is_antichain, is_chain,
                      positive_roots)


def test_build_singleton():
    p = pr.build_poset(["x"], [])
    assert p.elements == ("x",)
    assert not p.lt("x", "x")


def test_build_chain_closure():
    p = pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.lt("a", "c")  # derived by transitivity
    assert p.lt("a", "b") and p.lt("b", "c")
    assert not p.lt("c", "a")


def test_build_cycle_rejected():
    with pytest.raises(pr.CycleDetected):
        pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_build_validation():
    with pytest.raises(pr.DuplicateLabel):
        pr.build_poset(["a", "a"], [])
    with pytest.raises(pr.UnknownElement):
        pr.build_poset(["a"], [("a", "b")])
    with pytest.raises(pr.CycleDetected):
        pr.build_poset(["a"], [("a", "a")])


def test_poset_rejects_relations_that_are_not_strict_orders():
    # a pair with its reverse is a cycle
    with pytest.raises(pr.CycleDetected):
        pr.Poset(["a", "b", "c"], [("a", "b"), ("b", "a")])
    # an unclosed relation would answer lt("a", "c") with False: Q(1; a:1, c:1)
    # would read 1 where build_poset on the same relations gives 2
    with pytest.raises(pr.ValidationError, match="build_poset"):
        pr.Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(pr.ValidationError):
        pr.Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    closed = pr.Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert closed == pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert pr.tits_value(closed, pr.DimensionVector(1, {"a": 1, "c": 1})) == 2


def test_labels_must_be_strings():
    """No dimension vector can name a label that is not a string, since its
    keys become strings: Poset and build_poset both reject such a label."""
    for elements in ([1, 2], ["a", None], [("a",)]):
        with pytest.raises(pr.ValidationError):
            pr.Poset(elements, [])
        with pytest.raises(pr.ValidationError):
            pr.build_poset(elements, [])
    with pytest.raises(pr.ValidationError):
        pr.build_poset([1, 2], [("1", "2")])
    p = pr.build_poset(["1", "2"], [("1", "2")])
    assert pr.tits_value(p, pr.DimensionVector(1, {1: 1, 2: 1})) == 2


def test_order_queries_match_relation_pairs():
    """Every order query equals its definition from the relation set."""
    for p in all_posets_upto(4) + list(critical_posets().values()):
        rel = p.relation_pairs()
        elems = set(p.elements)
        for a in p.elements:
            below = {b for b in elems if (b, a) in rel}
            above = {b for b in elems if (a, b) in rel}
            assert pr.strict_lower_cone(p, a) == below
            assert pr.lower_cone(p, a) == below | {a}
            assert pr.incomparables(p, a) == elems - below - above - {a}
            for b in p.elements:
                assert p.lt(a, b) == ((a, b) in rel)
                assert p.le(a, b) == (a == b or (a, b) in rel)
                assert p.comparable(a, b) == (a == b or (a, b) in rel or (b, a) in rel)
            for query in (p.lt, p.le, p.comparable):
                for x, y in ((a, "zz"), ("zz", a), ("zz", "zz")):
                    with pytest.raises(pr.UnknownElement):
                        query(x, y)
        assert pr.maximal_elements(p) == {a for a in elems
                                          if not any((a, b) in rel for b in elems)}
        for query in (pr.lower_cone, pr.strict_lower_cone, pr.incomparables):
            with pytest.raises(pr.UnknownElement):
                query(p, "zz")
        if len(p) <= 4:
            for r in range(len(p) + 1):
                for sub in itertools.combinations(p.elements, r):
                    q = pr.induced_subposet(p, sub)
                    assert q.elements == sub
                    assert q.relation_pairs() == {(a, b) for a, b in rel
                                                  if a in sub and b in sub}


def test_maximal_elements(kposet):
    chain = pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert pr.maximal_elements(chain) == {"c"}
    a4 = pr.build_poset(list("wxyz"), [])
    assert pr.maximal_elements(a4) == set("wxyz")
    assert pr.maximal_elements(kposet) == {"a1", "b1", "c4"}


def test_lower_cones(kposet):
    chain = pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert pr.lower_cone(chain, "c") == {"a", "b", "c"}
    assert pr.strict_lower_cone(chain, "c") == {"a", "b"}
    anti = pr.build_poset(["a", "b"], [])
    assert pr.lower_cone(anti, "a") == {"a"}
    assert pr.strict_lower_cone(anti, "a") == set()
    assert pr.lower_cone(kposet, "a1") == {"a1", "a2", "b2"}
    with pytest.raises(pr.UnknownElement):
        pr.lower_cone(chain, "zz")


def test_incomparables(kposet, a4):
    chain = pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    for x in chain.elements:
        assert pr.incomparables(chain, x) == set()
    assert pr.incomparables(kposet, "a1") == {"b1", "c1", "c2", "c3", "c4"}
    assert pr.incomparables(a4, "w") == {"x", "y", "z"}


def test_width(kposet, a4):
    chain5 = pr.build_poset(list("abcde"), [(x, y) for x, y in zip("abcd", "bcde")])
    assert pr.width(chain5)[0] == 1
    assert pr.width(a4)[0] == 4
    w, witness = pr.width(kposet)
    assert w == 3
    assert is_antichain(kposet, witness.members)
    # cross-check by exhaustive antichain enumeration
    assert max(len(a) for a in all_antichains(kposet)) == 3


def test_chain_cover(kposet, a4):
    cover = chain_cover(a4)
    assert sorted(cover) == [("w",), ("x",), ("y",), ("z",)]
    cover = chain_cover(kposet)
    assert {frozenset(c) for c in cover} == {
        frozenset({"a1", "a2"}), frozenset({"b1", "b2"}),
        frozenset({"c1", "c2", "c3", "c4"}),
    }
    chain = pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert chain_cover(chain) == [("a", "b", "c")]


def test_dilworth_duality(poset_catalog):
    for p in poset_catalog:
        cover = chain_cover(p)
        assert sorted(x for c in cover for x in c) == sorted(p.elements)
        for c in cover:
            assert is_chain(p, c)
        assert len(cover) == pr.width(p)[0]
        assert pr.width(p)[0] == max(len(a) for a in all_antichains(p))


def test_induced_subposet(kposet):
    four_chain = pr.induced_subposet(kposet, ["c1", "c2", "c3", "c4"])
    assert is_chain(four_chain)
    anti = pr.induced_subposet(kposet, ["a2", "b2", "c1"])
    assert all(not anti.comparable(x, y)
               for x, y in itertools.combinations(anti.elements, 2))
    empty = pr.induced_subposet(kposet, [])
    assert empty.elements == ()
    with pytest.raises(pr.UnknownElement):
        pr.induced_subposet(kposet, ["nope"])


def test_induced_subposet_restricts_tables(kposet, poset_catalog):
    """The restricted tables equal those a fully validated Poset builds."""
    checked = 0
    for p in [kposet, *poset_catalog]:
        for r in range(len(p) + 1):
            for sub in itertools.combinations(p.elements, r):
                q = pr.induced_subposet(p, reversed(sub))
                full = Poset(sub, [(a, b) for a, b in p.relation_pairs()
                                   if a in sub and b in sub])
                assert (q.elements, q._below, q._above, q._pairs, q._index) == \
                    (full.elements, full._below, full._above, full._pairs, full._index)
                assert q == full and hash(q) == hash(full)
                checked += 1
    assert checked == 256 + sum(2 ** len(p) for p in poset_catalog)


def test_critical_embeddings_t125():
    p125 = pr.primitive_poset(1, 2, 5)
    embs = pr.critical_subposet_embeddings(p125)
    assert len(embs) == 1
    assert embs[0].kind == "T125"
    assert embs[0].image() == set(p125.elements)


def test_critical_embeddings_chain():
    chain = pr.build_poset(list("abcdefgh"), [(x, y) for x, y in zip("abcdefg", "bcdefgh")])
    assert pr.critical_subposet_embeddings(chain) == []


def test_critical_embeddings_223():
    p223 = pr.primitive_poset(2, 2, 3)
    embs = pr.critical_subposet_embeddings(p223)
    assert {e.kind for e in embs} == {"T222"}
    images = {frozenset(e.image()) for e in embs}
    # dropping one element of the 3-chain, three ways
    assert images == {
        frozenset({"a1", "a2", "b1", "b2", "c1", "c2"}),
        frozenset({"a1", "a2", "b1", "b2", "c1", "c3"}),
        frozenset({"a1", "a2", "b1", "b2", "c2", "c3"}),
    }
    assert len(embs) == 18  # six automorphisms per image


def test_embeddings_preserve_and_reflect(poset_catalog):
    t222 = critical_posets()["T222"]
    for host in poset_catalog:
        if len(host) < 5:
            continue
        for emb in order_embeddings(t222, host):
            for x, y in itertools.permutations(t222.elements, 2):
                assert t222.lt(x, y) == host.lt(emb[x], emb[y])


def brute_embeddings(pattern, host):
    """Every injective map preserving and reflecting the strict order, in
    the order of itertools.permutations over the host's elements."""
    rel_p, rel_h = pattern.relation_pairs(), host.relation_pairs()
    pairs = [(i, j, (x, y) in rel_p) for i, x in enumerate(pattern.elements)
             for j, y in enumerate(pattern.elements)]
    out = []
    for image in itertools.permutations(host.elements, len(pattern)):
        if all(((image[i], image[j]) in rel_h) == lt for i, j, lt in pairs):
            out.append(dict(zip(pattern.elements, image)))
    return out


def test_order_embeddings_match_brute_force(poset_catalog):
    a4 = critical_posets()["A4"]
    for host in poset_catalog:
        assert order_embeddings(a4, host) == brute_embeddings(a4, host)
    t222 = critical_posets()["T222"]
    rng = random.Random(7)
    hosts = [t222, pr.primitive_poset(2, 2, 3), pr.primitive_poset(1, 2, 2, 2),
             pr.primitive_poset(6),
             pr.build_poset(("z",) + t222.elements,
                            [("z", x) for x in t222.elements] + list(t222.relation_pairs()))]
    for n in (6, 7):
        labels = [f"h{i}" for i in range(n)]
        pairs = [(x, y) for x, y in itertools.combinations(labels, 2) if rng.random() < 0.2]
        hosts.append(pr.build_poset(labels, pairs))
    for _ in range(3):  # T222 with a new minimal element below a random subset
        ups = [x for x in t222.elements if rng.random() < 0.5]
        hosts.append(pr.build_poset(("z",) + t222.elements,
                                    [("z", x) for x in ups] + list(t222.relation_pairs())))
    counts = []
    for host in hosts:
        got = order_embeddings(t222, host)
        assert got == brute_embeddings(t222, host)
        counts.append(len(got))
    assert counts[:5] == [6, 18, 6, 0, 6]  # automorphisms of T222 times images
    assert min(counts[-3:]) >= 6
    # the larger critical posets, on hosts of at most 8 points: K, the critical
    # posets (1,2,5) and (1,3,3), and (1,2,4) with a new point above a1 and b1,
    # which makes it a relabelled K
    p124 = pr.primitive_poset(1, 2, 4)
    hosts = [pr.poset_K(), pr.primitive_poset(1, 2, 5), pr.primitive_poset(1, 3, 3),
             pr.build_poset(p124.elements + ("z",),
                            [("a1", "z"), ("b1", "z")] + list(p124.relation_pairs()))]
    counts = {}
    for kind in ("T133", "T125", "K"):
        pattern = critical_posets()[kind]
        counts[kind] = []
        for host in hosts:
            got = order_embeddings(pattern, host)
            assert got == brute_embeddings(pattern, host)
            counts[kind].append(len(got))
    # K and (1,2,5) have no automorphism but the identity, (1,3,3) swaps its 3-chains
    assert counts == {"T133": [0, 0, 2, 0], "T125": [0, 1, 0, 0], "K": [1, 0, 0, 1]}


def test_equal_posets_share_one_embedding_search(monkeypatch):
    """Critical embeddings are kept per labelled order, so an equal poset built
    afresh, as derive_poset builds every derived poset, runs no search."""
    searches = collections.Counter()
    search = poset_module.order_embeddings

    def counting(pattern, host):
        searches[pattern.elements, pattern._below, host.elements, host._below] += 1
        return search(pattern, host)

    monkeypatch.setattr(poset_module, "_EMBEDDINGS", {})
    monkeypatch.setattr(poset_module, "order_embeddings", counting)
    first, second = pr.primitive_poset(2, 2, 3), pr.primitive_poset(2, 2, 3)
    assert first is not second and first == second
    embs = pr.critical_subposet_embeddings(first)
    ran = sum(searches.values())
    assert ran > 0 and len(embs) == 18
    assert pr.critical_subposet_embeddings(second) is embs
    assert sum(searches.values()) == ran

    # every root of (1,2,4): one search per pattern and distinct order, and
    # every element equal to the one built from a cold table
    p124, f2 = pr.primitive_poset(1, 2, 4), pr.GF(2)
    roots = positive_roots(p124)
    assert max(d.d0 for d in roots) == 6
    built = [pr.construct_indecomposable(p124, d, f2) for d in roots]
    assert max(searches.values()) == 1
    for d, u in zip(roots, built):
        poset_module._EMBEDDINGS.clear()
        assert u is not None and pr.construct_indecomposable(p124, d, f2) == u


def test_critical_embeddings_match_exhaustive_scan(poset_catalog):
    """Embedding enumeration agrees with an induced-subposet isomorphism scan."""
    targets = critical_posets()
    for host in poset_catalog:
        if len(host) != 5:
            continue
        found_images = {(e.kind, frozenset(e.image()))
                        for e in pr.critical_subposet_embeddings(host)}
        scan = set()
        for kind, pattern in targets.items():
            if len(pattern) > len(host):
                continue
            for combo in itertools.combinations(host.elements, len(pattern)):
                sub = pr.induced_subposet(host, combo)
                if canonical_form(sub)[0] == canonical_form(pattern)[0]:
                    scan.add((kind, frozenset(combo)))
        assert found_images == scan


def test_k_contains_only_itself(kposet):
    embs = pr.critical_subposet_embeddings(kposet)
    assert len(embs) == 1
    assert embs[0].kind == "K"
    assert embs[0].image_map == {a: a for a in kposet.elements}


def test_semidecomposable_two_chain():
    chain2 = pr.build_poset(["a", "b"], [("a", "b")])
    assert pr.is_semidecomposable(chain2) == (("b",), ("a",), ())


def test_semidecomposable_antichain():
    assert pr.is_semidecomposable(pr.build_poset(["x", "y"], [])) is None


def test_semidecomposable_case_two_fragment():
    p = pr.build_poset(
        ["a", "a2", "b", "b2", "b3"],
        [("a2", "a"), ("b2", "b"), ("b3", "b2"), ("a2", "b2"), ("b3", "a")],
    )
    s1, s2, s3 = pr.is_semidecomposable(p)
    assert set(s1) == {"a", "b", "b2"}
    assert set(s2) == {"a2", "b3"}
    assert s3 == ()


def test_semidecomposable_partition_is_valid(poset_catalog):
    for p in poset_catalog:
        got = pr.is_semidecomposable(p)
        if got is None:
            continue
        s1, s2, s3 = got
        assert s1 and s2
        assert is_chain(p, s3)
        assert sorted(s1 + s2 + s3) == sorted(p.elements)
        assert all(p.lt(b, a) for a in s1 for b in s2)


def test_cone_partition_invariant(poset_catalog):
    for p in poset_catalog:
        for a in p.elements:
            delta = pr.lower_cone(p, a)
            theta = pr.incomparables(p, a)
            above = {b for b in p.elements if p.lt(a, b)}
            assert delta & theta == set()
            assert delta | theta | above == set(p.elements)


def test_canonical_key_is_iso_invariant(a3):
    relabeled = pr.build_poset(["p", "q", "r"], [])
    assert canonical_form(a3)[0] == canonical_form(relabeled)[0]
    chain = pr.build_poset(["p", "q", "r"], [("p", "q"), ("q", "r")])
    assert canonical_form(a3)[0] != canonical_form(chain)[0]
    # every poset on at most 4 points, with nonconstant weights, under every
    # relabelling that also reorders the element list
    keys = set()
    for p in all_posets_upto(4):
        n = len(p)
        weights = {a: i % 3 + 1 for i, a in enumerate(p.elements)}
        key, order = canonical_form(p, weights)
        assert sorted(order) == sorted(p.elements)
        pos = {a: i for i, a in enumerate(order)}
        assert key == (n, (tuple(sorted((pos[a], pos[b]) for a, b in p.relation_pairs())),
                           tuple(weights[a] for a in order)))
        for perm in itertools.permutations(range(n)):
            name = {a: f"v{perm[i]}" for i, a in enumerate(p.elements)}
            q = pr.Poset(sorted(name.values()),
                         [(name[a], name[b]) for a, b in p.relation_pairs()])
            q_key, q_order = canonical_form(q, {name[a]: w for a, w in weights.items()})
            assert q_key == key, (p, perm)
            assert sorted(q_order) == sorted(q.elements)
        keys.add(key)
    assert len(keys) == 1 + 2 + 5 + 16


def test_poset_catalog_counts(poset_catalog):
    by_size = {}
    for p in poset_catalog:
        by_size[len(p)] = by_size.get(len(p), 0) + 1
    assert by_size == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}
