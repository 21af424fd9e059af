"""Counting oracles, constructor, and the verification harness."""

import collections
import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import pytest

import posetrep as pr
from posetrep import classify
from posetrep.cli import main
from posetrep.poset import Poset

from conftest import (all_dimensions, cold, form_on_box, matrix_indecomposables,
                      positive_roots)

F2, F3 = pr.GF(2), pr.GF(3)
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def D(d0, **vals):
    return pr.DimensionVector(d0, vals)


def test_count_trivial_cases(a3):
    assert pr.count_iso_classes(a3, D(0), F2) == 1
    assert pr.count_iso_classes(a3, D(0, x=1), F2) == 0
    assert pr.count_iso_classes(a3, D(1), F2) == 1
    # d(a) larger than the ambient dimension leaves nothing
    assert pr.count_iso_classes(a3, D(1, x=2), F2) == 0


def test_count_two_antichain_unit():
    a2 = pr.build_poset(["x", "y"], [])
    assert pr.count_iso_classes(a2, D(1, x=1, y=1), F2) == 1
    found = pr.brute_force_indecomposables(a2, D(1, x=1, y=1), F2)
    assert len(found) == 1
    pair = pr.antichain_unit_element(a2, F2, ["x", "y"])
    assert pr.are_isomorphic(found[0], pair) is not None


def test_el_count_trivial_dimensions(a3):
    assert pr.el_indecomposable_count(a3, D(0, x=1), F2) == 1  # the trivial element
    assert pr.el_indecomposable_count(a3, D(0, x=2), F2) == 0
    assert pr.el_indecomposable_count(a3, D(0, x=1, y=1), F2) == 0
    assert pr.el_indecomposable_count(a3, D(1), F2) == 1  # ambient-only element


@pytest.mark.parametrize("d0", [0, 1])
def test_census_entry_points_validate_alike(d0):
    a2 = pr.build_poset(["a", "b"], [])
    entry_points = (pr.rep_iso_census, pr.count_iso_classes, pr.el_indecomposable_count,
                    pr.brute_force_indecomposables)
    for entry in entry_points:
        for bad in (D(d0, zzz=1), D(d0, a=1, zzz=2)):
            with pytest.raises(pr.UnknownElement):
                entry(a2, bad, F2)
        with pytest.raises(pr.FieldTooRestrictive):
            entry(a2, D(d0, a=1), pr.QQ)
        for negative in (D(d0, a=-1), D(d0 + 2, a=-1), D(d0, a=1, b=-1), D(-2, a=1),
                         D(-d0 - 1)):
            with pytest.raises(pr.ValidationError):
                entry(a2, negative, F2)
    assert (2, -2) not in classify._SPACES
    with pytest.raises(pr.ValidationError):
        pr.construct_indecomposable(a2, D(d0, a=-1), F2)


def test_brute_force_three_lines(a3):
    found = pr.brute_force_indecomposables(a3, D(2, x=1, y=1, z=1), F2)
    assert len(found) == 1
    assert pr.end_dimension(found[0]) == 1


def test_brute_force_methods_agree(a3, chain4):
    """The literal matrix enumeration and the configuration census coincide."""
    a2 = pr.build_poset(["x", "y"], [])
    chain2 = pr.build_poset(["a", "b"], [("a", "b")])
    vee = pr.build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    cases = []
    for p in (a2, chain2, vee, a3):
        for d in all_dimensions(p, 4):
            total = sum(d.get(x) for x in p.elements)
            for f in (F2, F3):
                if f.p ** (d.d0 * total) <= 3 ** 7:
                    cases.append((p, d, f))
    assert len(cases) > 100
    for p, d, f in cases:
        slow = matrix_indecomposables(p, d, f)
        fast = pr.brute_force_indecomposables(p, d, f)
        assert len(slow) == len(fast), (p.elements, d, f.label())
        remaining = list(fast)
        for u in slow:
            idx = next(i for i, v in enumerate(remaining)
                       if pr.are_isomorphic(u, v) is not None)
            remaining.pop(idx)
        assert not remaining


def test_census_cache_respects_budget(a4):
    """A census answers only callers whose budget covers its enumeration: all
    256 configurations of (2; 1, 1, 1, 1) over GF(3), not the 64 of the
    fibre it runs on, cold or cached."""
    d = D(2, w=1, x=1, y=1, z=1)
    fibre, _, m = classify._enumerate_fibre(a4._below, [d.get(a) for a in a4.elements],
                                            classify._space(3, 2), classify.DEFAULT_ENUM_BUDGET)
    assert (len(fibre), m) == (64, 4)
    classify._CENSUS_CACHE.clear()
    with pytest.raises(pr.BudgetExceeded):
        pr.count_iso_classes(a4, d, F3, budget=100)
    assert not classify._CENSUS_CACHE  # stopped inside the enumeration
    assert pr.count_iso_classes(a4, d, F3) == 15
    core, _ = classify._census_lookup(a4, d, F3, None)
    assert core.n_configs == 256
    for budget in (10, 100, 255):
        with pytest.raises(pr.BudgetExceeded):
            pr.count_iso_classes(a4, d, F3, budget=budget)
    assert pr.count_iso_classes(a4, d, F3, budget=256) == 15


def test_brute_force_rejects_rationals(a3):
    with pytest.raises(pr.FieldTooRestrictive):
        pr.brute_force_indecomposables(a3, D(1, x=1), pr.QQ)


def test_construct_three_lines(a3):
    u = pr.construct_indecomposable(a3, D(2, x=1, y=1, z=1), F2)
    assert u.blocks["x"].data == ((1,), (0,))
    assert u.blocks["y"].data == ((0,), (1,))
    assert u.blocks["z"].data == ((1,), (1,))
    assert pr.is_indecomposable(u)


def test_construct_over_rationals(a3):
    u = pr.construct_indecomposable(a3, D(2, x=1, y=1, z=1), pr.QQ)
    assert u.field == pr.QQ
    assert pr.end_dimension(u) == 1


def test_construct_rejects_infinite_type(a4):
    with pytest.raises(pr.NotFiniteType):
        pr.construct_indecomposable(a4, D(2, w=1, x=1, y=1, z=1), F2)


def test_construct_non_root_returns_none(a3):
    assert pr.construct_indecomposable(a3, D(2, x=1, y=1), F2) is None  # Q = 2
    assert pr.construct_indecomposable(a3, D(3, x=1, y=1, z=1), F2) is None  # Q = 3


def test_construct_base_cases(a3):
    single = pr.build_poset(["a"], [])
    e = pr.construct_indecomposable(single, D(1, a=1), F2)
    assert pr.are_isomorphic(e, pr.antichain_unit_element(single, F2, ["a"])) is not None
    t = pr.construct_indecomposable(a3, D(0, x=1), F2)
    assert pr.dimension_of(t) == D(0, x=1)
    t0 = pr.construct_indecomposable(a3, D(1), F2)
    assert pr.dimension_of(t0) == D(1)


def test_construction_uses_no_census(a3, chain4, kposet, monkeypatch):
    def no_census(*args, **kwargs):
        raise AssertionError("construction reached a census")

    for name in ("brute_force_indecomposables", "rep_iso_census", "_census_lookup",
                 "_census_of"):
        monkeypatch.setattr(classify, name, no_census)
    posets = (a3, chain4, pr.primitive_poset(1, 1, 2),
              pr.induced_subposet(kposet, ["a1", "a2", "b1", "b2", "c1"]))
    built = 0
    for poset in posets:
        for d in all_dimensions(poset, 6):
            if not pr.is_finite_type(poset, d) or pr.tits_value(poset, d) != 1:
                continue
            for field in (pr.QQ, F2, F3):
                u = pr.construct_indecomposable(poset, d, field)
                assert pr.dimension_of(u) == d and u.field == field
                built += 1
    assert built == 3 * 66


def test_equal_posets_share_one_route(monkeypatch):
    """Derived posets and subordinate roots are kept per labelled order, so
    equal posets and all three fields share one derivation per pivot and one
    subordinate list per (pivot, dimension); each element stays over the
    caller's poset and equals the one built from cold tables, also on a
    poset with the same labels in another order."""
    derived, subordinate = collections.Counter(), collections.Counter()
    derive, subordinates = classify.derive_poset, classify.subordinate_dimensions

    def counting_derive(p, a):
        derived[p.elements, p._below, a] += 1
        return derive(p, a)

    def counting_subordinates(context, d):
        base = context.base
        subordinate[base.elements, base._below, context.pivot, d] += 1
        return subordinates(context, d)

    monkeypatch.setattr(classify, "_DERIVED", {})
    monkeypatch.setattr(classify, "_SUBORDINATE_ROOTS", {})
    monkeypatch.setattr(classify, "_ROOTS", {})
    monkeypatch.setattr(classify, "derive_poset", counting_derive)
    monkeypatch.setattr(classify, "subordinate_dimensions", counting_subordinates)
    first, second = pr.primitive_poset(1, 2, 4), pr.primitive_poset(1, 2, 4)
    assert first is not second and first == second
    roots = [d for d in positive_roots(first) if d.d0 > 1]  # the derived ones
    top = max(roots, key=lambda d: d.total())
    u = pr.construct_indecomposable(first, top, F2)
    ran = sum(derived.values())
    assert ran > 1 and u.poset is first
    w = pr.construct_indecomposable(second, top, F2)
    assert w == u and w.poset is second and sum(derived.values()) == ran

    # the dual order has the same labels and the same maximal a1, but other
    # derived posets: a key without the order would hand it those of first
    dual = pr.build_poset(first.elements, [(b, a) for a, b in first.relation_pairs()])
    jobs = [(first, d, f) for d in roots for f in (pr.QQ, F2, F3)]
    jobs += [(dual, d, F2) for d in positive_roots(dual) if d.d0 > 1]
    built = [pr.construct_indecomposable(*job) for job in jobs]
    assert max(derived.values()) == 1 and max(subordinate.values()) == 1
    for job, u in zip(jobs, built):
        classify._DERIVED.clear()
        classify._SUBORDINATE_ROOTS.clear()
        classify._ROOTS.clear()
        assert u is not None and pr.construct_indecomposable(*job) == u


def test_roots_built_once_per_support_order(monkeypatch):
    """A finite-type root has one indecomposable, so it is built once per
    labelled support order, dimension and field: the roots of (1,2,2) are
    roots of (1,2,4) on the same labelled support and build nothing new.
    Each element stays over its caller's poset and equals the one built
    again from cold tables."""
    cold()
    built = collections.Counter()
    sincere = classify._construct_sincere

    def counting(poset, d, field):
        built[poset.elements, poset._below, d, field] += 1
        return sincere(poset, d, field)

    monkeypatch.setattr(classify, "_construct_sincere", counting)

    def build(p):
        jobs = [(p, d, f) for d in positive_roots(p) for f in (pr.QQ, F2, F3)]
        return [(job, pr.construct_indecomposable(*job)) for job in jobs]

    made = build(pr.primitive_poset(1, 2, 4))
    on_first = sum(built.values())
    made += build(pr.primitive_poset(1, 2, 2))
    assert max(built.values()) == 1 and sum(built.values()) == on_first > 100
    for (p, d, f), u in made:
        assert u.poset is p and pr.dimension_of(u) == d
        cold()
        assert pr.construct_indecomposable(p, d, f) == u


def test_construct_on_k_subposet(kposet):
    sub = pr.induced_subposet(kposet, ["a1", "a2", "b1", "b2", "c1"])
    d = D(3, a1=1, a2=1, b1=1, b2=1, c1=1)
    if pr.tits_value(sub, d) == 1:
        u = pr.construct_indecomposable(sub, d, F2)
        assert u is not None and pr.dimension_of(u) == d
        assert pr.end_dimension(u) == 1


def test_semidecomposable_posets_have_no_sincere_indecomposable():
    case2 = pr.build_poset(
        ["a", "a2", "b", "b2", "b3"],
        [("a2", "a"), ("b2", "b"), ("b3", "b2"), ("a2", "b2"), ("b3", "a")],
    )
    assert pr.is_semidecomposable(case2) is not None
    for d in all_dimensions(case2, 7):
        if d.d0 == 0 or any(d.get(x) == 0 for x in case2.elements):
            continue  # only sincere dimensions carry the claim
        census = pr.rep_iso_census(case2, d, F2)
        assert not census.indecomposables, d


def test_verify_main_theorem_a3(a3):
    reports, failures = pr.verify_main_theorem(a3, 5, [F2, F3])
    assert failures == []
    assert all(r.ok for r in reports)
    by_dim = {r.dimension.key(): r for r in reports}
    three = by_dim[D(2, x=1, y=1, z=1).key()]
    assert three.finite_type and three.is_root
    assert three.end_dim == 1
    assert three.iso_class_counts == {"GF(2)": 5, "GF(3)": 5}


def test_verify_flags_infinite_type(a4):
    reports, failures = pr.verify_main_theorem(a4, 6, [F2, F3])
    assert failures == []
    by_dim = {r.dimension.key(): r for r in reports}
    c1 = by_dim[D(2, w=1, x=1, y=1, z=1).key()]
    assert not c1.finite_type
    assert c1.witness is not None and c1.witness[0].kind == "A4"
    assert c1.iso_class_counts == {"GF(2)": 14, "GF(3)": 15}


def test_verify_chain_every_root_constructs(chain4):
    reports, failures = pr.verify_main_theorem(chain4, 5, [F2])
    assert failures == []
    for r in reports:
        assert r.finite_type
        if r.is_root and r.dimension.d0 > 0:
            assert r.indecomposable is not None and r.end_dim == 1


def test_verify_criterion_disagreement_fails_the_report(a3, a4, monkeypatch):
    # verify decides dominance on its vectors through the kernel _dominated
    fake = pr.dominated_critical(a4, D(2, w=1, x=1, y=1, z=1))
    monkeypatch.setattr(classify, "_dominated", lambda p, vec: fake)
    reports, failures = pr.verify_main_theorem(a3, 1, [F2, F3])
    assert len(reports) == 5 and len(failures) == 5
    assert not any(r.ok for r in reports)


def skew_counts(monkeypatch):
    census_of = classify._census_of

    def skewed(poset, vec, p, budget):
        core, support = census_of(poset, vec, p, budget)
        return dataclasses.replace(core, count=core.count + (p == 3)), support

    monkeypatch.setattr(classify, "_census_of", skewed)


# one fault per check verify makes past the criteria, and the failure it reports
VERIFY_FAULTS = {
    "indecomposable count": (
        lambda mp: mp.setattr(classify, "_indecomposable_count", lambda d, core: 2),
        "indecomposables, expected"),
    "class counts": (skew_counts, "class counts differ across fields"),
    "representation End": (
        lambda mp: mp.setattr(classify, "rep_end_dimension", lambda v: 2),
        "End dims rep=2 el=1, expected 1"),
    "construction": (
        lambda mp: mp.setattr(classify, "construct_indecomposable",
                              lambda poset, d, f: pr.special_T(poset, f, poset.elements[0])),
        "constructed element not isomorphic"),
}


@pytest.mark.parametrize("fault", VERIFY_FAULTS)
def test_verify_reports_each_failed_check(a3, tmp_path, capsys, monkeypatch, fault):
    """Each check verify makes fails its report when its premise is broken,
    and posetrep verify prints every failure and exits 1."""
    inject, text = VERIFY_FAULTS[fault]
    inject(monkeypatch)
    reports, failures = pr.verify_main_theorem(a3, 3, [F2, F3])
    bad = [str(r.dimension) for r in reports if not r.ok]
    assert bad and failures and all(text in f for f in failures)
    assert all(any(f.startswith(f"{d}:") or f.startswith(f"{d} over ") for d in bad)
               for f in failures)
    poset = tmp_path / "a3.json"
    poset.write_text('{"elements": ["x", "y", "z"], "relations": []}')
    assert main(["verify", "--poset", str(poset), "--max-total", "3", "--fields", "2,3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("assertion failed: ")
    assert err.splitlines() == [f"assertion failed: {f}" for f in failures]


def bounded_vectors(slots, total):
    """Every vector of slots entries >= 0 with sum <= total."""
    if not slots:
        yield ()
        return
    for v in range(total + 1):
        for rest in bounded_vectors(slots - 1, total - v):
            yield (v, *rest)


def test_verify_sweep_matches_public_calls(poset_catalog):
    """The tuple sweep of verify_main_theorem against a reference loop over
    the public calls: on every poset of the <= 5-point catalog at |d| <= 4,
    the reports come in the order of (|d|, d.key()), and each carries the
    witness of dominated_critical, the root flag of tits_value and the class
    counts of count_iso_classes."""
    fields = [F2]
    checked = 0
    for poset in poset_catalog:
        reports, failures = pr.verify_main_theorem(poset, 4, fields)
        assert failures == []
        dims = [pr.DimensionVector(v[0], dict(zip(poset.elements, v[1:])))
                for v in bounded_vectors(len(poset) + 1, 4)]
        dims.sort(key=lambda d: (d.total(), d.key()))
        assert [r.dimension.key() for r in reports] == [d.key() for d in dims]
        for r, d in zip(reports, dims):
            witness = pr.dominated_critical(poset, d)
            assert r.witness == witness and r.finite_type == (witness is None)
            assert r.is_root == (pr.tits_value(poset, d) == 1)
            assert r.iso_class_counts == {f.label(): pr.count_iso_classes(poset, d, f)
                                          for f in fields}
            checked += 1
    assert checked == sum(math.comb(len(p) + 5, 4) for p in poset_catalog) > 10_000


def test_posets_share_canonical_supports(kposet, monkeypatch):
    """Two 5-point subposets of K that differ in one point share the labelled
    supports on the other four: verifying the second puts none of those in
    canonical form again, and gives each the first poset's census key."""
    cold()
    calls = collections.Counter()
    canonical_form = classify.canonical_form

    def counting(sub, weights):
        calls[sub.elements, sub._below, tuple(weights[a] for a in sub.elements)] += 1
        return canonical_form(sub, weights)

    monkeypatch.setattr(classify, "canonical_form", counting)
    first = pr.induced_subposet(kposet, ["a1", "a2", "b1", "b2", "c1"])
    second = pr.induced_subposet(kposet, ["a1", "a2", "b1", "b2", "c2"])
    try:
        pr.verify_main_theorem(first, 5, [F2])
        before = set(calls)
        pr.verify_main_theorem(second, 5, [F2])
        supports = dict(classify._SUPPORTS)
    finally:
        cold()
    assert max(calls.values()) == 1
    assert all("c2" in elements for elements, _, _ in set(calls) - before)

    def held(p):
        return {w: v for (elements, below, w), v in supports.items()
                if (elements, below) == (p.elements, p._below)}

    # weights on the shared points a1, a2, b1, b2 read the same on both posets
    on_first, on_second = held(first), held(second)
    shared = [w for w in on_second if w[-1] == 0 and any(w)]
    assert len(shared) > 50
    for w in shared:
        assert w in on_first and on_second[w] == on_first[w]
    assert any(elements == ("a1", "a2", "b1", "b2") for elements, _, _ in before)


def test_cache_hits_build_no_poset(kposet, monkeypatch):
    """The canonical support and root keys are read off the caller's order
    masks: a support another poset already put in canonical form, and a root
    built before, are found without building a Poset."""
    cold()
    first = pr.induced_subposet(kposet, ["a1", "a2", "b1", "b2", "c1"])
    second = pr.induced_subposet(kposet, ["a1", "a2", "b1", "b2", "c2"])
    weights = (1, 2, 1, 1, 0)  # on a1, a2, b1, b2 in both
    p124 = pr.primitive_poset(1, 2, 4)
    top = max(positive_roots(p124), key=lambda d: d.total())
    support = classify._canonical_support(first, weights)
    u = pr.construct_indecomposable(p124, top, F2)
    key = (second.elements, second._below, weights)
    assert key not in classify._SUPPORTS
    built = collections.Counter()
    fill = Poset._fill

    def counting_fill(self, *args):  # every Poset, induced_subposet's included
        built["Poset"] += 1
        return fill(self, *args)

    with monkeypatch.context() as m:
        m.setattr(Poset, "_fill", counting_fill)
        again = classify._canonical_support(second, weights)
        w = pr.construct_indecomposable(p124, top, F2)
    stored = classify._SUPPORTS.get(key)
    cold()
    assert not built
    assert again == support == stored
    assert w == u and w is not u


def test_cold_reaches_every_support(a3, monkeypatch):
    """A poset holds no table of its own: after cold(), a census on a poset
    that has been counted before puts its support in canonical form again."""
    d = pr.DimensionVector(2, dict.fromkeys(a3.elements, 1))
    assert pr.count_iso_classes(a3, d, F2) == 5
    cold()
    calls = []
    canonical_form = classify.canonical_form

    def counting(sub, weights):
        calls.append(sub.elements)
        return canonical_form(sub, weights)

    monkeypatch.setattr(classify, "canonical_form", counting)
    try:
        assert pr.count_iso_classes(a3, d, F2) == 5
    finally:
        cold()
    assert calls == [a3.elements]


CENSUS_KEYS = """
import posetrep as pr
from posetrep import classify
poset = pr.build_poset(["a1", "a2", "b1", "b2", "c1"],
                       [("a2", "a1"), ("b2", "a1"), ("b2", "b1")])
pr.verify_main_theorem(poset, 4, [pr.GF(2)])
print(repr(list(classify._CENSUS_CACHE.items())))
"""


def test_census_keys_do_not_depend_on_the_hash_seed():
    """The census keys hold ints only, so the census cache after a verify
    prints the same under every hash seed."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    printed = [subprocess.run([sys.executable, "-c", CENSUS_KEYS], capture_output=True, text=True,
                              check=True, env={**env, "PYTHONHASHSEED": seed}).stdout
               for seed in ("0", "99")]
    assert printed[0].startswith("[((") and printed[0] == printed[1]


def test_census_cores_do_not_depend_on_the_census_order(a3):
    """A core holds no interning id: two censuses run in either order from
    cold tables leave equal caches, though they intern in different orders."""
    chain = pr.build_poset(["a", "b"], [("a", "b")])
    censuses = [(a3, D(2, x=1, y=1, z=1)), (chain, D(2, a=1, b=1))]
    caches = []
    try:
        for order in (censuses, censuses[::-1]):
            cold()
            for poset, d in order:
                pr.count_iso_classes(poset, d, F3)
            caches.append(dict(classify._CENSUS_CACHE))
    finally:
        cold()
    assert caches[0] == caches[1]
    assert any(core.indec_configs for core in caches[0].values())


def test_cached_census_survives_dropping_the_spaces(a3, a4):
    """The interned spaces only speed up a cold census: with them dropped, a
    cached census lifts the same elements and builds no space."""
    cases = [(a3, D(2, x=1, y=1, z=1), F3), (a4, D(2, w=1, x=1, y=1, z=1), F2),
             (a4, D(2, w=1, x=1, y=1, z=1), F3)]

    def answers():
        return [(pr.rep_iso_census(p, d, f), pr.brute_force_indecomposables(p, d, f))
                for p, d, f in cases]

    try:
        before = answers()
        cached = dict(classify._CENSUS_CACHE)
        classify._SPACES.clear()
        assert answers() == before
        assert classify._CENSUS_CACHE == cached and not classify._SPACES
    finally:
        cold()
    assert all(census.indecomposables for census, _ in before)


def test_verify_rejects_a_field_that_is_not_prime(a3):
    """verify checks its fields once, before the sweep: the rationals raise
    wherever they stand in the list."""
    for fields in ([F2, pr.QQ], [pr.QQ], [pr.QQ, F3]):
        with pytest.raises(pr.FieldTooRestrictive):
            pr.verify_main_theorem(a3, 2, fields)


def test_verify_budget_bounds_only_the_censuses(a3):
    """The scan criterion is compared at every dimension, whatever the
    budget; under a small budget only the censuses are skipped."""
    reports, failures = pr.verify_main_theorem(a3, 5, [F2, F3], budget=20)
    assert failures == []
    assert not any("scan" in note for r in reports for note in r.notes)
    # the root (2; 1, 1, 1) has 27 configurations over GF(2): its census and
    # hence its endomorphism check are skipped, not raised
    three = next(r for r in reports if r.dimension == D(2, x=1, y=1, z=1))
    assert "census skipped over GF(2): budget" in three.notes
    assert three.indecomposable is None and three.ok


def test_every_finite_type_root_of_the_catalog(poset_catalog):
    """Every finite-type root of every poset with at most 5 points has one
    indecomposable with scalar endomorphisms, over GF(2), GF(3) and Q.

    The roots are those the ascent of positive_roots reaches, which finds
    every one.  The finite-type vectors with Q = 1 in the box of entries
    <= 6 are a second oracle, whose bound is measured, not proved: the two
    find the same 1,464 roots.  Every trusted constructor along the
    construction route runs here.
    """
    roots = [(i, d) for i, p in enumerate(poset_catalog) for d in positive_roots(p)]
    box = []
    for i, p in enumerate(poset_catalog):
        x, q = form_on_box(p, 6)
        for v in x[q == 1].tolist():
            d = pr.DimensionVector(v[0], dict(zip(p.elements, v[1:])))
            if pr.is_finite_type(p, d):
                box.append((i, d))
    assert len(roots) == len(set(roots)) == 1464 and set(roots) == set(box)
    roots = [(poset_catalog[i], d) for i, d in roots]
    for field in (F2, F3, pr.QQ):
        for p, d in roots:
            u = pr.construct_indecomposable(p, d, field)
            assert pr.dimension_of(u) == d and pr.end_dimension(u) == 1, (p, d, field)


def root_partitions(roots):
    """P(d), the number of multisets of the given roots that sum to the vector
    d, by Euler's recurrence for multiset products:
    |d|·P(d) = Σ_r |r| Σ_{k ≥ 1, k·r ≤ d} P(d − k·r), with P(0) = 1."""
    table = {}

    def count(d: tuple[int, ...]) -> int:
        if not any(d):
            return 1
        if d not in table:
            total = 0
            for r in roots:
                k = 1
                while all(x >= k * y for x, y in zip(d, r)):
                    total += sum(r) * count(tuple(x - k * y for x, y in zip(d, r)))
                    k += 1
            table[d] = total // sum(d)
        return table[d]

    return count


def test_class_counts_are_root_partitions(poset_catalog):
    """At a finite-type d with d0 >= 1, every summand of dimension r has
    r <= d, so r is of finite type, and r0 >= 1.  By the main theorem each
    finite-type root has one indecomposable and no other dimension has any,
    so by Krull-Schmidt the classes of dimension d are the multisets of
    finite-type roots r with r0 >= 1 that sum to d.  The census must count
    exactly that many, over GF(2) and GF(3), on every poset of the catalog
    at every such d with |d| <= 6.  This checks existence, uniqueness and the
    finite-type criterion in one equation."""
    checked = 0
    for p in poset_catalog:
        roots = [(d.d0, *(d.get(a) for a in p.elements)) for d in positive_roots(p)]
        partitions = root_partitions([r for r in roots if r[0]])
        for vec in classify._all_vectors(len(p) + 1, 6):
            d = pr.DimensionVector(vec[0], dict(zip(p.elements, vec[1:])))
            if vec[0] and pr.is_finite_type(p, d):
                expected = partitions(vec)
                for f in (F2, F3):
                    assert pr.count_iso_classes(p, d, f) == expected, (p, d, f.label())
                checked += 1
    assert checked == 33_887
