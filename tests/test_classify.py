"""Counting oracles, constructor, and the verification harness."""

import pytest

import posetrep as pr
from posetrep import classify

from conftest import all_dimensions, matrix_indecomposables

F2, F3 = pr.GF(2), pr.GF(3)


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
    assert pr.are_isomorphic(found[0], pr.special_E_pair(a2, F2, ("x", "y"))) is not None


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
    fibre, _, m = classify._enumerate_fibre(a4, d, classify._space(3, 2),
                                            classify.DEFAULT_ENUM_BUDGET)
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
    assert pr.are_isomorphic(e, pr.special_E(single, F2, "a")) is not None
    t = pr.construct_indecomposable(a3, D(0, x=1), F2)
    assert pr.dimension_of(t) == D(0, x=1)
    t0 = pr.construct_indecomposable(a3, D(1), F2)
    assert pr.dimension_of(t0) == D(1)


def test_construction_uses_no_census(a3, chain4, kposet, monkeypatch):
    def no_census(*args, **kwargs):
        raise AssertionError("construction reached a census")

    for name in ("brute_force_indecomposables", "rep_iso_census", "_census_lookup"):
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
    fake = pr.dominated_critical(a4, D(2, w=1, x=1, y=1, z=1))
    monkeypatch.setattr(classify, "dominated_critical", lambda p, d: fake)
    reports, failures = pr.verify_main_theorem(a3, 1, [F2, F3])
    assert len(reports) == 5 and len(failures) == 5
    assert not any(r.ok for r in reports)


def test_verify_scan_budget_skips_only_large_grids(a3):
    """Under a small budget the sweep still returns; only grids over it skip the scan."""
    budget = 20
    reports, failures = pr.verify_main_theorem(a3, 5, [F2, F3], budget=budget)
    assert failures == []
    skipped = {r.dimension.key() for r in reports if "scan skipped: budget" in r.notes}
    over = set()
    for r in reports:
        grid = r.dimension.d0 + 1
        for a in a3.elements:
            grid *= r.dimension.get(a) + 1
        if grid > budget:
            over.add(r.dimension.key())
    assert over and skipped == over
    # the root (2; 1, 1, 1) has 27 configurations over GF(2): its census and
    # hence its endomorphism check are skipped, not raised
    three = next(r for r in reports if r.dimension == D(2, x=1, y=1, z=1))
    assert "census skipped over GF(2): budget" in three.notes
    assert three.indecomposable is None and three.ok
