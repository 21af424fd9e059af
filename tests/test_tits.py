"""Quadratic form values, critical dimensions, finite-type criteria."""

import itertools
import random

import pytest

import posetrep as pr
from posetrep.poset import canonical_form

from conftest import all_dimensions


def D(d0, **vals):
    return pr.DimensionVector(d0, vals)


def test_tits_examples(a3, a4, kposet):
    assert pr.tits_value(a4, D(2, w=1, x=1, y=1, z=1)) == 0
    assert pr.tits_value(a4, D(1)) == 1
    assert pr.tits_value(a3, D(2, x=1, y=1, z=1)) == 1  # 4 + 3 - 6
    c5 = D(5, a1=1, a2=2, b1=2, b2=1, c1=1, c2=1, c3=1, c4=1)
    assert pr.tits_value(kposet, c5) == 0


def test_tits_unknown_element(a3):
    with pytest.raises(pr.UnknownElement):
        pr.tits_value(a3, D(1, nope=1))


def test_group_space_dimensions(a4):
    single = pr.build_poset(["a"], [])
    assert pr.group_dimension(single, D(1, a=1)) == 2
    assert pr.space_dimension(single, D(1, a=1)) == 1
    c1 = D(2, w=1, x=1, y=1, z=1)
    assert pr.group_dimension(a4, c1) == 8
    assert pr.space_dimension(a4, c1) == 8
    assert pr.group_dimension(a4, D(0)) == 0
    assert pr.space_dimension(a4, D(0)) == 0


def test_critical_table():
    table = pr.critical_dimension_table()
    assert [c.kind for c in table] == ["A4", "T222", "T133", "T125", "K"]
    for crit in table:
        poset = pr.critical_posets()[crit.kind]
        assert set(crit.assignment) == set(poset.elements)
        assert pr.tits_value(poset, crit.dimension()) == 0
        assert 1 in set(crit.assignment.values()) | {crit.c0}
    # the C2 arithmetic spelled out: 9 + 6 + 3 - 18 = 0
    t222 = pr.critical_posets()["T222"]
    c2 = table[1].dimension()
    assert (pr.group_dimension(t222, c2), pr.space_dimension(t222, c2)) == (18, 18)


def test_dominated_critical(a4):
    crit, emb = pr.dominated_critical(a4, D(2, w=1, x=1, y=1, z=1))
    assert crit.kind == "A4" and emb.image() == set("wxyz")
    assert pr.dominated_critical(a4, D(1, w=1, x=1, y=1, z=1)) is None
    chain = pr.build_poset(list("abcde"), [(x, y) for x, y in zip("abcd", "bcde")])
    assert pr.dominated_critical(chain, D(9, a=3, b=3, c=3, d=3, e=3)) is None


def test_is_finite_type(a4, a3):
    assert not pr.is_finite_type(a4, D(2, w=1, x=1, y=1, z=1))
    assert pr.is_finite_type(a4, D(1, w=1, x=1, y=1, z=1))
    assert pr.is_finite_type(a3, D(7, x=2, y=2, z=2))


def test_is_root(a3, a4):
    assert pr.is_root(a3, D(2, x=1, y=1, z=1))
    assert not pr.is_root(a4, D(2, w=1, x=1, y=1, z=1))
    assert pr.is_root(a3, D(1))


def test_scan_examples(a4, a3):
    assert not pr.finite_type_scan(a4, D(2, w=1, x=1, y=1, z=1))
    single = pr.build_poset(["a"], [])
    assert pr.finite_type_scan(single, D(1, a=1))
    assert pr.finite_type_scan(a3, D(3, x=1, y=1, z=1))
    # independent hand enumeration of the 3-antichain case
    bad = []
    for vec in itertools.product(range(4), range(2), range(2), range(2)):
        if not any(vec):
            continue
        d0, xs = vec[0], vec[1:]
        q = d0 * d0 + sum(v * v for v in xs) - d0 * sum(xs)
        if q <= 0:
            bad.append(vec)
    assert not bad


def test_scan_with_entries_past_999(a3, a4):
    """Entries of 1000 and more take the same exact int64 scan."""
    cases = [(a3, D(1000, x=1, y=1, z=1)), (a4, D(2, w=1000, x=1, y=1, z=1)),
             (pr.build_poset(["a"], []), D(0, a=1500))]
    for p, d in cases:
        assert pr.finite_type_scan(p, d) == pr.is_finite_type(p, d)
    assert pr.finite_type_scan(a3, D(1000, x=1, y=1, z=1))
    assert not pr.finite_type_scan(a4, D(2, w=1000, x=1, y=1, z=1))


def test_scan_edge_cases(a3):
    """A negative entry leaves no subvector to check, and the zero vector no
    nonzero one, so both answer True; on the empty poset Q = d0² > 0."""
    assert pr.finite_type_scan(a3, D(-1, x=2))
    assert pr.finite_type_scan(a3, D(2, x=-3))
    assert pr.finite_type_scan(a3, D(0))
    assert pr.finite_type_scan(pr.build_poset([], []), D(2))
    # the box is empty whatever the other sizes, so the budget never binds
    assert pr.finite_type_scan(a3, D(10**8, x=-1))
    assert pr.finite_type_scan(a3, D(-1, x=10**8))


def test_scan_budget(a4):
    with pytest.raises(pr.BudgetExceeded):
        pr.finite_type_scan(a4, D(100, w=100, x=100, y=100, z=100), budget=1000)


def test_identity_group_minus_space(poset_catalog):
    rng = random.Random(5)
    for p in poset_catalog[:20]:
        for _ in range(50):
            d = pr.DimensionVector(
                rng.randint(-4, 6),
                {a: rng.randint(-4, 6) for a in p.elements},
            )
            assert pr.tits_value(p, d) == pr.group_dimension(p, d) - pr.space_dimension(p, d)


def test_bilinear_symmetry(a3, kposet):
    rng = random.Random(6)
    for p in (a3, kposet):
        for _ in range(30):
            dx = pr.DimensionVector(rng.randint(-3, 3),
                                    {a: rng.randint(-3, 3) for a in p.elements})
            dy = pr.DimensionVector(rng.randint(-3, 3),
                                    {a: rng.randint(-3, 3) for a in p.elements})
            dxy = pr.DimensionVector(dx.d0 + dy.d0,
                                     {a: dx.get(a) + dy.get(a) for a in p.elements})
            b = pr.tits_value(p, dxy) - pr.tits_value(p, dx) - pr.tits_value(p, dy)
            dyx = pr.DimensionVector(dy.d0 + dx.d0,
                                     {a: dy.get(a) + dx.get(a) for a in p.elements})
            assert pr.tits_value(p, dyx) - pr.tits_value(p, dy) - pr.tits_value(p, dx) == b


def test_monotonicity_of_finite_type(poset_catalog):
    rng = random.Random(7)
    for p in poset_catalog[30:50]:
        for d in all_dimensions(p, 4):
            if not pr.is_finite_type(p, d):
                continue
            smaller = pr.DimensionVector(
                rng.randint(0, d.d0),
                {a: rng.randint(0, d.get(a)) for a in p.elements})
            assert pr.is_finite_type(p, smaller)


def test_scan_agrees_with_dominance_spot(poset_catalog):
    for p in poset_catalog[60:75]:
        for d in all_dimensions(p, 4):
            assert pr.finite_type_scan(p, d) == pr.is_finite_type(p, d)


def test_scan_agrees_on_six_element_posets():
    """Sampled b/c agreement at the larger scale: 6 elements, entries <= 3.

    The exhaustive sweep over all posets with <= 5 elements lives in the
    acceptance suite; here a seeded sample of 6-element posets and dimension
    vectors extends the check.
    """
    rng = random.Random(97)
    labels = [f"e{i}" for i in range(6)]
    posets = []
    seen = set()
    while len(posets) < 10:
        rels = []
        for i in range(6):
            for j in range(6):
                if i != j and rng.random() < 0.25:
                    rels.append((labels[i], labels[j]))
        try:
            p = pr.build_poset(labels, rels)
        except pr.CycleDetected:
            continue
        key = canonical_form(p)[0]
        if key in seen:
            continue
        seen.add(key)
        posets.append(p)
    for p in posets:
        for _ in range(400):
            d = pr.DimensionVector(rng.randint(0, 3),
                                   {a: rng.randint(0, 3) for a in p.elements})
            assert pr.finite_type_scan(p, d) == pr.is_finite_type(p, d), (p, d)
