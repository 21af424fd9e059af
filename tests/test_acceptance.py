"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

import pytest

import posetrep as pr
from posetrep.poset import canonical_key
from posetrep.reps import rep_decompose, rep_end_dimension, stacked_lower_blocks

from conftest import (
    all_dimensions,
    all_posets_upto,
    burnside_point_tuple_orbits,
    random_element,
)

F2, F3 = pr.GF(2), pr.GF(3)


def _line(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def criterion3_posets(kposet):
    subs = []
    seen = set()
    for combo in itertools.combinations(kposet.elements, 5):
        sp = pr.induced_subposet(kposet, combo)
        key = canonical_key(sp)
        if key not in seen:
            seen.add(key)
            subs.append(sp)
    a3 = pr.build_poset(["x", "y", "z"], [])
    chain4 = pr.build_poset(["a", "b", "c", "d"],
                            [("a", "b"), ("b", "c"), ("c", "d")])
    p112 = pr.primitive_poset(1, 1, 2)
    return [a3, chain4, p112] + subs


@pytest.fixture(scope="module")
def criterion3_sweep(criterion3_posets):
    """The |d| <= 7 census over GF(2) and GF(3) on the criterion-3 posets."""
    data = {
        "checks": 0,
        "failures": [],
        "roots": [],            # (poset, d)
        "sincere": [],          # (poset, d, field, element)
        "elapsed": 0.0,
    }
    t0 = time.time()
    for poset in criterion3_posets:
        assert pr.critical_subposet_embeddings(poset) == []
        full = set(poset.elements)
        for d in all_dimensions(poset, 7):
            assert pr.is_finite_type(poset, d)
            q = pr.tits_value(poset, d)
            expected = 1 if q == 1 else 0
            for field in (F2, F3):
                n = pr.el_indecomposable_count(poset, d, field)
                data["checks"] += 1
                if n != expected:
                    data["failures"].append(
                        f"{poset.elements} {d} {field.label()}: "
                        f"{n} indecomposables, Q={q}")
                    continue
                if expected and d.d0 > 0:
                    census = pr.rep_iso_census(poset, d, field)
                    u = census.indecomposables[0]
                    el_end = pr.end_dimension(u)
                    rep_end = rep_end_dimension(pr.rho(u))
                    if el_end != 1 or rep_end != 1:
                        data["failures"].append(
                            f"{poset.elements} {d} {field.label()}: "
                            f"End dims el={el_end} rep={rep_end}")
                    if d.support() == full and d.d0 > 0:
                        data["sincere"].append((poset, d, field, u))
            if expected:
                data["roots"].append((poset, d))
    data["elapsed"] = time.time() - t0
    return data


def test_criterion_1_table_reproduction():
    t0 = time.time()
    table = pr.critical_dimension_table()
    ok = len(table) == 5
    for crit in table:
        poset = pr.critical_posets()[crit.kind]
        ok = ok and pr.tits_value(poset, crit.dimension()) == 0
        ok = ok and 1 in set(crit.assignment.values()) | {crit.c0}
    elapsed = time.time() - t0
    _line(1, ok, f"five critical dimensions: Q = 0 and a unit value each "
                 f"({elapsed * 1000:.2f} ms)")


def test_criterion_2_scan_agrees_with_dominance():
    t0 = time.time()
    mismatches = []
    pairs = 0
    for poset in all_posets_upto(5):
        elems = poset.elements
        for d0 in range(5):
            for vals in itertools.product((0, 1, 2), repeat=len(elems)):
                d = pr.DimensionVector(d0, dict(zip(elems, vals)))
                pairs += 1
                if pr.finite_type_scan(poset, d) != pr.is_finite_type(poset, d):
                    mismatches.append((poset.elements, d))
    elapsed = time.time() - t0
    _line(2, not mismatches,
          f"criteria (b) and (c) agree on {pairs} dimension/poset pairs "
          f"across all 87 posets with <= 5 elements ({elapsed:.1f} s)")


def test_criterion_3_unique_indecomposable_iff_root(criterion3_sweep):
    data = criterion3_sweep
    detail = (f"{data['checks']} censuses over GF(2)/GF(3), "
              f"{len(data['roots'])} roots, all counts and End dimensions exact "
              f"({data['elapsed']:.1f} s)")
    if data["failures"]:
        detail += " | " + "; ".join(data["failures"][:3])
    _line(3, not data["failures"], detail)


def test_criterion_4_infinite_type_witness(a4):
    d = pr.DimensionVector(2, {"w": 1, "x": 1, "y": 1, "z": 1})
    got2 = pr.count_iso_classes(a4, d, F2)
    got3 = pr.count_iso_classes(a4, d, F3)
    oracle2 = burnside_point_tuple_orbits(2, 2, 4)
    oracle3 = burnside_point_tuple_orbits(3, 2, 4)
    ok = (got2, got3) == (14, 15) == (oracle2, oracle3) and got2 < got3
    _line(4, ok, f"4-antichain at (2;1,1,1,1): {got2} classes over GF(2), "
                 f"{got3} over GF(3); Burnside oracle gives {oracle2}/{oracle3}")


def test_criterion_5_field_independence(a3):
    d = pr.DimensionVector(2, {"x": 1, "y": 1, "z": 1})
    got2 = pr.count_iso_classes(a3, d, F2)
    got3 = pr.count_iso_classes(a3, d, F3)
    oracle2 = burnside_point_tuple_orbits(2, 2, 3)
    oracle3 = burnside_point_tuple_orbits(3, 2, 3)
    ok = got2 == got3 == 5 == oracle2 == oracle3
    _line(5, ok, f"3-antichain at (2;1,1,1): {got2} classes over GF(2), "
                 f"{got3} over GF(3); Burnside oracle gives {oracle2}/{oracle3}")


def test_criterion_6_round_trips(poset_catalog):
    rng = random.Random(0x5EED)
    t0 = time.time()
    failures = []
    runs = 0
    while runs < 250:
        poset = poset_catalog[rng.randrange(len(poset_catalog))]
        pivot = sorted(pr.maximal_elements(poset))[0]
        ctx = pr.derive_poset(poset, pivot)
        v = random_element(ctx.result, rng, field=F2, d0max=2, colmax=1)
        w = pr.integrate(v, ctx)
        if pr.differentiate(pr.rho(w), pivot, ctx) != pr.rho(v):
            failures.append(("derive-after-integrate", poset.elements, pr.dimension_of(v)))
        runs += 1
    while runs < 500:
        poset = poset_catalog[rng.randrange(len(poset_catalog))]
        pivot = sorted(pr.maximal_elements(poset))[-1]
        ctx = pr.derive_poset(poset, pivot)
        exc = pr.exceptional_set(poset, pivot)
        u = random_element(poset, rng, field=F2, d0max=3, colmax=1)
        v = pr.rho(u)
        pieces = rep_decompose(v) if v.ambient_dim else []
        has_exceptional = any(
            exc.contains_dimension(piece.dimension_vector()) for piece in pieces)
        back = pr.integrate(pr.lift(pr.differentiate(v, pivot, ctx)), ctx)
        iso = pr.are_isomorphic(back, pr.lift(v)) is not None
        if iso != (not has_exceptional):
            failures.append(("integrate-after-derive", poset.elements, pr.dimension_of(u)))
        runs += 1
    elapsed = time.time() - t0
    detail = f"{runs} random representations, {len(failures)} failures ({elapsed:.1f} s)"
    if failures:
        detail += f" | first: {failures[0]}"
    _line(6, not failures, detail)


def test_criterion_7_form_identity(a3, a4, chain4, kposet):
    rng = random.Random(0xF0F0)
    posets = [a3, a4, chain4, kposet,
              pr.primitive_poset(1, 1, 2), pr.primitive_poset(2, 2, 3)]
    t0 = time.time()
    checked = 0
    for poset in posets:
        for _ in range(10_000):
            d = pr.DimensionVector(
                rng.randint(-5, 9),
                {a: rng.randint(-5, 9) for a in poset.elements})
            assert pr.tits_value(poset, d) == (
                pr.group_dimension(poset, d) - pr.space_dimension(poset, d))
            checked += 1
    elapsed = time.time() - t0
    _line(7, True, f"group minus space identity on {checked} random integer "
                   f"vectors over {len(posets)} posets ({elapsed:.1f} s)")


def test_criterion_8_property_suites(criterion3_sweep):
    failures = []
    checked = 0
    for poset, d, field, u in criterion3_sweep["sincere"]:
        checked += 1
        for a in poset.elements:
            stack = stacked_lower_blocks(u, a)
            if stack.rank() != stack.cols:
                failures.append(f"columns of the stack at {a} are dependent: {d}")
            if pr.el_hom_basis(pr.special_T(poset, field, a), u):
                failures.append(f"nonzero morphism from a trivial element at {a}: {d}")
            if any(m.phi0.rows != 0
                   for m in pr.el_hom_basis(u, pr.special_T(poset, field, a))):
                failures.append(f"ambient part into a trivial element at {a}: {d}")
        if pr.end_dimension(u) != rep_end_dimension(pr.rho(u)):
            failures.append(f"element and representation End dims differ: {d}")
        # diamond property: vacuous here (no criterion-3 poset has a diamond),
        # exercised non-vacuously in test_reps.test_diamond_vanishing
        for quad in itertools.permutations(poset.elements, 4):
            t, y, z, x = quad
            if (poset.lt(t, y) and poset.lt(t, z) and poset.lt(y, x)
                    and poset.lt(z, x) and not poset.comparable(y, z)):
                if d.get(x) and d.get(t):
                    failures.append(f"diamond values both nonzero: {d}")
    detail = (f"column independence, trivial-hom vanishing, End agreement and "
              f"diamond checks on {checked} sincere indecomposables")
    if failures:
        detail += " | " + "; ".join(failures[:3])
    _line(8, not failures, detail)


def test_criterion_9_constructor_agreement(criterion3_sweep):
    t0 = time.time()
    failures = []
    built_count = 0
    for poset, d in criterion3_sweep["roots"]:
        try:
            built = pr.construct_indecomposable(poset, d, F2)
        except pr.ConstructionFailed:
            failures.append(f"no recursive route on {poset.elements} at {d}")
            continue
        if built is None:
            failures.append(f"constructor returned nothing at root {d}")
            continue
        built_count += 1
        if d.d0 == 0:
            if pr.dimension_of(built) != d or not pr.is_indecomposable(built):
                failures.append(f"bad trivial construction at {d}")
            continue
        census = pr.rep_iso_census(poset, d, F2)
        if pr.are_isomorphic(built, census.indecomposables[0]) is None:
            failures.append(f"constructed element not isomorphic at {d}")
    elapsed = time.time() - t0
    detail = (f"{built_count} roots constructed over GF(2), isomorphic to the "
              f"brute-forced representative; no fallback on chains or "
              f"primitive posets ({elapsed:.1f} s)")
    if failures:
        detail += " | " + "; ".join(failures[:3])
    _line(9, not failures, detail)
