"""Derived posets, differentiation/integration, subordinate dimensions."""

import collections
import itertools
import random

import pytest

import posetrep as pr
from posetrep import classify
from posetrep.linalg import ExactMatrix, complete_to_full_rank, hstack, meet_rows
from posetrep.poset import incomparables, strict_lower_cone
from posetrep.reps import rep_decompose

from conftest import add, all_dimensions, cold, positive_roots, random_element, vstack

F2, F3 = pr.GF(2), pr.GF(3)


@pytest.fixture
def a3ctx(a3):
    return pr.derive_poset(a3, "x")


def test_derive_three_antichain(a3, a3ctx):
    assert a3ctx.result.elements == ("y", "z", "{y,z}")
    assert a3ctx.result.lt("y", "{y,z}")
    assert a3ctx.result.lt("z", "{y,z}")
    assert not a3ctx.result.comparable("y", "z")
    (pm,) = a3ctx.pairs
    assert pm.members == ("y", "z") and pm.prime == "y" and pm.second == "z"


def test_derive_requires_maximal(a3):
    chain = pr.build_poset(["a", "b"], [("a", "b")])
    with pytest.raises(pr.NotMaximal):
        pr.derive_poset(chain, "a")


def test_derive_narrow_theta_drops_pivot():
    """w(Θ(a)) <= 1 leaves S minus the pivot."""
    p = pr.build_poset(["a", "b", "c"], [("a", "b")])  # Θ(c) = {a,b} comparable
    ctx = pr.derive_poset(p, "c")
    assert ctx.result.elements == ("a", "b")
    assert ctx.pairs == ()
    assert ctx.result.lt("a", "b")


def test_derive_case_one_fragment():
    p = pr.build_poset(["a", "b", "b2", "c", "c2"], [("b2", "b"), ("c2", "c")])
    ctx = pr.derive_poset(p, "c")
    assert set(ctx.result.elements) == {"a", "b", "b2", "c2", "{a,b}", "{a,b2}"}
    assert ctx.result.lt("{a,b2}", "{a,b}")
    assert ctx.result.lt("a", "{a,b2}")
    assert ctx.result.lt("b2", "{a,b2}")
    assert not ctx.result.comparable("c2", "{a,b}")
    marks = {pm.label: pm for pm in ctx.pairs}
    # both members maximal: smaller input index is p'
    assert marks["{a,b}"].prime == "a"
    # exactly one member maximal: the maximal one is p''
    assert marks["{a,b2}"].prime == "b2" and marks["{a,b2}"].second == "a"


def test_differentiate_three_lines(a3, a3ctx):
    u = pr.MatrixRep(a3, F2, 2, {
        "x": ExactMatrix.from_rows(F2, [[1], [0]]),
        "y": ExactMatrix.from_rows(F2, [[0], [1]]),
        "z": ExactMatrix.from_rows(F2, [[1], [1]]),
    })
    d = pr.differentiate(pr.rho(u), "x", a3ctx)
    assert d.ambient_dim == 1
    assert d.dim("y") == 0 and d.dim("z") == 0
    assert d.dim("{y,z}") == 1


def test_differentiate_zero_pivot(a3, a3ctx):
    v = pr.SubspaceRep(a3, F2, 2, {"y": ExactMatrix.from_rows(F2, [[1], [0]])})
    d = pr.differentiate(v, "x", a3ctx)
    assert d.ambient_dim == 0


def test_differentiate_unit_element():
    single = pr.build_poset(["a"], [])
    v = pr.rho(pr.antichain_unit_element(single, F2, ["a"]))
    ctx = pr.derive_poset(single, "a")
    d = pr.differentiate(v, "a", ctx)
    assert d.ambient_dim == 1 and d.poset.elements == ()


def test_intersection_rule_breaks_order_preservation(a3, a3ctx):
    """The literal intersection reading V(y) ∩ V(z) ∩ V(x) at the pair {y,z}
    violates p > p' on the derived poset; the sum reading does not."""
    line = ExactMatrix.from_rows(F2, [[1], [0]])
    other = ExactMatrix.from_rows(F2, [[0], [1]])
    v = pr.SubspaceRep(a3, F2, 2, {"x": line, "y": line, "z": other})
    sum_reading = pr.differentiate(v, "x", a3ctx)
    assert sum_reading.dim("{y,z}") == 1
    meet = meet_rows(meet_rows(v.rows["y"], v.rows["z"], 2, 2), v.rows["x"], 2, 2)
    assert meet == ()  # so {y,z} gets no coordinates in V(x)
    literal = {x: sum_reading.subspace(x) for x in a3ctx.result.elements}
    literal["{y,z}"] = ExactMatrix.zeros(F2, 1, 0)
    assert literal["y"].cols == 1 and literal["{y,z}"].cols == 0
    with pytest.raises(pr.ValidationError):
        pr.SubspaceRep(a3ctx.result, F2, 1, literal)


def test_integrate_three_lines(a3, a3ctx):
    v = pr.MatrixRep(a3ctx.result, F2, 1,
                     {"{y,z}": ExactMatrix.from_rows(F2, [[1]])})
    w = pr.integrate(v, a3ctx)
    assert pr.dimension_of(w) == pr.DimensionVector(2, {"x": 1, "y": 1, "z": 1})
    assert w.blocks["x"].data == ((1,), (0,))
    assert w.blocks["y"].data == ((0,), (1,))
    assert w.blocks["z"].data == ((1,), (1,))


def test_integrate_zero_element_completion(a3, a3ctx):
    v = pr.MatrixRep(a3ctx.result, F2, 1, {})
    w = pr.integrate(v, a3ctx)
    assert pr.dimension_of(w) == pr.DimensionVector(1, {"x": 1})
    assert w.blocks["x"].data == ((1,),)


def test_integrate_context_mismatch(a3, a3ctx):
    with pytest.raises(pr.ContextMismatch):
        pr.integrate(pr.MatrixRep(a3, F2, 1, {}), a3ctx)


def test_pair_adjoined_again_takes_a_fresh_label():
    """Deriving (1,2,4) at c4 adjoins {a1,b1}; deriving that support again at
    c3 adjoins the pair a1, b1 once more, under a primed label, and the root
    on it is constructed over every field."""
    derived = pr.derive_poset(pr.primitive_poset(1, 2, 4), "c4").result
    d = pr.DimensionVector(4, {"a1": 2, "b1": 1, "b2": 2, "c1": 1, "c2": 1, "c3": 1,
                               "{a1,b1}": 1})
    again = pr.derive_poset(pr.induced_subposet(derived, d.support()), "c3")
    assert [pm.label for pm in again.pairs] == ["{a1,b1}'", "{a1,b2}", "{b2,{a1,b1}}"]
    assert again.pairs[0].members == ("a1", "b1")
    for field in (pr.QQ, F2, F3):
        u = pr.construct_indecomposable(derived, d, field)
        assert pr.dimension_of(u) == d and pr.end_dimension(u) == 1


def stacked_integrate(v, context):
    """Reference oracle: integrate with every block stacked from pieces, the
    old rows over zero rows, and each pair's columns as its block (or zeros)
    over a column of identities on its own new rows."""
    base, a = context.base, context.pivot
    field, d0 = v.field, v.d0
    widths = {pm.label: v.cols(pm.label) for pm in context.pairs}
    new_rows = sum(widths.values())
    offset, row_offset = 0, {}
    for pm in context.pairs:
        row_offset[pm.label] = offset
        offset += widths[pm.label]

    def with_zero_rows(top):
        return vstack([top, ExactMatrix.zeros(field, new_rows, top.cols)])

    def pair_column_block(pm, b):
        cols = widths[pm.label]
        top = v.blocks[pm.label] if b == pm.second else ExactMatrix.zeros(field, d0, cols)
        rows = [[field.zero()] * cols for _ in range(new_rows)]
        for j in range(cols):
            rows[row_offset[pm.label] + j][j] = field.one()
        return vstack([top, ExactMatrix(field, new_rows, cols, rows)])

    below = strict_lower_cone(base, a)
    theta = incomparables(base, a)
    blocks = {}
    for b in base.elements:
        if b == a:
            flat = hstack([ExactMatrix.zeros(field, d0, 0)]
                          + [v.blocks[x] for x in base.elements if x in below])
            blocks[b] = with_zero_rows(complete_to_full_rank(flat))
        elif b in below:
            blocks[b] = with_zero_rows(v.blocks[b])
        elif b in theta:
            blocks[b] = hstack([with_zero_rows(v.blocks[b])]
                               + [pair_column_block(pm, b) for pm in context.pairs
                                  if b in pm.members])
    return pr.MatrixRep(base, field, d0 + new_rows, blocks)


def test_integrate_matches_stacked_oracle(monkeypatch):
    """Every integration that the construction of a positive root of (1,2,4)
    makes, over Q, GF(2) and GF(3), gives the element the stacked oracle
    gives.  Start cold, or roots an earlier test built skip integrations."""
    cold()
    checked = collections.Counter()

    def checking(v, context):
        got = pr.integrate(v, context)
        assert got == stacked_integrate(v, context)
        checked[v.field.label(), got.d0 > v.d0] += 1
        return got

    monkeypatch.setattr(classify, "integrate", checking)
    p = pr.primitive_poset(1, 2, 4)
    for field in (pr.QQ, F2, F3):
        for d in positive_roots(p):
            assert pr.construct_indecomposable(p, d, field) is not None
    # 121 integrations per field, one per distinct (support order, d) tried,
    # all but 3 of them adding pair rows
    assert checked == {(f.label(), new): 118 if new else 3
                       for f in (pr.QQ, F2, F3) for new in (True, False)}


def test_round_trip_random(poset_catalog):
    """differentiate(rho(integrate(v)), a) equals rho(v) on random inputs."""
    rng = random.Random(23)
    checked = 0
    for p in poset_catalog:
        maxes = sorted(pr.maximal_elements(p))
        if not maxes:
            continue
        a = maxes[rng.randrange(len(maxes))]
        ctx = pr.derive_poset(p, a)
        for field in (F2, F3):
            for _ in range(3):
                v = random_element(ctx.result, rng, field=field, d0max=2, colmax=1)
                w = pr.integrate(v, ctx)
                assert pr.differentiate(pr.rho(w), a, ctx) == pr.rho(v)
                checked += 1
    assert checked >= 300


def test_integration_constant_on_iso_classes(a3, a3ctx):
    """Isomorphic inputs integrate to isomorphic outputs."""
    rng = random.Random(29)
    for _ in range(20):
        v = random_element(a3ctx.result, rng, field=F2, d0max=2, colmax=1)
        hom = pr.el_hom_basis(v, v)
        twin = None
        # conjugate v by a random automorphism found among invertible endos
        for _ in range(50):
            cand = None
            for h in hom:
                if rng.randrange(2):
                    cand = h if cand is None else add(cand, h)
            if cand is not None and cand.is_invertible():
                blocks = {}
                inv0 = cand.phi0.inverse()
                for x in a3ctx.result.elements:
                    blocks[x] = inv0 @ v.blocks[x] @ cand.phi_diag[x]
                twin = pr.MatrixRep(a3ctx.result, F2, v.d0, blocks)
                break
        if twin is None:
            continue
        alt = pr.integrate(twin, a3ctx)
        base = pr.integrate(v, a3ctx)
        assert pr.dimension_of(alt) == pr.dimension_of(base)
        assert pr.are_isomorphic(alt, base) is not None


def test_dstar_examples(a3, a3ctx):
    dprime = pr.DimensionVector(1, {"{y,z}": 1})
    assert pr.dstar(dprime, a3ctx, 1) == pr.DimensionVector(2, {"x": 1, "y": 1, "z": 1})
    no_pairs = pr.DimensionVector(3, {"y": 2})
    assert pr.dstar(no_pairs, a3ctx, 1) == pr.DimensionVector(3, {"x": 1, "y": 2})
    assert pr.dstar(pr.DimensionVector(2, {"y": 1, "z": 1}), a3ctx, 2) == \
        pr.DimensionVector(2, {"x": 2, "y": 1, "z": 1})


def test_subordinate_dimensions_example(a3ctx):
    subs = pr.subordinate_dimensions(a3ctx, pr.DimensionVector(2, {"x": 1, "y": 1, "z": 1}))
    assert subs == [pr.DimensionVector(1, {"{y,z}": 1})]


def test_subordinate_dimensions_nonnegativity(a3ctx):
    # d(y) = 0 rules out any pair value at {y,z}
    subs = pr.subordinate_dimensions(a3ctx, pr.DimensionVector(1, {"x": 1, "z": 1}))
    for dv in subs:
        assert dv.get("{y,z}") == 0


def test_subordinate_finiteness_and_dstar_inverse(poset_catalog):
    rng = random.Random(31)
    for p in poset_catalog[50:70]:
        maxes = sorted(pr.maximal_elements(p))
        a = maxes[0]
        ctx = pr.derive_poset(p, a)
        d = pr.DimensionVector(rng.randint(1, 3),
                               {x: rng.randint(0, 2) for x in p.elements})
        subs = pr.subordinate_dimensions(ctx, d)
        assert len(subs) < 200
        seen = set()
        for dv in subs:
            image = pr.dstar(dv, ctx, d.get(a))
            assert image == d
            assert dv.key() not in seen
            seen.add(dv.key())


def test_exceptional_set(a3, kposet):
    exc = pr.exceptional_set(a3, "x")
    dims = {dv.key() for dv in exc.dimension_vectors()}
    assert dims == {
        pr.DimensionVector(1, {}).key(),
        pr.DimensionVector(1, {"y": 1}).key(),
        pr.DimensionVector(1, {"z": 1}).key(),
        pr.DimensionVector(1, {"y": 1, "z": 1}).key(),
    }
    chain = pr.build_poset(["a", "b"], [("a", "b")])
    exc = pr.exceptional_set(chain, "b")
    assert [dv.key() for dv in exc.dimension_vectors()] == [pr.DimensionVector(1, {}).key()]
    with pytest.raises(pr.NotMaximal):
        pr.exceptional_set(kposet, "a2")


def test_exceptional_set_matches_definition(poset_catalog):
    """E_b for b in Θ(a) and E_{b,c} for each incomparable pair of Θ(a), in
    element and combinations order; the pivot is checked like derive_poset's."""
    for p in poset_catalog:
        for a in p.elements:
            if a not in pr.maximal_elements(p):
                with pytest.raises(pr.NotMaximal):
                    pr.exceptional_set(p, a)
                continue
            theta = [b for b in p.elements if b in pr.incomparables(p, a)]
            exc = pr.exceptional_set(p, a)
            assert list(exc.e_singles.items()) == [(b, pr.DimensionVector(1, {b: 1}))
                                                   for b in theta]
            assert list(exc.e_pairs.items()) == [
                ((b, c), pr.DimensionVector(1, {b: 1, c: 1}))
                for b, c in itertools.combinations(theta, 2) if not p.comparable(b, c)]
    with pytest.raises(pr.UnknownElement):
        pr.exceptional_set(poset_catalog[0], "zz")


def test_theta_supported_reps_decompose_into_exceptionals(kposet):
    """With w(Θ(a)) <= 2, anything supported on Θ(a) is a sum of O(a) members."""
    rng = random.Random(37)
    a = "c4"
    theta = pr.incomparables(kposet, a)
    exc = pr.exceptional_set(kposet, a)
    for _ in range(25):
        blocks = {}
        d0 = rng.randint(1, 3)
        for x in sorted(theta):
            c = rng.randint(0, 1)
            if c:
                blocks[x] = ExactMatrix.from_rows(
                    F2, [[rng.randrange(2) for _ in range(c)] for _ in range(d0)])
        u = pr.MatrixRep(kposet, F2, d0, blocks)
        for piece in rep_decompose(pr.rho(u)):
            assert exc.contains_dimension(piece.dimension_vector())


def test_integration_inverts_derivation_iff_no_exceptionals(poset_catalog):
    """Integration undoes differentiation exactly on O(a)-free representations."""
    rng = random.Random(41)
    agree = 0
    for p in poset_catalog[55:75]:
        maxes = sorted(pr.maximal_elements(p))
        a = maxes[-1]
        ctx = pr.derive_poset(p, a)
        exc = pr.exceptional_set(p, a)
        for _ in range(5):
            u = random_element(p, rng, field=F2, d0max=3, colmax=1)
            v = pr.rho(u)
            pieces = rep_decompose(v) if v.ambient_dim else []
            has_exceptional = any(
                exc.contains_dimension(piece.dimension_vector()) for piece in pieces)
            back = pr.integrate(pr.lift(pr.differentiate(v, a, ctx)), ctx)
            iso = pr.are_isomorphic(back, pr.lift(v)) is not None
            assert iso == (not has_exceptional)
            agree += 1
    assert agree == 100


def test_subordinates_of_finite_type_stay_finite(poset_catalog):
    for p in poset_catalog[70:87]:
        maxes = sorted(pr.maximal_elements(p))
        a = maxes[0]
        ctx = pr.derive_poset(p, a)
        for d in all_dimensions(p, 4):
            if not pr.is_finite_type(p, d):
                continue
            for dv in pr.subordinate_dimensions(ctx, d):
                assert pr.is_finite_type(ctx.result, dv)
