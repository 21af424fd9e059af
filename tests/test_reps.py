"""Elements, representations, hom spaces, decomposition, isomorphism."""

import random

import pytest

import posetrep as pr
from posetrep.linalg import ExactMatrix, hstack
from posetrep.reps import (
    _splitting_idempotent,
    rep_end_dimension,
    split_trivial_columns,
    stacked_lower_blocks,
)

from conftest import (
    all_dimensions,
    block_diag,
    compose,
    direct_sum,
    el_morphism_satisfies,
    local_by_enumeration,
    nilpotent_graph,
    random_element,
)

F2, F3 = pr.GF(2), pr.GF(3)


def three_lines(a3, field=F2):
    return pr.MatrixRep(a3, field, 2, {
        "x": ExactMatrix.from_rows(field, [[1], [0]]),
        "y": ExactMatrix.from_rows(field, [[0], [1]]),
        "z": ExactMatrix.from_rows(field, [[1], [1]]),
    })


def test_dimension_of_examples(a3):
    u = pr.MatrixRep(a3, F2, 3, {})
    assert pr.dimension_of(u) == pr.DimensionVector(3, {})
    t = pr.special_T(a3, F2, "x")
    assert pr.dimension_of(t) == pr.DimensionVector(0, {"x": 1})
    e = pr.antichain_unit_element(a3, F2, ["x"])
    assert pr.dimension_of(e) == pr.DimensionVector(1, {"x": 1})


def test_block_validation(a3):
    with pytest.raises(pr.ValidationError):
        pr.MatrixRep(a3, F2, 2, {"x": ExactMatrix.zeros(F2, 3, 1)})
    with pytest.raises(pr.UnknownElement):
        pr.MatrixRep(a3, F2, 2, {"nope": ExactMatrix.zeros(F2, 2, 1)})
    with pytest.raises(pr.FieldMismatch):
        pr.MatrixRep(a3, F2, 2, {"x": ExactMatrix.zeros(F3, 2, 1)})
    with pytest.raises(pr.UnknownElement):
        pr.SubspaceRep(a3, F2, 2, {"zz": ExactMatrix.identity(F2, 2)})


def test_rho_identity_block_chain():
    chain = pr.build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    u = pr.MatrixRep(chain, F2, 2, {"a": ExactMatrix.identity(F2, 2)})
    v = pr.rho(u)
    for x in chain.elements:
        assert v.dim(x) == 2


def test_rho_trivial_is_zero(a3):
    v = pr.rho(pr.special_T(a3, F2, "x"))
    assert v.ambient_dim == 0
    assert v.dimension_vector() == pr.DimensionVector(0, {})


def test_rho_three_lines(a3):
    v = pr.rho(three_lines(a3))
    assert [v.dim(a) for a in a3.elements] == [1, 1, 1]
    assert v.subspace("x") != v.subspace("y")
    assert v.subspace("x") != v.subspace("z")


def test_lift_examples(a3):
    zero = pr.SubspaceRep(a3, F2, 2, {})
    assert all(pr.lift(zero).cols(a) == 0 for a in a3.elements)
    chain = pr.build_poset(["a", "b"], [("a", "b")])
    line = ExactMatrix.from_rows(F3, [[1], [0]])
    v = pr.SubspaceRep(chain, F3, 2, {"a": line, "b": line})
    u = pr.lift(v)
    assert u.cols("a") == 1 and u.cols("b") == 0


def test_rho_lift_round_trip_random(poset_catalog):
    rng = random.Random(13)
    for p in poset_catalog[40:60]:
        for _ in range(5):
            u = random_element(p, rng, field=F3, d0max=3, colmax=2)
            v = pr.rho(u)
            assert pr.rho(pr.lift(v)) == v


def test_lift_dimension_matches_quotients(poset_catalog):
    rng = random.Random(14)
    for p in poset_catalog[20:35]:
        u = random_element(p, rng, field=F2)
        v = pr.rho(u)
        assert pr.dimension_of(pr.lift(v)) == v.dimension_vector()


def test_special_elements(a3):
    t0 = pr.antichain_unit_element(a3, F2, [])
    assert pr.dimension_of(t0) == pr.DimensionVector(1, {})
    ep = pr.antichain_unit_element(a3, F2, ["x", "y"])
    assert pr.dimension_of(ep) == pr.DimensionVector(1, {"x": 1, "y": 1})
    chain = pr.build_poset(["a", "b"], [("a", "b")])
    with pytest.raises(pr.ValidationError):
        pr.antichain_unit_element(chain, F2, ["a", "b"])
    e_rep = pr.rho(pr.antichain_unit_element(chain, F2, ["a"]))
    assert e_rep.dim("a") == 1 and e_rep.dim("b") == 1  # k at everything above a


def test_direct_sum(a3):
    u = three_lines(a3)
    zero = pr.MatrixRep(a3, F2, 0, {})
    s = direct_sum(u, zero)
    assert pr.dimension_of(s) == pr.dimension_of(u)
    two = direct_sum(u, u)
    assert pr.dimension_of(two) == pr.DimensionVector(4, {"x": 2, "y": 2, "z": 2})
    assert pr.end_dimension(two) == 4 * pr.end_dimension(u)


def test_el_hom_examples(a3):
    a2 = pr.build_poset(["x", "y"], [])
    t = pr.special_T(a3, F2, "x")
    assert len(pr.el_hom_basis(t, t)) == 1
    ex = pr.antichain_unit_element(a2, F2, ["x"])
    ey = pr.antichain_unit_element(a2, F2, ["y"])
    assert pr.el_hom_basis(ex, ey) == []
    u = three_lines(a3)
    # morphisms into a trivial element are unconstrained on the block side
    into_t = pr.el_hom_basis(u, pr.special_T(a3, F2, "x"))
    assert all(m.phi0.rows == 0 for m in into_t)
    # no morphisms out of the trivial element into a sincere indecomposable
    assert pr.el_hom_basis(pr.special_T(a3, F2, "x"), u) == []


def test_el_hom_kernel_identity(poset_catalog):
    """dim ker(phi -> phi0) equals sum of d(a) * nullity of the lower stack."""
    rng = random.Random(15)
    for p in poset_catalog[10:25]:
        u = random_element(p, rng, d0max=2, colmax=1)
        v = random_element(p, rng, d0max=2, colmax=2)
        hom = pr.el_hom_basis(u, v)
        phi0_cols = []
        for m in hom:
            phi0_cols.append([m.phi0.data[i][j]
                              for i in range(m.phi0.rows) for j in range(m.phi0.cols)])
        if hom and phi0_cols[0]:
            mat = ExactMatrix(F2, len(phi0_cols[0]), len(hom),
                              [tuple(c[i] for c in phi0_cols)
                               for i in range(len(phi0_cols[0]))])
            image_rank = mat.rank()
        else:
            image_rank = 0
        kernel_dim = len(hom) - image_rank
        expected = sum(
            u.cols(a) * len(hstack([stacked_lower_blocks(v, a), v.blocks[a]]).nullspace_basis())
            for a in p.elements
        )
        assert kernel_dim == expected


def test_rep_hom_examples(a3):
    v = pr.rho(three_lines(a3))
    assert rep_end_dimension(v) == 1
    zero = pr.SubspaceRep(a3, F2, 0, {})
    assert pr.rep_hom_basis(v, zero) == []
    double = pr.rho(direct_sum(three_lines(a3), three_lines(a3)))
    assert len(pr.rep_hom_basis(v, double)) == 2


def test_fullness(poset_catalog):
    """dim rep_hom equals the rank of the ambient components of el_hom."""
    rng = random.Random(16)
    for p in poset_catalog[25:40]:
        for field in (F2, F3):
            u = random_element(p, rng, field=field, d0max=2, colmax=1)
            w = random_element(p, rng, field=field, d0max=2, colmax=1)
            hom = pr.el_hom_basis(u, w)
            flat = [[m.phi0.data[i][j] for i in range(m.phi0.rows)
                     for j in range(m.phi0.cols)] for m in hom]
            if hom and flat[0]:
                mat = ExactMatrix(field, len(flat[0]), len(hom),
                                  [tuple(c[i] for c in flat)
                                   for i in range(len(flat[0]))])
                rank = mat.rank()
            else:
                rank = 0
            assert rank == len(pr.rep_hom_basis(pr.rho(u), pr.rho(w)))


def test_hom_solutions_satisfy_block_equations(poset_catalog):
    rng = random.Random(18)
    for p in poset_catalog[12:22]:
        u = random_element(p, rng, d0max=2, colmax=1)
        endos = pr.el_hom_basis(u, u)
        for phi in endos:
            assert el_morphism_satisfies(phi, u, u)
        for phi in endos[:3]:
            for psi in endos[:3]:
                prod = compose(psi, phi, p)
                assert el_morphism_satisfies(prod, u, u)
                assert prod.phi0 == psi.phi0 @ phi.phi0


def test_rho_carries_morphisms(poset_catalog):
    """Each morphism's ambient map sends lower-cone spans into the target's."""
    rng = random.Random(19)
    for p in poset_catalog[5:15]:
        u = random_element(p, rng, d0max=2, colmax=1)
        w = random_element(p, rng, d0max=2, colmax=1)
        target = pr.rho(w)
        for phi in pr.el_hom_basis(u, w):
            for a in p.elements:
                moved = phi.phi0 @ hstack([stacked_lower_blocks(u, a), u.blocks[a]])
                assert hstack([target.subspace(a), moved]).rank() == target.dim(a)


def test_end_dimension_examples(a3):
    u = three_lines(a3)
    assert pr.end_dimension(u) == 1
    assert rep_end_dimension(pr.rho(u)) == 1
    assert pr.end_dimension(pr.special_T(a3, F2, "x")) == 1


def test_is_indecomposable(a3):
    ex = pr.antichain_unit_element(a3, F2, ["x"])
    assert pr.is_indecomposable(ex)
    two = direct_sum(ex, pr.antichain_unit_element(a3, F2, ["y"]))
    assert not pr.is_indecomposable(two)
    assert pr.is_indecomposable(three_lines(a3))
    assert pr.is_indecomposable(pr.special_T(a3, F2, "x"))
    assert not pr.is_indecomposable(pr.MatrixRep(a3, F2, 0, {}))  # zero element
    t0 = pr.antichain_unit_element(a3, F2, [])
    t0_pair = direct_sum(t0, t0)
    assert not pr.is_indecomposable(t0_pair)


def test_idempotent_search_past_the_basis_scan(a4):
    """A local End of dimension 2: no basis element splits it.  Over GF(p)
    the enumeration of End decides, and gives up past its budget; over Q the
    radical decides, End/J = Q, before any scan that budget bounds."""
    for field in (F2, F3, pr.QQ):
        u = nilpotent_graph(a4, field)
        assert pr.is_indecomposable(u)
        assert len(pr.decompose(u).pieces) == 1
        assert rep_end_dimension(pr.rho(u)) == pr.end_dimension(u) == 2
        if field.p:
            with pytest.raises(pr.UndecidableAtBudget):
                pr.is_indecomposable(u, budget=3)
        else:
            assert pr.is_indecomposable(u, budget=0)


def companion_graph(a4, field, k, d):
    """Four k-spaces in F^2k on the 4-antichain: the first and the last k
    coordinates, the graph of the identity and the graph of the companion
    matrix T of t^k - d.  End = F[T] = F[t]/(t^k - d): local exactly when
    t^k - d is a power of an irreducible polynomial over F."""
    def graph(m):
        return [[int(i == j) for i in range(k)] + list(col) for j, col in enumerate(m)]

    T = [[d if (j, i) == (k - 1, 0) else int(i == j + 1) for i in range(k)] for j in range(k)]
    identity = [[int(i == j) for i in range(k)] for j in range(k)]
    columns = {"w": graph([[0] * k] * k), "x": [[0] * k + c for c in identity],
               "y": graph(identity), "z": graph(T)}
    return pr.MatrixRep(a4, field, 2 * k, {a: from_columns(field, 2 * k, c)
                                           for a, c in columns.items()})


@pytest.mark.parametrize("k, d, field, pieces", [
    (2, 2, pr.QQ, 1), (2, 2, F2, 1), (2, 2, F3, 1), (2, 2, pr.GF(5), 1), (2, 2, pr.GF(7), 2),
    (2, -1, pr.QQ, 1), (2, -1, pr.GF(5), 2), (2, 4, pr.QQ, 2),
    (3, 8, pr.QQ, 2), (3, 2, pr.QQ, None), (3, 2, F3, 1), (3, 2, pr.GF(5), 2),
    (3, 2, pr.GF(7), 1),
], ids=lambda x: x.label() if isinstance(x, pr.FieldSpec) else str(x))
def test_end_decided_past_the_basis_scan(a4, k, d, field, pieces):
    """End = F[t]/(t^k - d), which no basis element splits.  Over GF(p) the
    enumeration of End decides: 2 is a square mod 7, -1 one mod 5, 3^3 = 2
    mod 5, t^3 - 2 = (t + 1)^3 mod 3 and 2 is no cube mod 7.  Over Q the
    radical quotient decides a quadratic: t^2 - 2 and t^2 + 1 are
    irreducible, t^2 - 4 is not; and a rational eigenvalue splits t^3 - 8.
    Q(2^(1/3)) is a field of dimension 3, which the Q decision leaves open."""
    u = companion_graph(a4, field, k, d)
    assert pr.end_dimension(u) == k
    if field.p is None:  # the eigenvalue scan counts its candidates against budget
        with pytest.raises(pr.UndecidableAtBudget):
            pr.is_indecomposable(u, budget=2)
    if pieces is None:
        with pytest.raises(pr.UndecidableAtBudget):
            pr.is_indecomposable(u)
        return
    assert pr.is_indecomposable(u) == (pieces == 1)
    result = pr.decompose(u)
    assert len(result.pieces) == pieces and not result.trivials
    assert all(pr.is_indecomposable(piece) for piece in result.pieces)
    assert pr.are_isomorphic(rebuilt(u), u) is not None


@pytest.mark.parametrize("field", [pr.QQ, F3], ids=lambda f: f.label())
def test_end_split_by_a_combination_of_its_basis(field):
    """The lines <e0 + e1> and <e0 - e1> on a 2-antichain: End is spanned by
    the swap and the identity, both invertible, and the idempotent is
    (I + swap)/2, in neither basis element's Fitting decomposition."""
    a2 = pr.build_poset(["x", "y"], [])
    u = pr.MatrixRep(a2, field, 2, {"x": from_columns(field, 2, [[1, 1]]),
                                    "y": from_columns(field, 2, [[1, -1]])})
    swap = ExactMatrix.from_rows(field, [[0, 1], [1, 0]])
    basis = {m.f for m in pr.rep_hom_basis(pr.rho(u), pr.rho(u))}
    assert basis == {swap, ExactMatrix.identity(field, 2)}
    assert not pr.is_indecomposable(u)
    result = pr.decompose(u)
    assert [pr.dimension_of(m) for m in result.pieces] == [
        pr.DimensionVector(1, {"x": 1}), pr.DimensionVector(1, {"y": 1})]


@pytest.mark.parametrize("field", [F2, F3], ids=lambda f: f.label())
def test_locality_matches_enumeration(poset_catalog, a4, field):
    """Over GF(p), End is local iff each of its elements is nilpotent or
    invertible.  That oracle agrees with the idempotent search on 100 seeded
    random elements per field: half on the catalog, half four random planes
    in F^4, which often have a local End of dimension 2 or more.  A split
    comes with a nontrivial idempotent endomorphism."""
    rng = random.Random(20 + field.p)
    small = [p for p in poset_catalog if len(p.elements) <= 4]
    checked = local_past_one = 0
    while checked < 100:
        if checked % 2:
            u = random_element(rng.choice(small), rng, field=field, d0max=3, colmax=2)
        else:
            u = pr.MatrixRep(a4, field, 4, {a: from_columns(field, 4, [
                [rng.randrange(field.p) for _ in range(4)] for _ in range(2)])
                for a in a4.elements})
        v = pr.rho(u)
        basis = [m.f for m in pr.rep_hom_basis(v, v)]
        if field.p ** len(basis) > 3 ** 6:  # the oracle enumerates End
            continue
        checked += 1
        e = _splitting_idempotent(v)
        local = local_by_enumeration(basis, v.ambient_dim, field)
        assert (e is None) == local
        local_past_one += local and len(basis) > 1
        if e is not None:
            assert e @ e == e and not e.is_zero() and e != ExactMatrix.identity(field, e.rows)
            assert all(hstack([v.subspace(a), e @ v.subspace(a)]).rank() == v.dim(a)
                       for a in v.poset.elements)
    assert local_past_one > 0


def test_split_trivial_columns(a3):
    u = three_lines(a3)
    t = pr.special_T(a3, F2, "x")
    mixed = direct_sum(u, t)
    reduced, trivials = split_trivial_columns(mixed)
    assert trivials == {"x": 1}
    assert pr.dimension_of(reduced) == pr.dimension_of(u)


def test_are_isomorphic_examples(a3):
    u = three_lines(a3)
    ident = pr.are_isomorphic(u, u)
    assert ident is not None and ident.is_invertible()
    swapped = pr.MatrixRep(a3, F2, 2, {
        "x": ExactMatrix.from_rows(F2, [[0], [1]]),
        "y": ExactMatrix.from_rows(F2, [[1], [0]]),
        "z": ExactMatrix.from_rows(F2, [[1], [1]]),
    })
    phi = pr.are_isomorphic(u, swapped)
    assert phi is not None and phi.is_invertible()
    a2 = pr.build_poset(["x", "y"], [])
    ex = pr.antichain_unit_element(a2, F2, ["x"])
    assert pr.are_isomorphic(ex, pr.antichain_unit_element(a2, F2, ["y"])) is None


def test_are_isomorphic_over_rationals(a3):
    u = three_lines(a3, field=pr.QQ)
    twin = pr.MatrixRep(a3, pr.QQ, 2, {
        "x": ExactMatrix.from_rows(pr.QQ, [["1/2"], [0]]),
        "y": ExactMatrix.from_rows(pr.QQ, [[0], [3]]),
        "z": ExactMatrix.from_rows(pr.QQ, [[2], [2]]),
    })
    phi = pr.are_isomorphic(u, twin)
    assert phi is not None and phi.is_invertible()


def conjugate(u, g, h):
    """g·M(a)·h(a) at each a: an element isomorphic to u (h(a) defaults to 1)."""
    return pr.MatrixRep(u.poset, u.field, u.d0, {
        a: g @ u.blocks[a] @ h.get(a, ExactMatrix.identity(u.field, u.cols(a)))
        for a in u.poset.elements})


def rebuilt(u):
    """The direct sum of u's decomposition, trivial summands last."""
    d = pr.decompose(u)
    out = pr.MatrixRep(u.poset, u.field, 0, {})
    for piece in d.pieces:
        out = direct_sum(out, piece)
    for a, count in d.trivials.items():
        for _ in range(count):
            out = direct_sum(out, pr.special_T(u.poset, u.field, a))
    return out


def from_columns(field, d0, columns):
    return ExactMatrix.from_rows(field, [list(r) for r in zip(*columns)]) if columns \
        else ExactMatrix.zeros(field, d0, 0)


def plane_lines(a4, field, slope):
    """Four lines in the plane on the 4-antichain: e0, e1, e0 + e1 and
    e0 + slope·e1; the slope is a cross-ratio, so distinct slopes give
    non-isomorphic indecomposables with one dimension vector."""
    cols = {"w": [[1, 0]], "x": [[0, 1]], "y": [[1, 1]], "z": [[1, slope]]}
    return pr.MatrixRep(a4, field, 2, {a: from_columns(field, 2, c) for a, c in cols.items()})


@pytest.mark.parametrize("field", [F2, F3, pr.QQ], ids=lambda f: f.label())
def test_are_isomorphic_certificates_past_the_basis_scan(a3, a4, field):
    """Pairs whose hom basis holds no invertible element, so the decision and
    the certificate come from matched summands.  Every certificate satisfies
    the block equations and is invertible; equal dimension vectors without
    matching summands give None."""
    def e(*members):
        return pr.antichain_unit_element(a3, field, members)

    t = pr.special_T(a3, field, "x")
    g2 = ExactMatrix.from_rows(field, [[1, 1], [0, 1]])
    g3 = ExactMatrix.from_rows(field, [[0, 1, 1], [1, 0, 1], [0, 0, 1]])
    swap = ExactMatrix.from_rows(field, [[0, 1], [1, 0]])
    cycle = ExactMatrix.from_rows(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    xx = direct_sum(e("x"), e("x"))
    # a trivial column between independent ones: x holds e0, 0, e1
    gap = pr.MatrixRep(a3, field, 2, {"x": from_columns(field, 2, [[1, 0], [0, 0], [0, 1]])})
    mixed = direct_sum(direct_sum(e("x", "y"), e("z")), direct_sum(t, e("y")))
    lines_y = direct_sum(three_lines(a3, field), e("y"))
    isomorphic = [
        (xx, conjugate(xx, g2, {})),
        (xx, conjugate(xx, g2, {"x": swap})),
        (gap, conjugate(gap, g2, {"x": cycle})),
        (direct_sum(xx, t), conjugate(direct_sum(t, xx), g2, {"x": cycle})),
        (mixed, rebuilt(mixed)),
        (mixed, conjugate(mixed, g3, {"y": swap})),
        (lines_y, conjugate(rebuilt(lines_y), g3, {})),
    ]
    if field.p != 2:  # over GF(2) a plane has only three lines
        twice = direct_sum(plane_lines(a4, field, 2), plane_lines(a4, field, 2))
        isomorphic.append((twice, conjugate(rebuilt(twice), block_diag(g2, g2), {})))
    graph, ex = nilpotent_graph(a4, field), pr.antichain_unit_element(a4, field, ["x"])
    # summands with a local End of dimension 2, which no basis element splits
    isomorphic += [(direct_sum(graph, ex), direct_sum(ex, graph)),
                   (direct_sum(graph, graph), rebuilt(direct_sum(graph, graph)))]
    for u, v in isomorphic:
        assert pr.dimension_of(u) == pr.dimension_of(v)
        assert not any(h.is_invertible() for h in pr.el_hom_basis(u, v))
        for a, b in ((u, v), (v, u)):
            phi = pr.are_isomorphic(a, b)
            assert phi is not None and phi.is_invertible()
            assert el_morphism_satisfies(phi, a, b)
    zero_rows = direct_sum(t, pr.special_T(a3, field, "y"))
    phi = pr.are_isomorphic(zero_rows, zero_rows)
    assert phi.is_invertible() and el_morphism_satisfies(phi, zero_rows, zero_rows)
    # equal dimension vectors, summands that do not match
    apart = pr.MatrixRep(a3, field, 2, {"x": from_columns(field, 2, [[1, 0]]),
                                        "y": from_columns(field, 2, [[0, 1]])})
    together = pr.MatrixRep(a3, field, 2, {"x": from_columns(field, 2, [[1, 0]]),
                                           "y": from_columns(field, 2, [[1, 0]])})
    # z on w's line against z on y's; over Q two cross-ratios
    u, w = (plane_lines(a4, field, c) for c in ((2, 3) if field.p is None else (0, 1)))
    # the trivial columns differ, so no idempotent search runs: w holds
    # three independent columns
    planes = ExactMatrix.from_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 1]])
    graph_w = pr.MatrixRep(a4, field, 4, {**graph.blocks, "w": planes})
    different = [(apart, together), (direct_sum(gap, e()), direct_sum(xx, e("x"))),
                 (u, w), (direct_sum(u, ex), direct_sum(ex, w)),
                 (direct_sum(graph, pr.special_T(a4, field, "w")), graph_w)]
    for u, v in different:
        assert pr.dimension_of(u) == pr.dimension_of(v)
        assert pr.are_isomorphic(u, v) is None and pr.are_isomorphic(v, u) is None


def test_el_hom_field_mismatch(a3):
    with pytest.raises(pr.FieldMismatch):
        pr.el_hom_basis(pr.antichain_unit_element(a3, F2, ["x"]),
                        pr.antichain_unit_element(a3, F3, ["x"]))


def test_decompose_examples(a3):
    e = pr.antichain_unit_element(a3, F2, ["x"])
    two = direct_sum(e, e)
    result = pr.decompose(two)
    assert len(result.pieces) == 2
    assert all(pr.are_isomorphic(p, e) is not None for p in result.pieces)
    ey = pr.antichain_unit_element(a3, F2, ["y"])
    mixed = direct_sum(pr.special_T(a3, F2, "x"), ey)
    result = pr.decompose(mixed)
    assert result.trivials == {"x": 1}
    assert len(result.pieces) == 1
    assert pr.are_isomorphic(result.pieces[0], ey) is not None
    zero = pr.MatrixRep(a3, F2, 0, {})
    result = pr.decompose(zero)
    assert result.pieces == () and result.trivials == {}


def test_decompose_sincere_has_no_trivials(a3):
    u = three_lines(a3)
    lifted = pr.lift(pr.rho(u))
    result = pr.decompose(lifted)
    assert result.trivials == {}
    assert len(result.pieces) == 1


def test_krull_schmidt_double_decompose(poset_catalog):
    rng = random.Random(17)
    for p in poset_catalog[45:55]:
        u = random_element(p, rng, d0max=3, colmax=2)
        first = pr.decompose(u)
        rebuilt = None
        for piece in first.pieces:
            rebuilt = piece if rebuilt is None else direct_sum(rebuilt, piece)
        for a, count in first.trivials.items():
            for _ in range(count):
                t = pr.special_T(p, F2, a)
                rebuilt = t if rebuilt is None else direct_sum(rebuilt, t)
        if rebuilt is None:
            rebuilt = pr.MatrixRep(p, F2, 0, {})
        assert pr.dimension_of(rebuilt) == pr.dimension_of(u)
        second = pr.decompose(rebuilt)
        assert dict(second.trivials) == dict(first.trivials)
        firsts = sorted(pr.dimension_of(q).key() for q in first.pieces)
        seconds = sorted(pr.dimension_of(q).key() for q in second.pieces)
        assert firsts == seconds
        remaining = list(second.pieces)
        for piece in first.pieces:
            idx = next(i for i, q in enumerate(remaining)
                       if pr.are_isomorphic(piece, q) is not None)
            remaining.pop(idx)
        assert not remaining
        assert pr.are_isomorphic(u, rebuilt) is not None


def test_column_independence_of_sincere_indecomposables(a3):
    u = three_lines(a3)
    for a in a3.elements:
        stack = hstack([stacked_lower_blocks(u, a), u.blocks[a]])
        assert stack.rank() == stack.cols


def test_diamond_vanishing():
    """On a diamond x > y,z > t, finite-type indecomposables vanish at x or t."""
    diamond = pr.build_poset(["t", "y", "z", "x"],
                             [("t", "y"), ("t", "z"), ("y", "x"), ("z", "x")])
    assert pr.critical_subposet_embeddings(diamond) == []
    for d in all_dimensions(diamond, 6):
        if pr.tits_value(diamond, d) != 1 or d.d0 == 0:
            continue
        for u in pr.brute_force_indecomposables(diamond, d, F2):
            dd = pr.dimension_of(u)
            assert dd.get("x") == 0 or dd.get("t") == 0, dd
