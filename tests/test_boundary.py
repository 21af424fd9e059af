"""Check at the boundary, trust inside: every value the package builds
through _of equals what the checked public constructor makes of the same
data, and the public constructors still reject every malformed input."""

import sys

import pytest

import posetrep as pr
from posetrep.linalg import ExactMatrix
from posetrep.poset import Poset
from posetrep.reps import MatrixRep, SubspaceRep, _find_splitting_idempotent

from conftest import check_trusted_matrix, cold, direct_sum, positive_roots

F2, F3 = pr.GF(2), pr.GF(3)


def record(monkeypatch, cls) -> list:
    """Wrap cls._of; the list it fills with (calling function, value)."""
    made, original = [], cls._of

    def trusted(*args):
        value = original(*args)
        made.append((sys._getframe(1).f_code.co_name, value))
        return value

    monkeypatch.setattr(cls, "_of", staticmethod(trusted))
    return made


def test_trusted_values_equal_checked(monkeypatch, a3, a4):
    """Construction, a census with its lifted indecomposables, a
    decomposition and an isomorphism past the hom basis scan run every
    producer that trusts its data; each value it made is one the checked
    constructor makes of the same data."""
    made = {cls: record(monkeypatch, cls)
            for cls in (ExactMatrix, MatrixRep, SubspaceRep, Poset)}
    cold()
    p124 = pr.primitive_poset(1, 2, 4)
    built = [pr.construct_indecomposable(p124, d, f)
             for d in positive_roots(p124)[::7] for f in (F3, pr.QQ)]
    lines = pr.brute_force_indecomposables(
        a4, pr.DimensionVector(2, dict.fromkeys(a4.elements, 1)), F2)
    # the census indexes this support in its canonical order a1, c4, b1, b2
    d = pr.DimensionVector(2, dict.fromkeys(["a1", "b1", "b2", "c4"], 1))
    assert len(pr.brute_force_indecomposables(p124, d, F2)) == 1
    assert pr.special_T(a3, F2, "y").cols("y") == 1
    assert pr.induced_subposet(p124, ["c4", "a1", "b1"]).elements == ("a1", "b1", "c4")
    three = pr.construct_indecomposable(
        a3, pr.DimensionVector(2, dict.fromkeys(a3.elements, 1)), F2)
    twice = direct_sum(three, direct_sum(three, pr.antichain_unit_element(a3, F2, ["x"])))
    assert len(pr.decompose(twice).pieces) == 3
    assert len(pr.decompose(direct_sum(built[-1], built[-1])).pieces) == 2
    assert pr.end_dimension(three) == 1
    ex = pr.antichain_unit_element(a3, F3, ["x"])
    sheared = MatrixRep(a3, F3, 2, {"x": ExactMatrix.from_rows(F3, [[1, 1], [0, 1]])})
    assert pr.are_isomorphic(direct_sum(ex, ex), sheared).is_invertible()
    assert pr.differentiate(pr.rho(three), "x").ambient_dim == 1
    assert pr.differentiate(pr.rho(built[-1]), "c4").field == pr.QQ
    twice_e = ExactMatrix.from_rows(F3, [[2, 0], [0, 0]])  # not idempotent: a Fitting split
    assert _find_splitting_idempotent([twice_e, ExactMatrix.identity(F3, 2)], 2, F3) == \
        ExactMatrix.from_rows(F3, [[1, 0], [0, 0]])
    assert len(lines) == 6 and all(u is not None for u in built)
    monkeypatch.undo()

    callers = {cls: {name for name, _ in values} for cls, values in made.items()}
    assert callers[Poset] >= {"build_poset", "induced_subposet", "derive_poset",
                              "_canonical_relabelling", "_build_root", "_cold_census",
                              "_lift_configs"}
    assert callers[SubspaceRep] >= {"rho", "_restrict_rep", "_cold_census", "_lift_configs",
                                    "differentiate"}
    assert callers[MatrixRep] >= {"lift", "split_trivial_columns", "integrate",
                                  "_construct_root", "_lift_configs", "special_T",
                                  "antichain_unit_element"}
    assert callers[ExactMatrix] >= {
        "take_columns", "_reduced", "__matmul__", "rref", "identity", "zeros", "hstack",
        "column_matrix", "solve_columns", "_vector_to_morphism", "el_hom_basis",
        "rep_hom_basis", "assemble", "_lift_isomorphism"}
    for _, m in made[ExactMatrix]:
        check_trusted_matrix(m)
    for _, u in made[MatrixRep]:
        assert list(u.blocks) == list(u.poset.elements)
        assert u == MatrixRep(u.poset, u.field, u.d0, u.blocks)
    assert any(v.field == pr.QQ for name, v in made[SubspaceRep] if name == "differentiate")
    for _, v in made[SubspaceRep]:
        assert list(v.rows) == list(v.poset.elements)
        bases = {a: v.subspace(a) for a in v.poset.elements}
        for m in bases.values():
            check_trusted_matrix(m)
        assert v == SubspaceRep(v.poset, v.field, v.ambient_dim, bases)
    for _, q in made[Poset]:
        checked = Poset(q.elements, q.relation_pairs())
        assert (q.elements, q._index, q._below, q._above, q._pairs) == (
            checked.elements, checked._index, checked._below, checked._above, checked._pairs)


def test_public_constructors_still_check(a3):
    chain = pr.build_poset(["a", "b"], [("a", "b")])
    e1, e2 = ExactMatrix.from_rows(F2, [[1], [0]]), ExactMatrix.from_rows(F2, [[0], [1]])
    malformed = [
        (pr.ValidationError, lambda: ExactMatrix(F2, -1, 0, [])),
        (pr.ValidationError, lambda: ExactMatrix(F2, 1.0, 0, [()])),
        (pr.ValidationError, lambda: ExactMatrix(F2, 1, "1", [[1]])),
        (pr.ValidationError, lambda: ExactMatrix("GF(2)", 1, 1, [[1]])),
        (pr.ValidationError, lambda: ExactMatrix(F2, 1, 2, [[1]])),
        (pr.ValidationError, lambda: ExactMatrix(F2, 1, 1, [[2]])),
        (pr.ValidationError, lambda: ExactMatrix.identity(F2, -1)),
        (pr.ValidationError, lambda: ExactMatrix.identity(F2, 1.5)),
        (pr.ValidationError, lambda: ExactMatrix.zeros(F2, 1.5, 0)),
        (pr.ValidationError, lambda: ExactMatrix.zeros(F2, 0, -1)),
        (pr.ValidationError, lambda: ExactMatrix.from_rows("GF2", [[1]])),
        (pr.ValidationError, lambda: MatrixRep(a3, F2, -1, {})),
        (pr.ValidationError, lambda: MatrixRep(a3, F2, 1.5, {})),
        (pr.ValidationError, lambda: MatrixRep(a3, F2, "2", {})),
        (pr.ValidationError, lambda: MatrixRep(a3, F2, 1, {"x": [[1]]})),
        (pr.ValidationError, lambda: MatrixRep(a3, 2, 1, {})),
        (pr.ValidationError, lambda: MatrixRep(a3, F2, 2, {"x": ExactMatrix.zeros(F2, 3, 1)})),
        (pr.FieldMismatch, lambda: MatrixRep(a3, F2, 2, {"x": ExactMatrix.zeros(F3, 2, 1)})),
        (pr.UnknownElement, lambda: MatrixRep(a3, F2, 2, {"w": ExactMatrix.zeros(F2, 2, 1)})),
        (pr.UnknownElement, lambda: SubspaceRep(a3, F2, 2, {"w": e1})),
        (pr.ValidationError, lambda: SubspaceRep(a3, F2, 3, {"x": e1})),
        (pr.ValidationError, lambda: SubspaceRep(a3, F2, 1.5, {})),
        (pr.ValidationError, lambda: SubspaceRep(a3, F2, "2", {})),
        (pr.ValidationError, lambda: SubspaceRep(a3, F2, 2, {"x": [[1], [0]]})),
        (pr.ValidationError, lambda: SubspaceRep(a3, "GF(2)", 2, {})),
        (pr.ValidationError, lambda: SubspaceRep(a3, F3, 2, {"x": e1})),
        (pr.ValidationError, lambda: SubspaceRep(chain, F2, 2, {"a": e1, "b": e2})),
        (pr.DuplicateLabel, lambda: Poset(["a", "a"], [])),
        (pr.ValidationError, lambda: Poset([1], [])),
        (pr.UnknownElement, lambda: Poset(["a"], [("a", "b")])),
        (pr.CycleDetected, lambda: Poset(["a"], [("a", "a")])),
        (pr.CycleDetected, lambda: Poset(["a", "b"], [("a", "b"), ("b", "a")])),
        (pr.ValidationError, lambda: Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])),
        (pr.ValidationError, lambda: Poset(["a", "b"], [("a", "b", "c")])),
        (pr.ValidationError, lambda: pr.build_poset(["a", "b"], [("a",)])),
        (pr.ValidationError, lambda: Poset(["a", "b"], ["ab"])),
    ]
    for error, build in malformed:
        with pytest.raises(error):
            build()
    # a relation is a list or a tuple of two labels, in Poset as in build_poset
    assert Poset(["a", "b"], [["a", "b"]]) == pr.build_poset(["a", "b"], [["a", "b"]]) == chain
    # the checked constructors canonicalize and fill in what the caller left out
    v = SubspaceRep(a3, F2, 2, {"x": ExactMatrix.from_rows(F2, [[1, 1], [0, 1]])})
    assert v.subspace("x") == ExactMatrix.identity(F2, 2) and v.dim("y") == 0
    u = MatrixRep(a3, F2, 2, {"z": e1})
    assert list(u.blocks) == ["x", "y", "z"] and u.cols("x") == 0
