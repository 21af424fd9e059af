"""End-to-end command-line runs through JSON files."""

import json

import pytest

import posetrep as pr
from posetrep import jsonio
from posetrep.cli import main
from posetrep.linalg import ExactMatrix

from conftest import nilpotent_graph


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def a3_file(tmp_path):
    return write(tmp_path, "a3.json", {"elements": ["x", "y", "z"], "relations": []})


def test_tits_chain_example(tmp_path, capsys):
    poset = write(tmp_path, "chain3.json",
                  {"elements": ["a", "b", "c"], "relations": [["a", "b"], ["b", "c"]]})
    dim = write(tmp_path, "d.json", {"0": 1})
    code, out = run(capsys, "tits", "--poset", poset, "--dim", dim)
    assert code == 0 and out == {"value": 1}


def test_check_finite_type_critical(tmp_path, capsys):
    poset = write(tmp_path, "a4.json", {"elements": ["w", "x", "y", "z"], "relations": []})
    dim = write(tmp_path, "c1.json", {"0": 2, "w": 1, "x": 1, "y": 1, "z": 1})
    code, out = run(capsys, "check-finite-type", "--poset", poset, "--dim", dim)
    assert code == 0
    assert out["finite_type"] is False
    assert out["witness"]["kind"] == "A4"
    assert out["witness"]["c0"] == 2


def test_criticals_chain(tmp_path, capsys):
    poset = write(tmp_path, "chain.json",
                  {"elements": ["a", "b"], "relations": [["a", "b"]]})
    code, out = run(capsys, "criticals", "--poset", poset)
    assert code == 0
    assert out == {"embeddings": [], "representation_finite": True}


def test_derive_integrate_files_match_memory(tmp_path, capsys, a3):
    """File-level derive + integrate reproduces the in-memory result exactly."""
    a3_file = write(tmp_path, "a3.json", {"elements": ["x", "y", "z"], "relations": []})
    code, derived = run(capsys, "derive", "--poset", a3_file, "--pivot", "x")
    assert code == 0
    assert derived["pairs"] == [
        {"element": "{y,z}", "members": ["y", "z"], "prime": "y", "second": "z"}
    ]
    derived_file = write(tmp_path, "sx.json", derived)
    rep_file = write(tmp_path, "v.json",
                     {"field": {"p": 2}, "d0": 1, "blocks": {"{y,z}": [[1]]}})
    code, integrated = run(capsys, "integrate", "--derived", derived_file,
                           "--rep", rep_file)
    assert code == 0
    ctx = pr.derive_poset(a3, "x")
    v = pr.MatrixRep(ctx.result, pr.GF(2), 1,
                     {"{y,z}": ExactMatrix.from_rows(pr.GF(2), [[1]])})
    expected = jsonio.rep_to_json(pr.integrate(v, ctx))
    assert jsonio.canonical_dumps(integrated) == jsonio.canonical_dumps(expected)


def test_differentiate_round_trip(tmp_path, capsys, a3_file):
    rep = write(tmp_path, "u.json", {
        "field": {"p": 2}, "d0": 2,
        "blocks": {"x": [[1], [0]], "y": [[0], [1]], "z": [[1], [1]]},
    })
    code, out = run(capsys, "differentiate", "--poset", a3_file, "--pivot", "x",
                    "--rep", rep)
    assert code == 0
    assert out["rep"]["d0"] == 1
    assert out["rep"]["blocks"] == {"{y,z}": [[1]]}


def test_construct_cli(tmp_path, capsys, a3_file):
    dim = write(tmp_path, "d.json", {"0": 2, "x": 1, "y": 1, "z": 1})
    code, out = run(capsys, "construct", "--poset", a3_file, "--dim", dim,
                    "--field", "2")
    assert code == 0
    assert out["is_root"] is True
    assert out["indecomposable"]["blocks"] == {
        "x": [[1], [0]], "y": [[0], [1]], "z": [[1], [1]],
    }


def test_brute_count_cli(tmp_path, capsys, a3_file):
    dim = write(tmp_path, "d.json", {"0": 2, "x": 1, "y": 1, "z": 1})
    code, out = run(capsys, "brute-count", "--poset", a3_file, "--dim", dim,
                    "--field", "3")
    assert code == 0
    assert out == {"iso_classes": 5, "indecomposables": 1, "level": "representation"}


def test_decompose_cli(tmp_path, capsys, a3_file):
    rep = write(tmp_path, "u.json", {
        "field": {"p": 2}, "d0": 2,
        "blocks": {"x": [[1, 1], [0, 0]], "y": [[0], [1]]},
    })
    code, out = run(capsys, "decompose", "--poset", a3_file, "--rep", rep)
    assert code == 0
    assert out["trivials"] == {"x": 1}
    assert len(out["pieces"]) == 2


def test_decompose_cli_past_budget(tmp_path, capsys, a4):
    poset = write(tmp_path, "a4.json", jsonio.poset_to_json(a4))
    rep = write(tmp_path, "u.json", jsonio.rep_to_json(nilpotent_graph(a4, pr.GF(2))))
    code, out = run(capsys, "decompose", "--poset", poset, "--rep", rep)
    assert code == 0 and len(out["pieces"]) == 1
    assert main(["decompose", "--poset", poset, "--rep", rep, "--budget", "3"]) == 3
    assert capsys.readouterr().err.startswith("budget: ")


def test_verify_cli_a3(tmp_path, capsys, a3_file):
    code, out = run(capsys, "verify", "--poset", a3_file,
                    "--max-total", "6", "--fields", "2,3")
    assert code == 0
    assert isinstance(out, list) and len(out) == 210
    assert all(report["ok"] for report in out)


def test_verify_cli_rejects_bad_field(capsys, a3_file):
    code = main(["verify", "--poset", a3_file, "--max-total", "1", "--fields", "2,x"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


OUT_OF_RANGE = {
    "verify max-total -1": (["verify", "--max-total", "-1"], None),
    "verify no fields": (["verify", "--fields", ""], None),
    "verify blank fields": (["verify", "--fields", " , "], None),
    "verify budget -5": (["verify", "--budget", "-5"], None),
    "brute-count budget -1": (["brute-count", "--budget", "-1"], None),
    "POSETREP_BUDGET -1": (["brute-count"], "-1"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_input_exits_2(tmp_path, capsys, monkeypatch, a3_file, case):
    """An out-of-range flag or POSETREP_BUDGET is a validation error, not an
    empty verification (exit 0) or an exhausted budget (exit 3)."""
    argv, env = OUT_OF_RANGE[case]
    if env is not None:
        monkeypatch.setenv("POSETREP_BUDGET", env)
    argv = [argv[0], "--poset", a3_file, *argv[1:]]
    if argv[0] == "brute-count":
        argv += ["--dim", write(tmp_path, "d.json", {"0": 1, "x": 1})]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_round_trip_reparse(tmp_path, capsys, a3_file):
    code, out = run(capsys, "derive", "--poset", a3_file, "--pivot", "x")
    ctx = jsonio.derived_from_json(out)
    assert jsonio.canonical_dumps(jsonio.derived_to_json(ctx)) == jsonio.canonical_dumps(out)


def test_validation_errors(tmp_path, capsys, a3_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _ = run(capsys, "tits", "--poset", str(bad), "--dim", str(bad))
    assert code == 2
    # a file that is not UTF-8, and a relation member that is not a string
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"elements": ["\xe9"]}')
    pair = write(tmp_path, "pair.json", {"elements": ["x", "y"], "relations": [["x", ["y"]]]})
    one = write(tmp_path, "one.json", {"0": 1})
    for poset in (latin, pair):
        code, _ = run(capsys, "tits", "--poset", str(poset), "--dim", one)
        assert code == 2
    dim = write(tmp_path, "d.json", {"0": 1, "unknown": 1})
    code, _ = run(capsys, "tits", "--poset", a3_file, "--dim", dim)
    assert code == 2
    dim_ok = write(tmp_path, "ok.json", {"0": 1})
    code, _ = run(capsys, "brute-count", "--poset", a3_file, "--dim", dim_ok,
                  "--field", "4")
    assert code == 2


def test_label_zero_is_reserved(tmp_path, capsys):
    """"0" keys the ambient dimension in dimension JSON, so no element may
    carry it: verify would print (1; ) and (0; 0:1) both as {"0": 1}."""
    poset = write(tmp_path, "p.json", {"elements": ["0", "a"], "relations": [["0", "a"]]})
    dim = write(tmp_path, "d.json", {"0": 1, "a": 1})
    assert main(["verify", "--poset", poset, "--max-total", "2", "--fields", "2"]) == 2
    assert main(["tits", "--poset", poset, "--dim", dim]) == 2
    assert capsys.readouterr().err.count("error: ") == 2
    assert "0" in pr.build_poset(["0", "a"], [("0", "a")])  # only JSON reserves it


MALFORMED_REPS = {
    "null entry": {"field": {"p": 2}, "d0": 1, "blocks": {"x": [[None]]}},
    "string block_cols": {"field": {"p": 2}, "d0": 0, "block_cols": {"x": "2"}},
    "word entry over Q": {"field": "Q", "d0": 1, "blocks": {"x": [["x"]]}},
    "float entry": {"field": {"p": 2}, "d0": 1, "blocks": {"x": [[1.5]]}},
    "zero denominator": {"field": "Q", "d0": 1, "blocks": {"x": [["1/0"]]}},
    "row not a list": {"field": {"p": 2}, "d0": 1, "blocks": {"x": [1]}},
}


MALFORMED_PAIRS = {
    "pair without members": lambda pair: pair.pop("members"),
    "pair label a list": lambda pair: pair.update(element=["y", "z"]),
    "pair with one member": lambda pair: pair.update(members=["y"]),
    "prime not a member": lambda pair: pair.update(prime="x"),
}


# whole derived-poset files that are not the derivation they name, with the
# blocks of an element that integrate would otherwise accept beside them
MALFORMED_DERIVED = {
    "derived keeps the pivot": (
        lambda derived: derived.update(
            derived={"elements": ["x", "y", "z"], "relations": []}, pairs=[]),
        {"x": [[1]]}),
    "pivot a list": (lambda derived: derived.update(pivot=["x"]), {"{y,z}": [[1]]}),
}


@pytest.mark.parametrize("case", [*MALFORMED_REPS, *MALFORMED_PAIRS, *MALFORMED_DERIVED])
def test_malformed_json_exits_2(tmp_path, capsys, a3, a3_file, case):
    """Malformed input is a validation error (exit 2), never a traceback or
    the exit 1 of a failed verification, and never silently misread."""
    if case in MALFORMED_PAIRS or case in MALFORMED_DERIVED:
        derived = jsonio.derived_to_json(pr.derive_poset(a3, "x"))
        blocks = {"{y,z}": [[1]]}
        if case in MALFORMED_PAIRS:
            MALFORMED_PAIRS[case](derived["pairs"][0])
        else:
            mutate, blocks = MALFORMED_DERIVED[case]
            mutate(derived)
        rep = {"field": {"p": 2}, "d0": 1, "blocks": blocks}
        argv = ["integrate", "--derived", write(tmp_path, "sx.json", derived),
                "--rep", write(tmp_path, "v.json", rep)]
    else:
        argv = ["decompose", "--poset", a3_file,
                "--rep", write(tmp_path, "u.json", MALFORMED_REPS[case])]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_budget_exit_code(tmp_path, capsys, a3_file, monkeypatch):
    monkeypatch.setenv("POSETREP_BUDGET", "1")
    # a dimension no other test enumerates, so the census cache cannot mask it
    dim = write(tmp_path, "d.json", {"0": 3, "x": 2, "y": 2, "z": 2})
    code, _ = run(capsys, "brute-count", "--poset", a3_file, "--dim", dim,
                  "--field", "2")
    assert code == 3


def test_out_flag_writes_file(tmp_path, capsys, a3_file):
    dim = write(tmp_path, "d.json", {"0": 1})
    target = tmp_path / "result.json"
    code = main(["tits", "--poset", a3_file, "--dim", dim, "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text()) == {"value": 1}


def test_poset_and_dimension_round_trip(kposet):
    blob = jsonio.poset_to_json(kposet)
    assert jsonio.poset_from_json(blob) == kposet
    d = pr.DimensionVector(5, {"a1": 1, "a2": 2})
    assert jsonio.dimension_from_json(jsonio.dimension_to_json(d), kposet) == d
    assert jsonio.dimension_from_json({}, kposet) == pr.DimensionVector(0, {})


def test_budget_flag(tmp_path, capsys, a3_file):
    dim = write(tmp_path, "d.json", {"0": 3, "x": 2, "y": 2, "z": 1})
    code, _ = run(capsys, "brute-count", "--poset", a3_file, "--dim", dim,
                  "--field", "2", "--budget", "1")
    assert code == 3


def test_rational_entries_round_trip(tmp_path, a3):
    u = pr.MatrixRep(a3, pr.QQ, 1, {
        "x": ExactMatrix.from_rows(pr.QQ, [["1/2", 2]]),
    })
    blob = jsonio.rep_to_json(u)
    assert blob["blocks"]["x"] == [["1/2", 2]]
    parsed = jsonio.rep_from_json(blob, a3)
    assert parsed == u


def test_degenerate_block_round_trip(a3):
    t = pr.special_T(a3, pr.GF(2), "x")
    blob = jsonio.rep_to_json(t)
    assert blob["block_cols"] == {"x": 1}
    assert jsonio.rep_from_json(blob, a3) == t
