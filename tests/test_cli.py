"""End-to-end command-line runs through JSON files."""

import hashlib
import io
import json
import random

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


def test_verify_cli_rejects_the_rationals(tmp_path, capsys, a3_file):
    out = tmp_path / "out.json"
    argv = ["verify", "--poset", a3_file, "--max-total", "2", "--fields", "2,Q", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: class counting requires a finite prime field\n"
    assert not out.exists()


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
    "POSETREP_BUDGET not an integer": (["brute-count"], "many"),
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


def test_validation_errors(tmp_path, capsys, monkeypatch, a3_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _ = run(capsys, "tits", "--poset", str(bad), "--dim", str(bad))
    assert code == 2
    # a file that is not UTF-8, a relation member that is not a string, JSON
    # nested deeper than the parser recurses, a path that is not there, and
    # poset files that are not a list of labels and a list of relations
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"elements": ["\xe9"]}')
    pair = write(tmp_path, "pair.json", {"elements": ["x", "y"], "relations": [["x", ["y"]]]})
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    missing = tmp_path / "missing.json"
    shapes = [write(tmp_path, f"shape{i}.json", obj) for i, obj in enumerate([
        ["x", "y"], {"relations": []}, {"elements": "xy"}, {"elements": ["x", 1]},
        {"elements": ["x", "y"], "relations": "x<y"}])]
    one = write(tmp_path, "one.json", {"0": 1})
    for poset in (latin, pair, deep, missing, *shapes):
        assert main(["tits", "--poset", str(poset), "--dim", one]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # dimension files that are not an object of counts over the poset
    for obj in ({"0": 1, "unknown": 1}, [1], {"0": -1}, {"x": "1"}, {"x": True}):
        assert main(["tits", "--poset", a3_file, "--dim", write(tmp_path, "d.json", obj)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # --poset - reads the poset from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO('{"elements": ["x", "y", "z"], "relations": []}'))
    assert run(capsys, "tits", "--poset", "-", "--dim", one) == (0, {"value": 1})
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
    "blocks a list": {"field": {"p": 2}, "d0": 1, "blocks": [[1]]},
    "characteristic a string": {"field": {"p": "2"}, "d0": 1, "blocks": {}},
    "field a word": {"field": "R", "d0": 1, "blocks": {}},
    "no d0": {"field": {"p": 2}, "blocks": {}},
    "negative d0": {"field": {"p": 2}, "d0": -1, "blocks": {}},
    "block_cols with rows": {"field": {"p": 2}, "d0": 1, "block_cols": {"x": 1}},
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
    "no base": (lambda derived: derived.pop("base"), {"{y,z}": [[1]]}),
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


# sha256 of the bytes the CLI prints for fixed inputs.  A change that alters an
# answer on purpose updates its pin and says so.
PINNED_ANSWERS = {
    "verify a1,a2,b1,b2,c1":
        "7e1d9cb403bcabdb6001995d0831cc2e754768ba11075bc44590139af2b5b23b",
    "verify a1,b2,c1,c2,c3":
        "26c1108a9555c0ab6b8e825c10e2a4472007cdd1dccfc131d3d94d9337ccf433",
    "decompose GF(2) 0":
        "d9c04445f1f51ad11cf6dae66591c18f847bc2501e8c59bdaf11df39b5d09128",
    "decompose GF(2) 1":
        "171cd6b05f2d9322960a0f5093b0f8e7de6a783f36f7352b761abb864f824ebb",
    "decompose GF(2) 2":
        "c612ed7a5e48fbcc196cff54ea83b02634b9ac72a85b7aa667bfec488c3c0b24",
    "decompose GF(2) 3":
        "18be7f06ebebe36784a7250046d2fec8a7ba0fd51bcb68d395db632d48306e27",
    "decompose GF(2) 4":
        "bb40c5901681558901c32f938ebd0c467a1ce3e2a9c9d534a82c623946a44080",
    "decompose GF(2) 5":
        "fc7ec375be7896eceecc0320c6721949918129f075508f6b4adff614188bd588",
    "decompose GF(2) 6":
        "63aeebb5beb58a6dd942c80f551905cc5e974ba47133940b7404b8216e2bf700",
    "decompose GF(2) 7":
        "b695d4667ea0d0af7e45096aa0ab698515feee3ba5b5ad8e9f93c6c4ba140d5c",
    "decompose GF(3) 0":
        "2305ddc340b57084280df6a7d951a6449aca3495a344418603b1fc1e8440a0e9",
    "decompose GF(3) 1":
        "7ca8bd0515db19e2ef4231f6648f6588b68ddfd7d8add7ffab978d74a06d96fc",
    "decompose GF(3) 2":
        "1316d9af7d80b243f8c838b422e349e3bdebb5b4ea72ae999ed50e037e26fee2",
    "decompose GF(3) 3":
        "71ab61b30216ba5ff465e8581d4aff736c74d05dcd52c4ae678ce0f0cd147561",
    "decompose GF(3) 4":
        "32959ff6d4686e89f91c1baaf60d1d31f1850640b2983abc38d6d923f3868ccf",
    "decompose GF(3) 5":
        "9b5c37ad6531c95872abd252a1941d2e9a19f43a971cd5b116433688867a2700",
    "decompose GF(3) 6":
        "2573285598b172d96e48661acbee8bf3eb336e3a267af44ee303e2a27ac2556b",
    "decompose GF(3) 7":
        "aa581dc9e7b609d65ba23117b6407c1561a31e7b76a5ce1c75db312bd8657d7f",
    "decompose Q 0":
        "c6a883df5ecb62d477d7dea1155e065cbd37e4243ac108e0c6a843f16d3aee52",
    "decompose Q 1":
        "390fe8d9c06f8d7e22b11836cf9fd24d37f90f245d2ea17c0261ed8a984b41f9",
    "decompose Q 2":
        "d55dff1dd3d16cfafd0c02525b45e1c2780ba912df5cfa76a3a4964d9475051e",
    "decompose Q 3":
        "9a400a9b945a3954e8787d5dbf553fa998ea4c9490aa2bd8e05f7e58b1b5e539",
    "decompose Q 4":
        "0fd28ddb9da16192253c9c23fdbf538e4fe96d02046e42f1a58bba2879bf4a31",
    "decompose Q 5":
        "1e897ebcfd53c6c925248f4ffeefaff04765a3f8f6a46fb72dc0ae156bd82513",
    "decompose Q 6":
        "2916528fd006ecf5771684bc9b5c93073fd886b7140772d0db64995c698994c5",
    "decompose Q 7":
        "c1456de5a034d54f7055a705088491bf8fdcfe6364d4ecef3083924db37a04ca",
    "differentiate GF(2) 0":
        "610c971493d9171d822358c4e29fc40efbf2840a064717533231ccc1c905b954",
    "differentiate GF(2) 1":
        "b2a2b731d0b7553c85af2817790fbbfaee804cce9753d10e15f9d8dbd83dd03b",
    "differentiate GF(2) 2":
        "5147ee4f3005d0c9358af90ba84124ce3971346c5807c105924351b47771d4e4",
    "differentiate GF(2) 3":
        "319db36e96af56adf37eb44b1feff5fdc097a25990ce357cfc9e9c3453d31a6d",
    "differentiate GF(2) 4":
        "e148f77a0e1c2858ee8df5abfdc9dbce149da9b36ac5fb6b796a26f15d05986b",
    "differentiate GF(2) 5":
        "b2d0758aa8afc50fc839812c1ef66b1f344c04f8cb6a734e0306e68f2abd4beb",
    "differentiate GF(2) 6":
        "610c971493d9171d822358c4e29fc40efbf2840a064717533231ccc1c905b954",
    "differentiate GF(2) 7":
        "a08e52d1f769ba4b70cb4b4760fe679303f1ab96858b87e57ed7939349abf8e8",
    "differentiate GF(3) 0":
        "8e91295b4a9aeb196d9c3a4f639d08ef5f448aa03bd548d83de080a89de34051",
    "differentiate GF(3) 1":
        "1e81a8cb24658b29ba1d05ba04ee3ba37c5397ea614f150a318dee7dab68caa6",
    "differentiate GF(3) 2":
        "1e81a8cb24658b29ba1d05ba04ee3ba37c5397ea614f150a318dee7dab68caa6",
    "differentiate GF(3) 3":
        "4399b7831b6dbd0a2634b8f54440429e1a6971d4ad8a682a9f03b9d076779023",
    "differentiate GF(3) 4":
        "1e81a8cb24658b29ba1d05ba04ee3ba37c5397ea614f150a318dee7dab68caa6",
    "differentiate GF(3) 5":
        "aaefe3d28942223589c8ee5528655a14baa40fe2be8468938c64dc06594f16a8",
    "differentiate GF(3) 6":
        "53ebd88ea55fc112f3cf49dc28e29291e2dc0f8fc5d160312798b7fe383a0b63",
    "differentiate GF(3) 7":
        "85baa2a1cfcd29ce745ef44f6cfd3616e58b30209430f6ecab3fc0ab6686f277",
    "differentiate Q 0":
        "fceb683964d6c7af7db2db912dd07f3aaa9c5f0e7129c3b09f10c500b8557feb",
    "differentiate Q 1":
        "48466d9d74f29de1f5fc40a21ec8253cc7d88466d26d1d8c4be7a28f98c360ba",
    "differentiate Q 2":
        "a2099db3ef4f57e36a32bed7fa9d245c9c1a26eec76d4f28ec214a81b1498819",
    "differentiate Q 3":
        "f338eb699bf4197af22cff06ca601e3e49e02a9563250aa2e4dc73e7fae3e06a",
    "differentiate Q 4":
        "e503852fc03ae2cd60bd3e649440eea6ef705b6a99f414813321f64f9783be53",
    "differentiate Q 5":
        "9a8c379679edddbf8af7d08ad909c8694c4080638b97b4f045bec1ddfc39b279",
    "differentiate Q 6":
        "112d94b2dfc64eab75865ed0406149d91a8c354603ed08cae086f1ed6dc95cd8",
    "differentiate Q 7":
        "a2a56af99df0fb31f6479fc65ea2878946fec841a0cd77382d9502a48fe76f61",
}


def printed_answers(tmp_path, capsys) -> dict[str, str]:
    """Name -> sha256 of the canonical JSON printed by `verify` on two 5-point
    subposets of K at |d| <= 5 over GF(2) and GF(3), and by `decompose` and
    `differentiate` at each maximal pivot on seeded elements over GF(2),
    GF(3) and Q."""
    digests = {}

    def digest(name, *argvs):
        """The sha256 of what main prints for each argv in turn."""
        h = hashlib.sha256()
        for argv in argvs:
            assert main(list(argv)) == 0
            h.update(capsys.readouterr().out.encode())
        digests[name] = h.hexdigest()

    for labels in (("a1", "a2", "b1", "b2", "c1"), ("a1", "b2", "c1", "c2", "c3")):
        sub = pr.induced_subposet(pr.poset_K(), labels)
        poset = write(tmp_path, "k5.json", jsonio.poset_to_json(sub))
        digest(f"verify {','.join(labels)}", ("verify", "--poset", poset,
                                               "--max-total", "5", "--fields", "2,3"))
    rng = random.Random(23)
    shape = {"elements": ["a", "b", "c", "d"], "relations": [["a", "b"]]}
    poset = write(tmp_path, "p.json", shape)
    for name, field, entries in (("GF(2)", {"p": 2}, [0, 0, 1]),
                                 ("GF(3)", {"p": 3}, [0, 0, 1, 2]),
                                 ("Q", "Q", [0, 0, 0, 1, -1, 2, "1/2", "-3/2"])):
        for i in range(8):
            d0 = rng.randint(1, 3)
            blocks = {a: [[rng.choice(entries) for _ in range(cols)] for _ in range(d0)]
                      for a in shape["elements"] if (cols := rng.randint(0, 2))}
            rep = write(tmp_path, "u.json", {"field": field, "d0": d0, "blocks": blocks})
            digest(f"decompose {name} {i}", ("decompose", "--poset", poset, "--rep", rep))
            digest(f"differentiate {name} {i}", *(
                ("differentiate", "--poset", poset, "--rep", rep, "--pivot", a)
                for a in ("b", "c", "d")))  # the maximal elements
    return digests


def test_printed_answers_are_pinned(tmp_path, capsys):
    assert printed_answers(tmp_path, capsys) == PINNED_ANSWERS
