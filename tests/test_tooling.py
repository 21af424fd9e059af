"""The benchmark's traced mode looks up library names by string; an API cut
that drops one of them must fail here, not only under `--trace 1`."""

import importlib
import importlib.util
import pathlib

import posetrep as pr
from posetrep.linalg import ExactMatrix

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{name}" for mod, names in tracing.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"posetrep.{mod}"), name, None))]
    assert missing == []
    # the elimination spans wrap this method and split it by field kind
    assert callable(ExactMatrix.rref)
    assert pr.GF(2).kind == "gf" and pr.QQ.kind != "gf"
