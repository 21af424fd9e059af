"""One round of one workload in a fresh interpreter, so posetrep's caches
start empty.  Run by run.py, from the root of a checkout, as

    python3 perfbench/round.py --workload NAME --seed N --workdir DIR [--trace PATH]

It builds the inputs, times each item, then collects what the checks need
(outside the timed loop) and prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction

import workloads

import posetrep as pr
from posetrep import cli, jsonio  # noqa: F401  (loaded so tracing can patch them)


def poset_of(obj):
    return pr.build_poset(obj["elements"], [tuple(r) for r in obj["relations"]])


def dim_of(poset, vec):
    return pr.DimensionVector(vec[0], dict(zip(poset.elements, vec[1:])))


def field_of(f):
    return pr.QQ if f == "Q" else pr.GF(f)


def entry(x):
    return x if isinstance(x, int) else str(Fraction(x))


def element_json(u):
    """The element in the CLI's JSON layout: rows per block, or column counts
    when there are no rows."""
    if u.d0 == 0:
        return {"d0": 0, "block_cols": {a: m.cols for a, m in u.blocks.items() if m.cols}}
    return {"d0": u.d0, "blocks": {a: [[entry(x) for x in row] for row in m.data]
                                   for a, m in u.blocks.items() if m.cols}}


def build(workload, data, items, workdir, class_counts):
    """(calls, post): one zero-argument call per item, and post(i, result),
    the output of item i that the checks read."""
    if workload == "scan_sweep":
        posets = [poset_of(obj) for obj in data["scan"]["posets"]]
        args = [(posets[i], pr.DimensionVector(d0, dict(zip(posets[i].elements, vals))))
                for i, d0, vals in items]
        calls = [lambda p=p, d=d: (pr.finite_type_scan(p, d), pr.is_finite_type(p, d))
                 for p, d in args]
        return calls, lambda i, r: [int(r[0]), int(r[1])]

    if workload == "census_sweep":
        posets = [poset_of(obj) for obj in data["census"]["posets"]]
        args = []
        for kind, a, b, p in items:
            if kind == "el":
                poset = posets[a]
                args.append((pr.el_indecomposable_count, poset, dim_of(poset, b), pr.GF(p)))
            else:
                poset = pr.build_poset([f"x{i}" for i in range(a)], [])
                d = pr.DimensionVector(b, {x: 1 for x in poset.elements})
                args.append((pr.count_iso_classes, poset, d, pr.GF(p)))
        calls = [lambda f=f, p=p, d=d, k=k: f(p, d, k) for f, p, d, k in args]

        def post(i, r):
            # the class count for the field-independence check; a cache hit by now
            f, p, d, k = args[i]
            if class_counts and f is pr.el_indecomposable_count:
                return [r, pr.count_iso_classes(p, d, k)]
            return [r]
        return calls, post

    if workload == "construct_roots":
        posets = [poset_of(obj) for obj in data["construct"]["posets"]]
        args = [(posets[i], dim_of(posets[i], vec), field_of(f)) for i, vec, f in items]
        calls = [lambda p=p, d=d, f=f: pr.construct_indecomposable(p, d, f)
                 for p, d, f in args]
        return calls, lambda i, u: [None, None] if u is None else [pr.end_dimension(u),
                                                                   element_json(u)]

    if workload == "verify_cli":
        spec = data["verify"]
        os.makedirs(workdir, exist_ok=True)
        calls = []
        for i in items:
            src = os.path.join(workdir, f"poset{i}.json")
            with open(src, "w", encoding="utf-8") as fh:
                json.dump(spec["posets"][i], fh)
            argv = ["verify", "--poset", src, "--max-total", str(spec["max_total"]),
                    "--fields", spec["fields"], "--out", os.path.join(workdir, f"out{i}.json")]
            calls.append(lambda argv=argv: cli.main(argv))
        return calls, lambda i, rc: rc
    raise SystemExit(f"unknown workload {workload!r}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", default=None, help="write spans here and report layers")
    ap.add_argument("--class-counts", action="store_true",
                    help="census_sweep: also read each class count after the timed loop")
    args = ap.parse_args()

    here = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(pr.__file__).startswith(here + os.sep):
        raise SystemExit(f"posetrep imported from {pr.__file__}, not from {here}")
    data = workloads.load_inputs()
    items = workloads.ITEMS[args.workload](data, args.seed)
    calls, post = build(args.workload, data, items, args.workdir, args.class_counts)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    times = []
    results = []
    clock = time.perf_counter
    first = time.monotonic()
    t_begin = clock()
    for call in calls:
        t0 = clock()
        try:
            results.append(call())
        except Exception as exc:  # a failed item is counted, not fatal
            results.append(exc)
        times.append(clock() - t0)
    wall = clock() - t_begin
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if tracer is not None:
        layers = tracer.summary()
        tracer.save(args.trace)
    outputs = []
    for i, r in enumerate(results):
        try:
            outputs.append(None if isinstance(r, Exception) else post(i, r))
        except Exception:  # the program failed while the checks' data was read
            outputs.append(None)
    out = {"first_item": first, "wall_s": wall, "times": times, "rss_kb": rss_kb,
           "outputs": outputs, "layers": layers}
    sys.stdout.write(json.dumps(out, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
