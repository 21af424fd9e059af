"""Benchmark of posetrep: one command, four workloads, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round of a workload runs in a fresh interpreter (round.py), so the
program's caches start empty; rounds repeat until S seconds have passed.
With --trace 0 the last line of output is a JSON object with the end-to-end
metrics, with --trace 1 one with the per-layer metrics from traced rounds
that alternate with untraced ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import oracles
import tracing
import workloads

ROUND_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("item_p50_ms", "ms"), ("item_p99_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Checker:
    """Checks a round's outputs with the benchmark's own code.  Values that
    depend only on the inputs are computed once per run."""

    def __init__(self, workload, data, items, workdir):
        self.workload, self.data, self.items, self.workdir = workload, data, items, workdir
        self.cache = {}

    def memo(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]

    def poset(self, section, index):
        return self.memo(("poset", section, index), lambda: workloads.as_poset(
            self.data[section]["posets"][index]))

    def bad_items(self, outputs):
        """Indices of the items whose outputs are wrong."""
        check = getattr(self, self.workload)
        return [i for i, (item, out) in enumerate(zip(self.items, outputs))
                if out is not None and not check(i, item, out, outputs)]

    def scan_sweep(self, i, item, out, outputs):
        pi, d0, vals = item
        scan, dominance = out
        if scan != dominance:
            return False
        if i % self.data["scan"]["sample_every"]:
            return True
        poset = self.poset("scan", pi)
        exhaustive = self.memo(("scan", i), lambda: oracles.positive_on_subvectors(
            poset, d0, dict(zip(poset[0], vals))))
        return bool(scan) == exhaustive

    def census_sweep(self, i, item, out, outputs):
        kind, a, b, p = item
        if kind == "count":
            return out == [self.memo(("burnside", a, b, p),
                                     lambda: oracles.burnside_point_tuples(a, b, p))]
        poset = self.poset("census", a)
        q = oracles.tits_form(poset, b[0], dict(zip(poset[0], b[1:])))
        if out[0] != (1 if q == 1 else 0):
            return False
        if len(out) == 1:
            return True
        # the same d over the other field must have as many classes
        pairs = self.memo("pairs", lambda: {
            (it[1], it[2], it[3]): j for j, it in enumerate(self.items) if it[0] == "el"})
        other = [pairs[(a, b, f)] for f in self.data["census"]["fields"] if f != p]
        return all(outputs[j] is None or outputs[j][1] == out[1] for j in other)

    def construct_roots(self, i, item, out, outputs):
        pi, vec, field = item
        poset = self.poset("construct", pi)
        values = {a: v for a, v in zip(poset[0], vec[1:]) if v}
        if oracles.tits_form(poset, vec[0], values) != 1 or out[0] != 1:
            return False
        return element_ok(poset, out[1], None if field == "Q" else field, vec[0], values)

    def verify_cli(self, i, item, out, outputs):
        spec = self.data["verify"]
        poset = self.poset("verify", item)
        if out != 0:
            return False
        with open(os.path.join(self.workdir, f"out{item}.json"), encoding="utf-8") as fh:
            reports = json.load(fh)
        n_fields = len(spec["fields"].split(","))
        expected = math.comb(spec["max_total"] + len(poset[0]) + 1, spec["max_total"])
        return len(reports) == expected and all(
            self.report_ok(poset, r, n_fields) for r in reports)

    @staticmethod
    def report_ok(poset, r, n_fields):
        dim = dict(r["dimension"])
        d0 = dim.pop("0", 0)
        root = oracles.tits_form(poset, d0, dim) == 1
        counts = r["iso_class_counts"]
        if (r["notes"] or not r["ok"] or not r["finite_type"] or r["is_root"] != root
                or (r["indecomposable"] is not None) != root
                or len(counts) != n_fields or len(set(counts.values())) != 1):
            return False
        if not root:
            return True
        u = r["indecomposable"]
        p = u["field"]["p"] if isinstance(u["field"], dict) else None
        return r["end_dim"] == 1 and element_ok(poset, u, p, d0, dim)


def element_ok(poset, element, p, d0, values):
    """Has the element, in the CLI's JSON layout, dimension (d0, values)?  With
    rows, each d(a) is a rank difference of stacked blocks; without, a column count."""
    if element["d0"] == 0:
        got = (0, element.get("block_cols", {}))
    else:
        got = oracles.element_dimension(poset, element["d0"], element["blocks"], p)
    return got == (d0, values)


def run_round(args, env, workdir, traced, first):
    cmd = [sys.executable, os.path.join("perfbench", "round.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir]
    if first:
        # class counts depend only on the inputs, so one round per run reads them
        cmd.append("--class-counts")
    if traced:
        cmd += ["--trace", os.path.join("perfbench", "out",
                                        f"spans-{args.workload}-{args.seed}.npz")]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round of {args.workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_item"] - spawned
    return result


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "posetrep", "__init__.py")):
        sys.exit(f"no posetrep package under {src}: run from the root of a checkout")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    workdir = os.path.join("perfbench", "out", f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    # compile posetrep's bytecode before any round is timed
    subprocess.run([sys.executable, "-c", "import posetrep.cli"], env=env, check=True,
                   timeout=ROUND_TIMEOUT_S)

    data = workloads.load_inputs()
    items = workloads.ITEMS[args.workload](data, args.seed)
    checker = Checker(args.workload, data, items, workdir)
    plain, traced = [], []
    attempted = failed = 0
    correct = True
    start = time.monotonic()
    while (not plain or (args.trace and not traced)
           or time.monotonic() - start < args.seconds):
        trace_this = bool(args.trace) and len(traced) < len(plain)
        result = run_round(args, env, workdir, trace_this, not plain)
        (traced if trace_this else plain).append(result)
        attempted += len(items)
        sys.stderr.write(f"round {len(plain) + len(traced)}{' traced' if trace_this else ''}: "
                         f"wall {result['wall_s']:.4f} s, "
                         f"item p50 {statistics.median(result['times']) * 1e3:.4f} ms, "
                         f"setup {result['setup_s']:.4f} s, "
                         f"rss {result['rss_kb']} KB\n")
        failed += sum(1 for out in result["outputs"] if out is None)
        bad = checker.bad_items(result["outputs"])
        if bad:
            correct = False
            sys.stderr.write(f"{len(bad)} wrong outputs, first item {items[bad[0]]!r}\n")

    if args.trace:
        # counts repeat exactly, so the first traced round gives them
        metrics = {}
        for k in tracing.metric_names():
            if k == "trace.overhead_s":
                metrics[k] = {"value": statistics.median(r["wall_s"] for r in traced)
                              - statistics.median(r["wall_s"] for r in plain), "unit": "s"}
            elif k.endswith(".self_s"):
                metrics[k] = {"value": statistics.median(r["layers"][k] for r in traced),
                              "unit": "s"}
            else:
                metrics[k] = {"value": traced[0]["layers"][k],
                              "unit": "count" if k.endswith(".calls") else "ratio"}
    else:
        times = sorted(t for r in plain for t in r["times"])
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "item_p50_ms": statistics.median(times) * 1e3,
            "item_p99_ms": percentile(times, 0.99) * 1e3,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in plain) / 1024,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
