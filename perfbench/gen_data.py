"""Regenerate perfbench/data/inputs.json, the benchmark's committed inputs.

Run from the repository root:

    python3 perfbench/gen_data.py

Everything is built with the benchmark's own code (oracles.py), never with
posetrep, and checked against numbers known apart from the program.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "data", "inputs.json")

# OEIS A000112: unlabelled posets on 1..5 points.
A000112 = (1, 2, 5, 16, 63)
# Distinct 5-, 6- and 7-point subposets of K up to isomorphism, and the roots
# with |d| <= 11 on the construction posets, as the brute force finds them.
K_SUBPOSETS = {5: 7, 6: 6, 7: 4}
CONSTRUCT_ROOTS = 689

# The critical poset K of the paper: a2 < a1, b2 < b1, b2 < a1 and the
# 4-chain c1 < c2 < c3 < c4.
K = (["a1", "a2", "b1", "b2", "c1", "c2", "c3", "c4"],
     [("a2", "a1"), ("b2", "b1"), ("b2", "a1"),
      ("c1", "c2"), ("c2", "c3"), ("c3", "c4")])

CONSTRUCT_MAX_TOTAL = 11
# At |d| <= 7 the census sweep adds GF(3) censuses at d0 = 4..6 of 1-2 s each,
# and its rounds spread too widely between runs on a shared machine.
CENSUS_MAX_TOTAL = 6
SCAN_DRAW = 12_000
REFERENCE_SEEDS = list(range(1, 11))


def primitive(*lengths):
    """Disjoint union of chains; chain i is labelled <letter>1 < <letter>2 < ..."""
    elements, relations = [], []
    for i, n in enumerate(lengths):
        labels = [f"{chr(ord('a') + i)}{j + 1}" for j in range(n)]
        elements += labels
        relations += list(zip(labels, labels[1:]))
    return oracles.closure(elements, relations)


def posets_on(n):
    """One poset per isomorphism class on n points.  Every poset has a linear
    extension, so the transitively closed relations inside i < j cover them all."""
    labels = [f"e{i}" for i in range(n)]
    pairs = list(itertools.combinations(labels, 2))
    found = []
    for mask in range(1 << len(pairs)):
        lt = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if oracles.closure(labels, lt)[1] == lt:
            found.append((tuple(labels), frozenset(lt)))
    return oracles.distinct_up_to_iso(found)


def k_subposets(size):
    k = oracles.closure(*K)
    subs = [oracles.induced(k, combo) for combo in itertools.combinations(k[0], size)]
    return oracles.distinct_up_to_iso(subs)


def to_json(poset):
    elements, lt = poset
    order = {a: i for i, a in enumerate(elements)}
    return {"elements": list(elements),
            "relations": sorted(([a, b] for a, b in lt),
                                key=lambda ab: (order[ab[0]], order[ab[1]]))}


def roots(poset, max_total):
    """Every nonzero d with |d| <= max_total and Q(d) = 1, as [d0, d(a)...]."""
    elements = poset[0]
    out = []
    for vec in oracles.dimension_vectors(len(elements) + 1, max_total):
        if any(vec) and oracles.tits_form(poset, vec[0], dict(zip(elements, vec[1:]))) == 1:
            out.append(list(vec))
    return out


def main():
    small = [p for n in range(1, 6) for p in posets_on(n)]
    sizes = tuple(sum(1 for p in small if len(p[0]) == n) for n in range(1, 6))
    if sizes != A000112:
        sys.exit(f"poset counts {sizes} differ from A000112 {A000112}")
    subs = {n: k_subposets(n) for n in (5, 6, 7)}
    if {n: len(v) for n, v in subs.items()} != K_SUBPOSETS:
        sys.exit(f"subposets of K: {[len(v) for v in subs.values()]}, expected {K_SUBPOSETS}")
    construct_posets = [primitive(1, 2, 4), primitive(1, 2, 2), primitive(1, 3, 2),
                        primitive(1, 1, 1)] + subs[6] + subs[7]
    census_posets = [primitive(1, 1, 1), primitive(4), primitive(1, 1, 2)] + subs[5]
    root_lists = [roots(p, CONSTRUCT_MAX_TOTAL) for p in construct_posets]
    if sum(map(len, root_lists)) != CONSTRUCT_ROOTS:
        sys.exit(f"{sum(map(len, root_lists))} construction roots, expected {CONSTRUCT_ROOTS}")
    data = {
        "generator": "python3 perfbench/gen_data.py",
        "checks": {
            "posets_per_size": list(sizes),
            "k_subposets_per_size": {str(n): len(v) for n, v in subs.items()},
            "construct_roots": sum(map(len, root_lists)),
        },
        "seeds": {
            "rule": "each round draws from random.Random(f'{workload}:{seed}') "
                    "with the --seed of the run; children run with PYTHONHASHSEED=0",
            "reference_seeds": REFERENCE_SEEDS,
        },
        "scan": {"posets": [to_json(p) for p in small], "d0_max": 4,
                 "entries": [0, 1, 2], "draw": SCAN_DRAW, "sample_every": 40},
        "census": {"posets": [to_json(p) for p in census_posets], "max_total": CENSUS_MAX_TOTAL,
                   "fields": [2, 3],
                   "antichains": [[m, n, p] for m in (4, 5) for n in (2, 3)
                                  for p in (2, 3) if (m, n, p) != (5, 3, 3)]},
        "construct": {"posets": [to_json(p) for p in construct_posets],
                      "max_total": CONSTRUCT_MAX_TOTAL, "fields": ["Q", 2, 3],
                      "roots": root_lists},
        "verify": {"posets": [to_json(p) for p in subs[5]], "max_total": 6,
                   "fields": "2,3"},
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(json.dumps(data["checks"]))


if __name__ == "__main__":
    main()
