"""The four workloads as plain data, shared by the runner and each round.

No posetrep import here: items are tuples of labels and integers, built from
the committed inputs and the run's seed, so the runner can check a round's
outputs without the program under test.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan_sweep", "census_sweep", "construct_roots", "verify_cli")


def load_inputs():
    with open(os.path.join(HERE, "data", "inputs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def as_poset(obj):
    return oracles.closure(obj["elements"], obj["relations"])


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def scan_items(data, seed):
    """A seeded draw of (poset index, d0, entries) from the criterion-2 sweep."""
    spec = data["scan"]
    population = [
        (i, d0, vals)
        for i, p in enumerate(spec["posets"])
        for d0 in range(spec["d0_max"] + 1)
        for vals in itertools.product(spec["entries"], repeat=len(p["elements"]))
    ]
    return rng_for("scan_sweep", seed).sample(population, spec["draw"])


def census_items(data, seed):
    """("el", poset index, vector, p) for every |d| <= max_total and field, and
    ("count", m, n, p) for the antichain censuses, in a seeded order."""
    spec = data["census"]
    items = [("el", i, vec, p)
             for i, obj in enumerate(spec["posets"])
             for vec in oracles.dimension_vectors(len(obj["elements"]) + 1, spec["max_total"])
             for p in spec["fields"]]
    items += [("count", m, n, p) for m, n, p in spec["antichains"]]
    rng_for("census_sweep", seed).shuffle(items)
    return items


def construct_items(data, seed):
    """(poset index, vector, field) for every root and field, in a seeded order."""
    spec = data["construct"]
    items = [(i, tuple(vec), f)
             for i, vecs in enumerate(spec["roots"]) for vec in vecs
             for f in spec["fields"]]
    rng_for("construct_roots", seed).shuffle(items)
    return items


def verify_items(data, seed):
    """Poset indices of the distinct 5-point subposets of K, in a seeded order."""
    items = list(range(len(data["verify"]["posets"])))
    rng_for("verify_cli", seed).shuffle(items)
    return items


ITEMS = {"scan_sweep": scan_items, "census_sweep": census_items,
         "construct_roots": construct_items, "verify_cli": verify_items}
