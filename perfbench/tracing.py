"""Per-layer tracing from outside the program.

install() wraps the public functions of each posetrep module in every module
that binds them, so internal calls through a module's own imported name are
seen too.  Each call records a span (name, start, end, parent) in memory;
spans are written out and reduced to per-function counts and self times
when the round ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

FUNCTIONS = {
    "poset": ("critical_subposet_embeddings", "canonical_form", "induced_subposet",
              "build_poset"),
    "tits": ("finite_type_scan", "dominated_critical", "tits_value"),
    "linalg": ("column_space_basis", "complete_to_full_rank"),
    "reps": ("rep_hom_basis", "el_hom_basis", "is_indecomposable", "are_isomorphic",
             "decompose", "rho", "lift"),
    "derivation": ("derive_poset", "subordinate_dimensions", "integrate"),
    "classify": ("rep_iso_census", "construct_indecomposable",
                 "brute_force_indecomposables", "verify_main_theorem"),
    "cli": ("main",),
    "jsonio": ("report_to_json",),
}
# ExactMatrix.rref is split by the field of the matrix.
RREF = ("linalg.rref_gf", "linalg.rref_q")
NAMES = tuple(f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs) + RREF
RATIOS = ("classify.construct_fallback_ratio", "derivation.integrate_useful_ratio")


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = [f"{n}.{kind}" for n in NAMES for kind in ("calls", "self_s")]
    return out + list(RATIOS) + ["trace.overhead_s"]


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.roots_built = 0

    def _wrap(self, fn, name_of, on_result=None):
        start, end, name, parent, stack = (self.start, self.end, self.name,
                                           self.parent, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_of(args))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_root(self, result):
        # d0 >= 2 means the root came from an accepted integrate
        if result is not None and result.d0 >= 2:
            self.roots_built += 1

    def install(self):
        """Patch every binding of every traced function in loaded posetrep modules."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "posetrep" or k.startswith("posetrep.")]
        for mod, funcs in FUNCTIONS.items():
            home = sys.modules[f"posetrep.{mod}"]
            for fname in funcs:
                original = getattr(home, fname)
                nid = NAMES.index(f"{mod}.{fname}")
                hook = self._count_root if fname == "construct_indecomposable" else None
                wrapper = self._wrap(original, lambda args, nid=nid: nid, hook)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        matrix = sys.modules["posetrep.linalg"].ExactMatrix
        gf, q = NAMES.index(RREF[0]), NAMES.index(RREF[1])
        matrix.rref = self._wrap(matrix.rref,
                                 lambda args: gf if args[0].field.kind == "gf" else q)

    def save(self, path):
        np.savez_compressed(path, names=np.array(NAMES), start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32))

    def summary(self):
        """Calls and self seconds per traced function, plus the two ratios."""
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        n, k = len(NAMES), len(dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=n)
        calls = np.bincount(name, minlength=n)
        out = {}
        for i, nm in enumerate(NAMES):
            out[f"{nm}.calls"] = int(calls[i])
            out[f"{nm}.self_s"] = float(self_s[i])

        construct = NAMES.index("classify.construct_indecomposable")
        brute = NAMES.index("classify.brute_force_indecomposables")

        def under_construct(idx):
            idx = parent[idx]
            while idx >= 0:
                if name[idx] == construct:
                    return True
                idx = parent[idx]
            return False

        top = sum(1 for i in np.flatnonzero(name == construct) if not under_construct(i))
        fallbacks = sum(1 for i in np.flatnonzero(name == brute) if under_construct(i))
        integrates = out["derivation.integrate.calls"]
        out[RATIOS[0]] = fallbacks / top if top else 0.0
        out[RATIOS[1]] = self.roots_built / integrates if integrates else 0.0
        return out
