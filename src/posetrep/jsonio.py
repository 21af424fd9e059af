"""JSON codecs for the artifact's file formats.

Output is canonical: sorted keys, compact separators, zero entries omitted,
so byte-for-byte comparisons of round-tripped files are meaningful.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .classify import ClassificationReport
from .derivation import DerivedPoset, derive_poset
from .errors import ValidationError
from .linalg import QQ, ExactMatrix, FieldSpec, GF
from .poset import Poset, build_poset, strict_lower_cone
from .reps import MatrixRep
from .tits import DimensionVector


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _json_object(obj: dict, key: str) -> dict:
    got = obj.get(key) or {}
    if not isinstance(got, dict):
        raise ValidationError(f"{key!r} must be an object")
    return got


# -- posets ------------------------------------------------------------------


def _covers(p: Poset) -> list[list[str]]:
    below = {x: strict_lower_cone(p, x) for x in p.elements}
    out = [[a, b] for a, b in p.relation_pairs() if not any(a in below[c] for c in below[b])]
    out.sort(key=lambda ab: (p.index(ab[0]), p.index(ab[1])))
    return out


def poset_to_json(p: Poset) -> dict:
    return {"elements": list(p.elements), "relations": _covers(p)}


def poset_from_json(obj) -> Poset:
    if not isinstance(obj, dict) or "elements" not in obj:
        raise ValidationError("poset JSON must be an object with an 'elements' list")
    elements = obj["elements"]
    relations = obj.get("relations", [])
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ValidationError("poset elements must be a list of strings")
    if "0" in elements:
        raise ValidationError('the label "0" is reserved for the ambient dimension')
    if not isinstance(relations, list) or not all(
        isinstance(r, (list, tuple)) and len(r) == 2 and all(isinstance(x, str) for x in r)
        for r in relations
    ):
        raise ValidationError("poset relations must be a list of [a, b] string pairs")
    return build_poset(elements, [tuple(r) for r in relations])


# -- dimension vectors ----------------------------------------------------------


def dimension_to_json(d: DimensionVector) -> dict:
    out = {a: v for a, v in d.values.items()}
    if d.d0:
        out["0"] = d.d0
    return out


def dimension_from_json(obj, p: Poset) -> DimensionVector:
    if not isinstance(obj, dict):
        raise ValidationError("dimension JSON must be an object")
    d0 = 0
    values = {}
    for k, v in obj.items():
        if not _is_count(v):
            raise ValidationError(f"dimension entry {k!r} must be a non-negative integer")
        if k == "0":
            d0 = v
        else:
            p.check_element(k)
            values[k] = v
    return DimensionVector(d0, values)


# -- fields and matrices -----------------------------------------------------------


def field_to_json(f: FieldSpec):
    return {"p": f.p} if f.is_prime_field else "Q"


def field_from_json(obj) -> FieldSpec:
    if obj == "Q" or obj == "q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"p"}:
        if not isinstance(obj["p"], int):
            raise ValidationError("field characteristic must be an integer")
        return GF(obj["p"])
    raise ValidationError("field JSON must be {'p': prime} or 'Q'")


def parse_field_flag(text: str) -> FieldSpec:
    if text.upper() == "Q":
        return QQ
    try:
        return GF(int(text))
    except ValueError as exc:
        raise ValidationError(f"--field must be a prime or Q, got {text!r}") from exc


def _entry_to_json(x, f: FieldSpec):
    if f.is_prime_field:
        return int(x)
    frac = Fraction(x)
    return int(frac) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _entry_from_json(x, f: FieldSpec):
    """An integer or an "a/b" string, coerced into f."""
    if (isinstance(x, int) and not isinstance(x, bool)) or (
            isinstance(x, str) and _RATIONAL.fullmatch(x)):
        try:
            return f.coerce(x)
        except ZeroDivisionError:
            pass
    raise ValidationError(f"matrix entry {x!r} must be an integer or an 'a/b' string")


def matrix_to_json(m: ExactMatrix) -> list:
    return [[_entry_to_json(x, m.field) for x in row] for row in m.data]


def rep_to_json(u: MatrixRep) -> dict:
    blocks = {}
    degenerate = {}
    for a, m in u.blocks.items():
        if m.cols == 0:
            continue
        if u.d0 == 0:
            degenerate[a] = m.cols
        else:
            blocks[a] = matrix_to_json(m)
    out = {"field": field_to_json(u.field), "d0": u.d0, "blocks": blocks}
    if degenerate:
        out["block_cols"] = degenerate
    return out


def rep_from_json(obj, p: Poset) -> MatrixRep:
    if not isinstance(obj, dict) or "d0" not in obj:
        raise ValidationError("representation JSON must carry 'field', 'd0', 'blocks'")
    f = field_from_json(obj.get("field", {"p": 2}))
    d0 = obj["d0"]
    if not _is_count(d0):
        raise ValidationError("'d0' must be a non-negative integer")
    blocks = {}
    for a, rows in _json_object(obj, "blocks").items():
        p.check_element(a)
        if not isinstance(rows, list) or len(rows) != d0 or not all(
                isinstance(row, list) for row in rows):
            raise ValidationError(f"block {a!r} must be a list of {d0} rows")
        entries = [[_entry_from_json(x, f) for x in row] for row in rows]
        blocks[a] = ExactMatrix(f, d0, len(entries[0]) if entries else 0, entries)
    for a, cols in _json_object(obj, "block_cols").items():
        p.check_element(a)
        if d0 != 0:
            raise ValidationError("'block_cols' only describes zero-row blocks")
        if not _is_count(cols):
            raise ValidationError(f"'block_cols' entry {a!r} must be a non-negative integer")
        blocks[a] = ExactMatrix.zeros(f, 0, cols)
    return MatrixRep(p, f, d0, blocks)


# -- derived posets -------------------------------------------------------------------


def derived_to_json(ctx: DerivedPoset) -> dict:
    return {
        "base": poset_to_json(ctx.base),
        "pivot": ctx.pivot,
        "derived": poset_to_json(ctx.result),
        "pairs": [
            {
                "element": pm.label,
                "members": list(pm.members),
                "prime": pm.prime,
                "second": pm.second,
            }
            for pm in ctx.pairs
        ],
    }


def derived_from_json(obj) -> DerivedPoset:
    """The derivation a file names: its derived poset and pairs must equal
    those that derive_poset computes from its base and pivot."""
    if not isinstance(obj, dict) or any(k not in obj for k in ("base", "pivot", "derived")):
        raise ValidationError("derived-poset JSON must carry base, pivot, derived, pairs")
    if not isinstance(obj["pivot"], str):
        raise ValidationError("'pivot' must be an element label")
    ctx = derive_poset(poset_from_json(obj["base"]), obj["pivot"])
    if (poset_from_json(obj["derived"]) != ctx.result
            or obj.get("pairs", []) != derived_to_json(ctx)["pairs"]):
        raise ValidationError(
            f"the derived poset and pairs must be those of deriving the base at {ctx.pivot!r}")
    return ctx


# -- reports -----------------------------------------------------------------------


def witness_to_json(witness) -> dict | None:
    if witness is None:
        return None
    crit, emb = witness
    return {
        "kind": crit.kind,
        "c0": crit.c0,
        "values": dict(crit.assignment),
        "image": dict(emb.image_map),
    }


def report_to_json(r: ClassificationReport) -> dict:
    return {
        "dimension": dimension_to_json(r.dimension),
        "finite_type": r.finite_type,
        "witness": witness_to_json(r.witness),
        "is_root": r.is_root,
        "indecomposable": rep_to_json(r.indecomposable) if r.indecomposable else None,
        "end_dim": r.end_dim,
        "iso_class_counts": dict(r.iso_class_counts),
        "notes": list(r.notes),
        "ok": r.ok,
    }
