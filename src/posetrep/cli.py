"""Command-line front end: JSON in, canonical JSON out.

Exit codes: 0 success, 1 verification assertion failure, 2 validation error,
3 budget exhaustion.  POSETREP_BUDGET is read once per command: it is the
budget of brute-count, verify and decompose when --budget is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classify, jsonio
from .derivation import derive_poset, differentiate, integrate
from .errors import (
    BudgetExceeded,
    PosetRepError,
    UndecidableAtBudget,
    ValidationError,
)
from .poset import critical_subposet_embeddings
from .reps import decompose, dimension_of, lift, rho
from .tits import dominated_critical, tits_value

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _write_output(payload, out_path: str | None):
    text = jsonio.canonical_dumps(payload) + "\n"
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_poset(args):
    return jsonio.poset_from_json(_read_json(args.poset))


def _load_dim(args, poset):
    return jsonio.dimension_from_json(_read_json(args.dim), poset)


def cmd_tits(args) -> int:
    poset = _load_poset(args)
    d = _load_dim(args, poset)
    _write_output({"value": tits_value(poset, d)}, args.out)
    return EXIT_OK


def cmd_check_finite_type(args) -> int:
    poset = _load_poset(args)
    d = _load_dim(args, poset)
    witness = dominated_critical(poset, d)
    _write_output(
        {"finite_type": witness is None, "witness": jsonio.witness_to_json(witness)},
        args.out,
    )
    return EXIT_OK


def cmd_criticals(args) -> int:
    poset = _load_poset(args)
    embeddings = critical_subposet_embeddings(poset)
    _write_output(
        {
            "embeddings": [
                {"kind": e.kind, "image": dict(e.image_map)} for e in embeddings
            ],
            "representation_finite": not embeddings,
        },
        args.out,
    )
    return EXIT_OK


def cmd_derive(args) -> int:
    poset = _load_poset(args)
    ctx = derive_poset(poset, args.pivot)
    _write_output(jsonio.derived_to_json(ctx), args.out)
    return EXIT_OK


def cmd_differentiate(args) -> int:
    poset = _load_poset(args)
    u = jsonio.rep_from_json(_read_json(args.rep), poset)
    ctx = derive_poset(poset, args.pivot)
    derived = differentiate(rho(u), args.pivot, ctx)
    _write_output(
        {"derived": jsonio.derived_to_json(ctx), "rep": jsonio.rep_to_json(lift(derived))},
        args.out,
    )
    return EXIT_OK


def cmd_integrate(args) -> int:
    ctx = jsonio.derived_from_json(_read_json(args.derived))
    u = jsonio.rep_from_json(_read_json(args.rep), ctx.result)
    result = integrate(u, ctx)
    _write_output(jsonio.rep_to_json(result), args.out)
    return EXIT_OK


def cmd_construct(args) -> int:
    poset = _load_poset(args)
    d = _load_dim(args, poset)
    field = jsonio.parse_field_flag(args.field)
    built = classify.construct_indecomposable(poset, d, field)
    payload = {
        "dimension": jsonio.dimension_to_json(d),
        "indecomposable": jsonio.rep_to_json(built) if built else None,
        "is_root": built is not None,
    }
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_brute_count(args) -> int:
    poset = _load_poset(args)
    d = _load_dim(args, poset)
    field = jsonio.parse_field_flag(args.field)
    count = classify.count_iso_classes(poset, d, field, budget=args.budget)
    indec = classify.el_indecomposable_count(poset, d, field, budget=args.budget)
    _write_output(
        {
            "iso_classes": count,
            "indecomposables": indec,
            "level": "representation" if d.d0 else "element",
        },
        args.out,
    )
    return EXIT_OK


def cmd_decompose(args) -> int:
    poset = _load_poset(args)
    u = jsonio.rep_from_json(_read_json(args.rep), poset)
    result = decompose(u, args.budget)
    _write_output(
        {
            "pieces": [jsonio.rep_to_json(p) for p in result.pieces],
            "trivials": dict(result.trivials),
            "dimension": jsonio.dimension_to_json(dimension_of(u)),
        },
        args.out,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    poset = _load_poset(args)
    fields = [jsonio.parse_field_flag(p) for p in args.fields.split(",") if p.strip()]
    reports, failures = classify.verify_main_theorem(
        poset, args.max_total, fields, budget=args.budget)
    _write_output([jsonio.report_to_json(r) for r in reports], args.out)
    for failure in failures:
        sys.stderr.write(f"assertion failed: {failure}\n")
    return EXIT_OK if not failures else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetrep",
        description="Finite-type classification and construction for poset representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(fn=fn)
        return p

    add("tits", cmd_tits,
        **{"--poset": dict(required=True), "--dim": dict(required=True)})
    add("check-finite-type", cmd_check_finite_type,
        **{"--poset": dict(required=True), "--dim": dict(required=True)})
    add("criticals", cmd_criticals, **{"--poset": dict(required=True)})
    add("derive", cmd_derive,
        **{"--poset": dict(required=True), "--pivot": dict(required=True)})
    add("differentiate", cmd_differentiate,
        **{"--poset": dict(required=True), "--pivot": dict(required=True),
           "--rep": dict(required=True)})
    add("integrate", cmd_integrate,
        **{"--derived": dict(required=True), "--rep": dict(required=True)})
    add("construct", cmd_construct,
        **{"--poset": dict(required=True), "--dim": dict(required=True),
           "--field": dict(default="Q")})
    add("brute-count", cmd_brute_count,
        **{"--poset": dict(required=True), "--dim": dict(required=True),
           "--field": dict(default="2"),
           "--budget": dict(type=int, default=None)})
    add("decompose", cmd_decompose,
        **{"--poset": dict(required=True), "--rep": dict(required=True),
           "--budget": dict(type=int, default=None)})
    add("verify", cmd_verify,
        **{"--poset": dict(required=True),
           "--max-total": dict(type=int, default=4, dest="max_total"),
           "--fields": dict(default="2,3"),
           "--budget": dict(type=int, default=None)})
    return parser


_BUDGETED = ("brute-count", "verify", "decompose")


def _env_budget() -> int | None:
    raw = os.environ.get("POSETREP_BUDGET")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"POSETREP_BUDGET must be an integer, got {raw!r}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _BUDGETED and args.budget is None:
            args.budget = _env_budget()
        return args.fn(args)
    except (BudgetExceeded, UndecidableAtBudget) as exc:
        sys.stderr.write(f"budget: {exc}\n")
        return EXIT_BUDGET
    except PosetRepError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
