"""Command-line front end.

Subcommands: count (one variant, one width, one method), encode (DIMACS
out), translate (equations <-> clauses), check (family file closure
report), verify (the full cross-validation matrix).  Every command takes
--json for schema-stable machine output.

Exit codes: 0 success, 1 verification/translation mismatch, 2 usage or
input error, 3 resource budget exceeded, 4 external tool failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import theory
from .counter import (DEFAULT_BUDGET_SECONDS, DEFAULT_EXTERNAL_PATTERN,
                      EXTERNAL_CMD_ENV, METHODS, count_variant)
from .encoder import emit_dimacs, encode
from .errors import ExternalToolError, ResourceLimitError
from .families import VARIANTS, Variant, VectorFamily, is_meet_closed, meet_closure, variant_member
from .validation import verify_matrix

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_EXTERNAL = 4

VARIANT_NAMES = [v.value for v in VARIANTS]


def _budget(value: float) -> Optional[float]:
    """A budget of 0 or less means no budget; NaN goes on to the library,
    which rejects it."""
    return None if value <= 0 else value


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_count(args: argparse.Namespace) -> int:
    report = count_variant(
        args.n, Variant.from_name(args.variant), args.method,
        threads=args.threads, budget_seconds=_budget(args.budget_seconds),
        external_cmd=args.external_cmd, external_pattern=args.external_pattern)
    if args.json:
        payload = report.to_dict()
        payload["command"] = "count"
        _emit_json(payload)
    else:
        print(f"{report.variant.value}({report.n}) = {report.count}")
        stats = report.stats
        print(f"method: {report.method}  elapsed: {report.elapsed:.3f}s  "
              f"nodes: {stats.nodes}  cache hits: {stats.cache_hits}  "
              f"decisions: {stats.decisions}  propagations: {stats.propagations}  "
              f"components: {stats.components}")
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    instance = encode(args.n, Variant.from_name(args.variant))
    text = emit_dimacs(instance)
    if args.out or not args.json:
        _write_out(text, args.out)
    if args.json:
        payload = {
            "command": "encode",
            "n": instance.n,
            "variant": instance.variant.value,
            "predicates": instance.predicate_count,
            "clauses": instance.clause_count,
            "out": args.out,
        }
        if not args.out:
            payload["dimacs"] = text
        _emit_json(payload)
    return EXIT_OK


def cmd_translate(args: argparse.Namespace) -> int:
    with open(args.input) as handle:
        source = handle.read()
    if args.direction == "to-clauses":
        parsed_in = theory.parse_equations(source)
        translated = theory.equations_to_horn(parsed_in)
        rendered = theory.format_clauses(translated)
    else:
        parsed_in = theory.parse_clauses(source)
        translated = theory.horn_to_equations(parsed_in)
        rendered = theory.format_equations(translated)

    match: Optional[bool] = None
    if args.verify:
        if args.n is None:
            raise ValueError("--verify needs --n to fix the variable count")
        match = (theory.models(parsed_in, args.n) == theory.models(translated, args.n))

    # the file is written before any output, so a failed write prints nothing
    if args.out or not args.json:
        _write_out(rendered, args.out)
    if args.json:
        _emit_json({
            "command": "translate",
            "direction": args.direction,
            "input": args.input,
            "out": args.out,
            "input_count": len(parsed_in),
            "output_count": len(translated),
            "models_match": match,
            "output": None if args.out else rendered,
        })
    elif match is not None:
        print(f"model sets {'match' if match else 'DIFFER'} at n={args.n}",
              file=sys.stderr if args.out is None else sys.stdout)
    if match is False:
        return EXIT_MISMATCH
    return EXIT_OK


def _vectors(count: int) -> str:
    """`count` vectors, as a phrase: "1 vector", "2 vectors"."""
    return f"{count} vector{'s' if count != 1 else ''}"


def cmd_check(args: argparse.Namespace) -> int:
    with open(args.family_file) as handle:
        family = VectorFamily.parse(handle.read())
    closed = is_meet_closed(family)
    memberships = {v.value: variant_member(family, v) for v in VARIANTS}
    closure = None if closed else meet_closure(family)
    if args.json:
        _emit_json({
            "command": "check",
            "file": args.family_file,
            "width": family.width,
            "size": len(family),
            "meet_closed": closed,
            "variants": memberships,
            "closure": None if closure is None else [str(v) for v in closure],
        })
    else:
        print(f"{args.family_file}: width {family.width}, {_vectors(len(family))}")
        print(f"meet-closed: {'yes' if closed else 'no'}")
        print("variants: " + ", ".join(f"{name}={'yes' if ok else 'no'}"
                                       for name, ok in memberships.items()))
        if closure is not None:
            added = [v for v in closure if v not in family]
            print(f"closure adds {_vectors(len(added))}:")
            print(*added, sep="\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    progress = None
    if not args.json:
        def progress(check):
            status = "PASS" if check.passed else ("WARN" if check.warning else "FAIL")
            line = f"{status} {check.name}"
            if not check.passed:
                line += f": expected {check.expected}, got {check.actual}"
            print(line, flush=True)
    run = verify_matrix(args.n_max, threads=args.threads,
                        budget_seconds=_budget(args.budget_seconds),
                        include_nonisomorphic=not args.skip_orbits,
                        progress=progress)
    if args.json:
        payload = run.to_dict()
        payload["command"] = "verify"
        _emit_json(payload)
    else:
        print(f"{len(run.checks)} checks, {len(run.failures)} failures, "
              f"{len(run.warnings)} warnings")
    return EXIT_OK if run.passed else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornenum",
        description="Count canonical ground Horn theories by reduction to "
                    "meet-closed vector families and exact model counting.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that several subcommands share, each declared once
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="machine-readable output")
    width = argparse.ArgumentParser(add_help=False)
    width.add_argument("--n", type=int, required=True, help="number of propositional variables")
    width.add_argument("--variant", choices=VARIANT_NAMES, required=True,
                       help="which constant conventions the theories may use")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--threads", type=int, default=1,
                        help="must be >= 1; every count runs in one process")
    budget.add_argument("--budget-seconds", type=float, default=DEFAULT_BUDGET_SECONDS,
                        help="wall-clock budget for the whole run; 0 disables")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")

    p_count = sub.add_parser("count", parents=[width, as_json, budget],
                             help="count one variant at one width")
    p_count.add_argument("--method", choices=list(METHODS), default="dpll")
    p_count.add_argument("--external-cmd", default=None,
                         help="external counter template, {file} = DIMACS path "
                              f"(default ${EXTERNAL_CMD_ENV})")
    p_count.add_argument("--external-pattern", default=DEFAULT_EXTERNAL_PATTERN,
                         help="regex locating the count in external output")
    p_count.set_defaults(func=cmd_count)

    p_encode = sub.add_parser("encode", parents=[width, as_json, out],
                              help="emit the CNF instance as DIMACS")
    p_encode.set_defaults(func=cmd_encode)

    p_translate = sub.add_parser("translate", parents=[out, as_json],
                                 help="translate equations to clauses or back")
    p_translate.add_argument("direction", choices=["to-clauses", "to-equations"])
    p_translate.add_argument("input", help="input file")
    p_translate.add_argument("--verify", action="store_true",
                             help="check that model sets are preserved (needs --n)")
    p_translate.add_argument("--n", type=int, default=None)
    p_translate.set_defaults(func=cmd_translate)

    p_check = sub.add_parser("check", parents=[as_json], help="closure report for a family file")
    p_check.add_argument("family_file")
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", parents=[budget, as_json],
                              help="run the cross-validation matrix")
    p_verify.add_argument("--n-max", type=int, default=4)
    p_verify.add_argument("--skip-orbits", action="store_true",
                          help="skip the isomorphism census")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        if exc.stats:
            print(f"partial stats: {exc.stats}", file=sys.stderr)
        return EXIT_RESOURCE
    except ExternalToolError as exc:
        print(f"external tool: {exc}", file=sys.stderr)
        if exc.output:
            print(exc.output, file=sys.stderr)
        return EXIT_EXTERNAL


if __name__ == "__main__":
    sys.exit(main())
