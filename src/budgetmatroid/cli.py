"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 scale-cap refusal, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import InternalInvariantError, ScaleCapError, ValidationError
from .generate import GenSpec, generate_instance
from .instance import format_rational, parse_instance, parse_rational, serialize_instance
from .oracle import brute_force_opt
from .scheme import EpsParam, approximate, class_partition, find_rep

EXIT_VALIDATION = 2
EXIT_SCALE_CAP = 3
EXIT_INVARIANT = 4


def _read(path) -> str:
    """An instance file's text; an unreadable file is a ValidationError at its path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read file: {exc.strerror or exc}", str(path)) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text at byte {exc.start}", str(path)) from None


def _write(path, text: str) -> None:
    """Write an output file as UTF-8; an unwritable path is a ValidationError at it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write file: {exc.strerror or exc}", str(path)) from None


def _load_instance(path: str):
    inst = parse_instance(_read(path))
    if inst.dropped:
        print(
            f"warning: dropped dependent singleton elements {list(inst.dropped)}",
            file=sys.stderr,
        )
    return inst


def _ratio(profit: Fraction, opt: Fraction) -> Fraction:
    return profit / opt if opt > 0 else Fraction(1)


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    report = approximate(inst, parse_rational(args.eps, "eps"))
    if args.exact:
        report.exact_profit = brute_force_opt(inst).profit
        report.ratio = _ratio(report.profit, report.exact_profit)
    print(f"solution: {list(report.solution)}")
    print(f"profit:   {format_rational(report.profit)}")
    print(f"bound:    {format_rational(report.upper_bound)}")
    print(f"of bound: {format_rational(report.certified_ratio)}")
    if report.exact_profit is not None:
        print(f"optimum:  {format_rational(report.exact_profit)}")
        print(f"ratio:    {format_rational(report.ratio)}")
    if args.report:
        _write(args.report, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_exact(args) -> int:
    inst = _load_instance(args.instance)
    result = brute_force_opt(inst)
    print(f"solution: {sorted(result.solution)}")
    print(f"profit:   {format_rational(result.profit)}")
    print(f"nodes:    {result.nodes}")
    return 0


def cmd_gen(args) -> int:
    spec = GenSpec(family=args.family, n=args.n, seed=args.seed)
    inst = generate_instance(spec)
    _write(args.output, serialize_instance(inst))
    print(f"wrote {args.output} ({inst.n} elements, family {args.family})")
    return 0


def cmd_verify(args) -> int:
    # Imported here, so that solve, exact, gen and bench never load the checkers.
    from .verify import check_axioms, verify_representative

    inst = _load_instance(args.instance)
    eps_target = parse_rational(args.eps, "eps")
    EpsParam.from_target(eps_target)  # rejects a bad --eps before any check runs
    # The representative-set check runs at 1/k for the smallest k >= 3 with
    # 1/k <= eps, so a smaller --eps never asks for less.
    eps = EpsParam(max(3, -(-1 // eps_target)))
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            ok, detail = fn()
        except ScaleCapError as exc:
            print(f"SKIP {name}: {exc}")
            return
        if ok:
            print(f"PASS {name}" + (f" ({detail})" if detail else ""))
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")

    def axioms():
        report = check_axioms(inst.matroid)
        return report.ok, report.violation

    def scheme_run():
        report = approximate(inst, eps_target, certify=False)
        return True, f"profit {format_rational(report.profit)}"

    def representative():
        exact = brute_force_opt(inst, cap=14)
        if exact.profit == 0:
            return True, "trivial (zero optimum)"
        rep = find_rep(inst, eps, class_partition(inst, eps, exact.profit))
        ok, witness = verify_representative(inst, eps, rep.elements, exact.profit, cap=10)
        return ok, None if ok else f"witness {sorted(witness)}"

    check("matroid axioms", axioms)
    check("scheme run (internal invariants)", scheme_run)
    check("representative-set property", representative)
    if failures:
        raise InternalInvariantError(f"{failures} verification check(s) failed")
    return 0


def cmd_bench(args) -> int:
    eps = parse_rational(args.eps, "eps")
    EpsParam.from_target(eps)  # rejects a bad --eps before any instance is solved
    paths = sorted(Path(args.dir).glob("*.json"))
    if not paths:
        raise ValidationError(f"no .json instances under {args.dir}", "dir")
    _write(args.csv, "")  # an unwritable --csv fails before any instance is solved
    rows = []
    for path in paths:
        text = _read(path)
        try:
            inst = parse_instance(text)
        except ValidationError as exc:
            raise ValidationError(str(exc), path.name) from None  # name the bad file
        try:
            opt = brute_force_opt(inst).profit
        except ScaleCapError:
            opt = None
        report = approximate(inst, eps)
        ratio = None if opt is None else _ratio(report.profit, opt)
        rows.append(
            {
                "instance": path.name,
                "n": inst.n,
                "eps": format_rational(eps),
                "profit": format_rational(report.profit),
                "opt": "" if opt is None else format_rational(opt),
                "ratio": "" if ratio is None else format_rational(ratio),
                "lp_calls": report.lp_calls,
                "enum_count": sum(report.enum_counts.values()),
                "oracle_calls": report.oracle_calls,
                "wall_ms": f"{report.wall_ms:.1f}",
            }
        )
        print(f"{path.name}: profit {format_rational(report.profit)}")
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write(args.csv, table.getvalue())
    print(f"wrote {args.csv} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budgetmatroid",
        description="Budgeted matroid independent-set approximation scheme",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the approximation scheme")
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", required=True, help="target accuracy, e.g. 1/3")
    p.add_argument("--exact", action="store_true", help="also compute the exact optimum")
    p.add_argument("--report", help="write a JSON run report")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="brute-force exact optimum")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="run the property suites on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="batch-run a directory of instances")
    p.add_argument("--dir", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScaleCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_SCALE_CAP
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
