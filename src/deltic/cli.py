"""Command-line entry point.

  deltic check --program FILE
  deltic run   --program FILE --input FILE
  deltic incr  --program FILE --input FILE --changes FILE
  deltic laws  [--bundle NAME] [--seed N] [--samples N] [--inject-fault NAME]
  deltic bench --bench ID [--sizes N,N,...] [--fraction F] [--seed N]
               [--reps N] [--csv-out FILE]

Exit codes: 0 ok, 1 usage, 2 parse/type/conformance error, 3 law failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as benchmod
from . import calculus as ca
from . import incr
from .core import ConformanceError, DelticError, check_change, check_value
from .frontend import compile_program, parse_program_file
from .serialize import (
    change_from_text, change_to_text, type_to_text, value_from_text,
    value_to_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BADINPUT = 2
EXIT_LAWS = 3


def _load_program(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    bundle, prog = parse_program_file(text)
    bundle.registry.freeze()
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    return bundle, prog, tt


def cmd_check(args) -> int:
    bundle, prog, tt = _load_program(args.program)
    print(f"bundle: {bundle.name}")
    for name, ty in prog.params:
        print(f"param {name} : {type_to_text(ty)}")
    print(f"input  : {type_to_text(tt.in_ty)}")
    print(f"output : {type_to_text(tt.out_ty)}")
    return EXIT_OK


def _read_input(path, ty, document=False):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if document:
        from .domains.trees import parse_document
        v = parse_document(text)
    else:
        v = value_from_text(ty, text)
    check_value(ty, v)
    return v


def cmd_run(args) -> int:
    bundle, prog, tt = _load_program(args.program)
    v = _read_input(args.input, tt.in_ty, args.document)
    print(value_to_text(tt.out_ty, ca.denote(tt, v)))
    return EXIT_OK


def cmd_incr(args) -> int:
    from .core import apply_fn, values_equal
    bundle, prog, tt = _load_program(args.program)
    v = _read_input(args.input, tt.in_ty, args.document)
    machine = incr.incrementalize(tt)
    ap_in, ap_out = apply_fn(tt.in_ty), apply_fn(tt.out_ty)
    y, cache = machine.init(v)
    print(value_to_text(tt.out_ty, y))
    with open(args.changes, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("--"):
                continue
            try:
                d = change_from_text(tt.in_ty, line)
            except (ConformanceError, json.JSONDecodeError) as e:
                raise ConformanceError(f"{args.changes}:{lineno}: {e}") from e
            check_change(tt.in_ty, d, f"{args.changes}:{lineno}")
            dy, cache = machine.step(d, cache)
            print(change_to_text(tt.out_ty, dy))
            if args.verify:
                v = ap_in(v, d)
                y = ap_out(y, dy)
    if args.verify:
        batch = ca.denote(tt, v)
        if not values_equal(tt.out_ty, y, batch, args.tolerance):
            print("verify: accumulated output diverged from full reevaluation",
                  file=sys.stderr)
            return EXIT_LAWS
        print(f"verify: ok within {args.tolerance:g}", file=sys.stderr)
    return EXIT_OK


def cmd_laws(args) -> int:
    from . import oracle
    bundles = (args.bundle,) if args.bundle else ("linalg", "relalg", "trees", "gcounter")
    seed = args.seed if args.seed is not None else oracle.GenConfig.seed

    def run():
        return oracle.run_all_suites(bundles, seed=seed, samples=args.samples)

    if args.inject_fault:
        with oracle.inject_fault(args.inject_fault):
            reports = run()
    else:
        reports = run()
    failed = 0
    for rep in reports:
        print(json.dumps(rep.to_json(), sort_keys=True))
        if not rep.passed:
            failed += 1
    if failed:
        print(f"FAIL: {failed} of {len(reports)} checks", file=sys.stderr)
        return EXIT_LAWS
    print(f"ok: {len(reports)} checks")
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes else ()
    spec = benchmod.BenchSpec(
        bench=args.bench, sizes=sizes, fraction=args.fraction,
        reps=args.reps, seed=args.seed if args.seed is not None else 42)
    print(f"seed: {spec.seed}", file=sys.stderr)
    rows, extra = benchmod.run_bench(spec)
    if args.csv_out:
        with open(args.csv_out, "w", newline="", encoding="utf-8") as fh:
            benchmod.write_csv(rows, fh)
        print(f"wrote {args.csv_out}", file=sys.stderr)
    else:
        benchmod.write_csv(rows, sys.stdout)
    if "crossover" in extra:
        print(f"crossover: {extra['crossover']}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="deltic", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="typecheck a program file")
    c.add_argument("--program", required=True)
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("run", help="evaluate a program on an input value")
    c.add_argument("--program", required=True)
    c.add_argument("--input", required=True)
    c.add_argument("--document", action="store_true",
                   help="read --input as a structured-text record array")
    c.set_defaults(fn=cmd_run)

    c = sub.add_parser("incr", help="drive an incremental session over a change stream")
    c.add_argument("--program", required=True)
    c.add_argument("--input", required=True)
    c.add_argument("--changes", required=True)
    c.add_argument("--document", action="store_true",
                   help="read --input as a structured-text record array")
    c.add_argument("--verify", action="store_true",
                   help="recheck the accumulated output against full reevaluation")
    c.add_argument("--tolerance", type=float, default=1e-9,
                   help="relative tolerance for --verify comparisons")
    c.set_defaults(fn=cmd_incr)

    c = sub.add_parser("laws", help="run the randomized law suites")
    c.add_argument("--bundle", default=None)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--samples", type=int, default=60)
    c.add_argument("--inject-fault", default=None,
                   help="sabotage one component (mutation testing)")
    c.set_defaults(fn=cmd_laws)

    c = sub.add_parser("bench", help="run a benchmark sweep, CSV output")
    c.add_argument("--bench", required=True, choices=benchmod.BENCH_IDS)
    c.add_argument("--sizes", default=None)
    c.add_argument("--fraction", type=float, default=0.01)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--reps", type=int, default=5)
    c.add_argument("--csv-out", default=None)
    c.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except (DelticError, json.JSONDecodeError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BADINPUT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
