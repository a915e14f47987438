"""sortbench command line interface.

Subcommands:
  run     benchmark one (algorithm, n, distribution) cell over several reps
  sweep   run a geometric ladder of sizes
  fit     fit y = c*x complexity constants to a report file
  verify  sort tagged input and check sorted + stable + permutation

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
(allocation) failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import (
    ALGORITHMS,
    FORMATS,
    MODELS,
    BenchConfig,
    VerificationError,
    emit_report,
    fit_constant,
    geometric_sizes,
    parse_report,
    run_benchmark,
)
from .datagen import KINDS, Distribution

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", choices=ALGORITHMS, default="inplace")
    parser.add_argument("--dist", choices=KINDS, default="uniform")
    parser.add_argument("--period", type=int, default=2, help="sawtooth ramp length")
    parser.add_argument(
        "--universe", type=int, default=16, help="fewdistinct key count"
    )
    parser.add_argument("--seed", type=int, default=42)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument(
        "--count", action="store_true", help="count comparisons and element moves"
    )
    parser.add_argument(
        "--attribute-phases",
        action="store_true",
        help="split in-place merge wall time into co-ranking vs rotation",
    )
    parser.add_argument(
        "--fixed-seed",
        action="store_true",
        help="reuse the base seed for every rep instead of seed^rep",
    )
    parser.add_argument("--format", choices=FORMATS, default="csv")
    parser.add_argument("--out", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sortbench",
        description="Benchmark harness for buffered and in-place mergesort.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="benchmark one problem size")
    _add_common(run)
    _add_run_flags(run)
    run.add_argument("--n", type=int, required=True)

    sweep = sub.add_parser("sweep", help="benchmark a geometric ladder of sizes")
    _add_common(sweep)
    _add_run_flags(sweep)
    sweep.add_argument("--n-min", type=int, default=100)
    sweep.add_argument("--n-max", type=int, default=10_000_000)
    sweep.add_argument("--steps", type=int, default=6)

    fit = sub.add_parser("fit", help="fit a complexity constant to a report")
    fit.add_argument("--input", required=True)
    fit.add_argument("--column", choices=("comparisons", "seconds"), required=True)
    fit.add_argument("--model", choices=MODELS, required=True)

    verify = sub.add_parser("verify", help="check sorted + stable + permutation")
    _add_common(verify)
    verify.add_argument("--n", type=int, required=True)

    return parser


def _config(args: argparse.Namespace, n: int, tagged: bool = False) -> BenchConfig:
    if getattr(args, "attribute_phases", False) and args.algo != "inplace":
        raise ValueError(f"--attribute-phases needs --algo inplace, not {args.algo}")
    return BenchConfig(
        algorithm=args.algo,
        n=n,
        dist=Distribution(args.dist, period=args.period, universe=args.universe),
        seed=args.seed,
        reps=getattr(args, "reps", 1),
        count_mode=getattr(args, "count", False),
        attribute_phases=getattr(args, "attribute_phases", False),
        fixed_seed=getattr(args, "fixed_seed", False),
        tagged=tagged,
    )


def _write_report(args: argparse.Namespace, records) -> None:
    text = emit_report(records, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    added = ["the counting wrapper"] if args.count else []
    if args.attribute_phases:
        added.append("the phase timers")
    if added:
        sys.stderr.write(f"note: seconds include {' and '.join(added)}\n")


def _cmd_run(args: argparse.Namespace) -> None:
    records = run_benchmark(_config(args, args.n))
    _write_report(args, records)


def _cmd_sweep(args: argparse.Namespace) -> None:
    records = []
    for n in geometric_sizes(args.n_min, args.n_max, args.steps):
        records.extend(run_benchmark(_config(args, n)))
    _write_report(args, records)


def _cmd_fit(args: argparse.Namespace) -> None:
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    # a JSON report is an array; a CSV report starts with its header row
    fmt = "json" if text.lstrip().startswith("[") else "csv"
    records = parse_report(text, fmt)
    # fits use median summary rows when present, and only verified runs
    medians = [r for r in records if r.rep == "median" and r.verified]
    rows = medians if medians else [r for r in records if r.verified]
    if args.column == "seconds":
        refused = [
            r for r in rows if r.comparisons is not None or r.corank_seconds is not None
        ]
        head = f"{len(refused)} row(s) timed with --count or --attribute-phases"
        why = "their seconds include the counting wrapper or the phase timers"
    else:
        refused = [r for r in rows if r.comparisons is None]
        head = f"no comparisons value in {len(refused)} row(s)"
        why = "counters are measured only with --count"
    if refused:
        named = "; ".join(
            f"{r.algo} n={r.n} dist={r.dist} seed={r.seed} rep={r.rep}" for r in refused
        )
        raise ValueError(f"{head}: {named}; {why}")
    points = [(r.n, float(getattr(r, args.column))) for r in rows]
    result = fit_constant(points, args.model)
    sys.stdout.write(
        json.dumps(
            {**dataclasses.asdict(result), "column": args.column, "points": len(points)}
        )
        + "\n"
    )


def _cmd_verify(args: argparse.Namespace) -> None:
    run_benchmark(_config(args, args.n, tagged=True))
    sys.stdout.write(
        f"verified: {args.algo} n={args.n} dist={args.dist} seed={args.seed} "
        "(sorted, stable, permutation)\n"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "fit": _cmd_fit,
        "verify": _cmd_verify,
    }
    try:
        handlers[args.command](args)
    except VerificationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(emit_report([exc.record], "csv"))
        return EXIT_VERIFICATION
    except MemoryError:
        sys.stderr.write("error: allocation failure (out of memory)\n")
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
