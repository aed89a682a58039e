"""``python -m repro bench``: run benchmarks, write/check documents.

Typical invocations::

    python -m repro bench                       # run, print, write BENCH_<date>.json
    python -m repro bench --check benchmarks/bench-baseline.json
    python -m repro bench --write-baseline benchmarks/bench-baseline.json
    python -m repro bench --only kernel.timeout_churn --repeat 5

``--check`` is the CI perf gate: exit status 1 when any throughput
metric regressed more than ``--tolerance`` (default 25%) below the
baseline document. To re-baseline intentionally, run with
``--write-baseline`` and commit the refreshed file.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.bench.compare import (
    DEFAULT_TOLERANCE,
    check_against_baseline,
    fingerprint_mismatch,
)
from repro.bench.harness import (
    BenchOptions,
    benchmark_names,
    default_output_path,
    format_results,
    load_document,
    run_benchmarks,
    write_document,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Benchmark the event kernel (events/s), the standard 21-disk "
            "scenario (I/Os per second), and the sweep/campaign drivers "
            "(wall-clock); emit a machine-readable BENCH_<date>.json."
        ),
    )
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=["tiny", "small", "paper"],
        help="scale preset for the macro benchmarks (default: tiny)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        metavar="N",
        help="repeats per benchmark; the fastest is recorded (default: 3)",
    )
    parser.add_argument(
        "--only",
        metavar="NAME[,NAME...]",
        default=None,
        help=f"run a subset; choose from: {', '.join(benchmark_names())}",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="output document path (default: ./BENCH_<date>.json)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="do not write a document; print results only",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare against a baseline document; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="FRACTION",
        help="allowed throughput drop before --check fails (default: 0.25)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        default=None,
        help=(
            "also write the results to PATH as the new baseline "
            "(the documented re-baselining escape hatch)"
        ),
    )
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    only = tuple(args.only.split(",")) if args.only else None
    try:
        options = BenchOptions(scale=args.scale, repeat=args.repeat, only=only)
    except ValueError as error:
        print(f"repro bench: {error}", file=sys.stderr)
        return 2
    print(f"running {len(options.selected())} benchmark(s), "
          f"scale={options.scale}, repeat={options.repeat} ...")
    document = run_benchmarks(options, log=print)
    print()
    print(format_results(document))
    if not args.no_write:
        out_path = args.out or default_output_path()
        written = write_document(document, out_path)
        print(f"\n[bench document written to {written}]")
    if args.write_baseline:
        written = write_document(document, args.write_baseline)
        print(f"[baseline written to {written}]")
    if args.check:
        try:
            baseline = load_document(args.check)
        except (OSError, ValueError) as error:
            print(f"repro bench: cannot load baseline {args.check}: {error}",
                  file=sys.stderr)
            return 2
        notice = fingerprint_mismatch(
            document["environment"], baseline.get("environment", {})
        )
        if notice:
            print(f"repro bench: {notice}", file=sys.stderr)
        check = check_against_baseline(document, baseline, tolerance=args.tolerance)
        print()
        print(check.summary())
        if not check.ok:
            print(
                "\nIf this slowdown is intentional, re-baseline with:\n"
                f"  python -m repro bench --scale {args.scale} "
                f"--write-baseline {args.check}\n"
                "and commit the refreshed baseline (see docs/architecture.md).",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli
    sys.exit(main())
