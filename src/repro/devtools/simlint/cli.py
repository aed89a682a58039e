"""``python -m repro lint`` — the simlint command line.

Exit codes: 0 clean (possibly via inline suppressions), 1 findings,
2 usage error. An inline ``# simlint: disable=RULE (reason)`` comment
is the only way to accept a finding.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.devtools.simlint.engine import LintUsageError, lint_paths
from repro.devtools.simlint.registry import all_rules
from repro.devtools.simlint.reporters import (
    format_github,
    format_json,
    format_sarif,
    format_text,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "simlint: determinism & lock-discipline static analysis for "
            "the simulator. Suppress a finding inline with "
            "'# simlint: disable=RULE (reason)'."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif", "github"],
        default="text",
        help=(
            "report format (default: text); 'sarif' emits SARIF 2.1.0, "
            "'github' emits Actions problem annotations"
        ),
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help=(
            "whole-program mode: build the cross-module project context "
            "and also run the interprocedural rules "
            "(DET010/DET011/LOCK010/LOCK011)"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also report suppressed findings (text format)",
    )
    return parser


def _split_ids(text: typing.Optional[str]) -> typing.Optional[typing.List[str]]:
    if text is None:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _list_rules(stream: typing.TextIO) -> None:
    for rule in all_rules():
        stream.write(f"{rule.id}  [{rule.severity}, {rule.scope}]  {rule.title}\n")
        stream.write(f"    why:  {rule.rationale}\n")
        stream.write(f"    fix:  {rule.hint}\n")


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _list_rules(sys.stdout)
        return EXIT_OK

    try:
        report = lint_paths(
            args.paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            project=args.project,
        )
    except LintUsageError as error:
        print(f"simlint: error: {error}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        sys.stdout.write(format_json(report))
    elif args.format == "sarif":
        sys.stdout.write(format_sarif(report))
    elif args.format == "github":
        sys.stdout.write(format_github(report))
    else:
        print(format_text(report, verbose=args.verbose))
    return EXIT_OK if report.ok else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
