"""``python -m repro simsan`` — run sanitizer-instrumented scenarios.

Each named scenario is a macro simulation chosen to exercise a lock
protocol the static analysis reasons about:

- ``recon`` — reconstruction with the redirect+piggyback algorithm
  under a mixed user workload: the cross-process lock handoff
  (``_read_unit`` → spawned ``_piggyback_write``) that motivated
  LOCK010 runs many times. Its release carries the inline SAN004
  declaration, so each handoff reports as a suppressed finding.
- ``degraded`` — degraded-mode operation (failed disk, no
  replacement): every read of the failed disk takes stripe locks for
  on-the-fly reconstruction.
- ``pq-campaign`` — a dual-syndrome (P+Q) fault campaign at micro
  scale: stochastic failures force rebuilds while a second failure is
  outstanding, the hardest locking regime the array supports.

Exit codes mirror simlint: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.devtools.simlint.findings import LintReport
from repro.devtools.simlint.reporters import format_json, format_text
from repro.devtools.simsan.monitor import LockMonitor

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _recon_config():
    from repro.experiments.runner import ScenarioConfig
    from repro.recon.algorithms import algorithm_by_name

    return ScenarioConfig(
        stripe_size=5,
        user_rate_per_s=60.0,
        read_fraction=0.6,
        mode="recon",
        algorithm=algorithm_by_name("redirect+piggyback"),
        recon_workers=2,
        scale="tiny",
    )


def _degraded_config():
    from repro.experiments.runner import ScenarioConfig

    return ScenarioConfig(
        stripe_size=5,
        user_rate_per_s=60.0,
        read_fraction=0.6,
        mode="degraded",
        scale="tiny",
    )


def _campaign_pq_config():
    from repro.experiments.campaign import (
        MICRO,
        REPLACEMENT_DELAY_MS,
        campaign_profile,
    )
    from repro.experiments.runner import ScenarioConfig
    from repro.faults.profile import MS_PER_HOUR

    return ScenarioConfig(
        stripe_size=6,
        user_rate_per_s=0.0,
        read_fraction=0.5,
        mode="campaign",
        recon_workers=8,
        scale=MICRO,
        spares=512,
        replacement_delay_ms=REPLACEMENT_DELAY_MS,
        mission_ms=4.0 * MS_PER_HOUR,
        fault_profile=campaign_profile(1992),
        syndromes=2,
    )


#: name -> (config factory, expect locks drained at end of scenario).
#: A campaign is cut off at mission end with operations legitimately in
#: flight, so SAN005 (held-at-end) is not meaningful there.
SCENARIOS: typing.Dict[str, typing.Tuple[typing.Callable, bool]] = {
    "recon": (_recon_config, True),
    "degraded": (_degraded_config, True),
    "pq-campaign": (_campaign_pq_config, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro simsan",
        description=(
            "simsan: runtime stripe-lock sanitizer. Runs macro scenarios "
            "with an instrumented lock table (observation only — results "
            "stay bit-identical) and reports SAN001-SAN005 violations."
        ),
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        default=[],
        help=f"scenarios to run (default: all of {', '.join(SCENARIOS)})",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--measure-overhead",
        action="store_true",
        help="time each scenario with and without the monitor attached",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also report suppressed findings (text format)",
    )
    return parser


def run_scenarios(
    names: typing.Sequence[str],
    measure_overhead: bool = False,
    stream: typing.Optional[typing.TextIO] = None,
) -> LintReport:
    """Run each scenario instrumented; pool violations into one report."""
    from repro.experiments.runner import run_scenario

    if stream is None:
        # Resolved at call time: binding sys.stderr as the default
        # would pin whatever stream was installed at import.
        stream = sys.stderr
    report = LintReport()
    for name in names:
        factory, expect_drained = SCENARIOS[name]
        monitor = LockMonitor(expect_drained=expect_drained)
        config = factory()
        if measure_overhead:
            # Wall-clock cost of the sanitizer itself: tooling
            # measurement, nothing here feeds simulation state.
            import time

            t0 = time.perf_counter()  # simlint: disable=DET001 (overhead stopwatch)
            run_scenario(config, collect_metrics=False)
            t_plain = time.perf_counter() - t0  # simlint: disable=DET001 (overhead stopwatch)
            t0 = time.perf_counter()  # simlint: disable=DET001 (overhead stopwatch)
            run_scenario(config, collect_metrics=False, lock_monitor=monitor)
            t_instr = time.perf_counter() - t0  # simlint: disable=DET001 (overhead stopwatch)
            overhead = (t_instr / t_plain - 1.0) * 100.0 if t_plain > 0 else 0.0
            stream.write(
                f"simsan: {name}: plain {t_plain * 1000.0:.0f} ms, "
                f"instrumented {t_instr * 1000.0:.0f} ms "
                f"({overhead:+.1f}% overhead)\n"
            )
        else:
            run_scenario(config, collect_metrics=False, lock_monitor=monitor)
        monitor.finish()
        findings = monitor.findings()
        suppressed = [finding for finding in findings if finding.suppressed]
        stream.write(
            f"simsan: {name}: {monitor.acquires} acquires, "
            f"{monitor.releases} releases, "
            f"{len(findings) - len(suppressed)} violation(s), "
            f"{len(suppressed)} suppressed\n"
        )
        report.files_checked += 1  # one scenario ~ one "file" in the summary
        for finding in findings:
            if finding.suppressed:
                report.suppressed.append(finding)
            else:
                report.active.append(finding)
    report.active.sort(key=lambda finding: finding.sort_key())
    return report


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = args.scenarios or list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(
            f"simsan: error: unknown scenario(s): {', '.join(unknown)}; "
            f"choose from {', '.join(SCENARIOS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    report = run_scenarios(names, measure_overhead=args.measure_overhead)
    if args.format == "json":
        sys.stdout.write(format_json(report))
    else:
        print(format_text(report, verbose=args.verbose))
    return EXIT_OK if report.ok else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
