"""``repro scenario`` — run one ad-hoc scenario point from the shell.

The figure runners enumerate fixed grids; this command runs a single
:class:`~repro.experiments.runner.ScenarioConfig` spelled out on the
command line, through the same sweep machinery the figures use — so
the result enters the same content-addressed cache under the same key
a sweep or the job service would compute for it.

The point of the command is the axes the figure grids do not reach:
``--num-disks 1009 --layout prime`` exercises the arithmetic layouts
at the thousand-disk widths the design catalog has no tables for, and
``--cylinders``/``--duration-ms`` build a custom scale preset when the
named presets are too small for a deep layout period (a C=1009 G=10
permutation layout needs 10,080 units per disk; ``tiny`` has 1,092).

Examples::

    repro scenario --num-disks 1009 --stripe-size 10 --layout prime \\
        --cylinders 128 --rate 500
    repro scenario --stripe-size 5 --mode recon --scale tiny
"""

from __future__ import annotations

import argparse
import math
import sys
import typing

from repro.experiments.builders import (
    LAYOUT_CHOICES,
    PAPER_NUM_DISKS,
    alpha_of,
    check_layout,
)
from repro.experiments.runner import MODES, ScenarioConfig
from repro.experiments.scales import SCALES, ScalePreset, get_scale
from repro.recon.algorithms import ALGORITHMS, algorithm_by_name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro scenario",
        description="Run one scenario point and print its summary.",
    )
    parser.add_argument(
        "--num-disks", type=int, default=PAPER_NUM_DISKS, metavar="C",
        help=f"array width (default: {PAPER_NUM_DISKS}, the paper's)",
    )
    parser.add_argument(
        "--stripe-size", type=int, required=True, metavar="G",
        help="parity stripe size (data + syndrome units)",
    )
    parser.add_argument(
        "--layout", default="auto", choices=list(LAYOUT_CHOICES),
        help="layout implementation family (default: auto)",
    )
    parser.add_argument(
        "--syndromes", type=int, default=1, choices=(1, 2),
        help="syndrome units per stripe: 1 = parity, 2 = P+Q (default: 1)",
    )
    parser.add_argument(
        "--mode", default="fault-free",
        choices=[mode for mode in MODES if mode != "campaign"],
        help="scenario mode (default: fault-free; campaigns need a "
        "fault profile — use the campaign experiments or the service)",
    )
    parser.add_argument(
        "--algorithm", default="baseline",
        choices=sorted(a.name for a in ALGORITHMS),
        help="reconstruction algorithm for --mode recon (default: baseline)",
    )
    parser.add_argument(
        "--rate", type=float, default=105.0, metavar="PER_S",
        help="user access rate in accesses/second (default: 105)",
    )
    parser.add_argument(
        "--read-fraction", type=float, default=0.5, metavar="F",
        help="fraction of user accesses that are reads (default: 0.5)",
    )
    parser.add_argument(
        "--seed", type=int, default=1992, help="workload seed (default: 1992)",
    )
    scale = parser.add_argument_group(
        "scale", "a named preset, or a custom one built from --cylinders"
    )
    scale.add_argument(
        "--scale", default="tiny", choices=sorted(SCALES),
        help="scale preset (default: tiny); ignored when --cylinders is given",
    )
    scale.add_argument(
        "--cylinders", type=int, default=None, metavar="N",
        help="custom preset: disk size in cylinders (84 units each)",
    )
    scale.add_argument(
        "--duration-ms", type=float, default=20_000.0, metavar="MS",
        help="custom preset: steady-state measurement window (default: 20000)",
    )
    scale.add_argument(
        "--warmup-ms", type=float, default=2_000.0, metavar="MS",
        help="custom preset: warmup excluded from measurement (default: 2000)",
    )
    cache = parser.add_argument_group("cache")
    cache.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; do not read or write the sweep result cache",
    )
    cache.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="sweep result cache location (default: $REPRO_SWEEP_CACHE "
        "or results/sweep-cache)",
    )
    return parser


def _check_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject a duration or warmup no simulation can run, as usage
    errors (exit 2).

    :class:`ScalePreset` checks both, but without ``--cylinders`` these
    flags never reach one. Every other value is checked by the config
    types when :func:`config_from_args` builds them.
    """
    if not (math.isfinite(args.duration_ms) and args.duration_ms > 0):
        parser.error(f"--duration-ms must be finite and positive, got {args.duration_ms!r}")
    if not (math.isfinite(args.warmup_ms) and args.warmup_ms >= 0):
        parser.error(f"--warmup-ms must be finite and non-negative, got {args.warmup_ms!r}")


def _scale_from_args(args: argparse.Namespace) -> typing.Union[str, ScalePreset]:
    if args.cylinders is None:
        return get_scale(args.scale).name
    return ScalePreset(
        name=f"custom-{args.cylinders}cyl",
        cylinders=args.cylinders,
        steady_duration_ms=args.duration_ms,
        warmup_ms=args.warmup_ms,
        note="ad-hoc preset built by 'repro scenario'",
    )


def config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        stripe_size=args.stripe_size,
        user_rate_per_s=args.rate,
        read_fraction=args.read_fraction,
        mode=args.mode,
        algorithm=algorithm_by_name(args.algorithm),
        scale=_scale_from_args(args),
        num_disks=args.num_disks,
        seed=args.seed,
        syndromes=args.syndromes,
        layout=args.layout,
    )


def _format_result(result) -> typing.List[str]:
    lines = [
        f"simulated {result.simulated_ms / 1000.0:.1f}s, "
        f"{result.requests_completed} user requests",
        f"response mean={result.response.mean_ms:.2f}ms "
        f"p90={result.response.p90_ms:.2f}ms p99={result.response.p99_ms:.2f}ms",
    ]
    recon = result.reconstruction
    if recon is not None:
        lines.append(
            f"reconstruction {recon.reconstruction_time_ms / 1000.0:.1f}s "
            f"({recon.swept_units} swept, {recon.user_built_units} user-built)"
        )
    if result.integrity_errors:
        lines.append(f"INTEGRITY ERRORS: {len(result.integrity_errors)}")
    return lines


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    try:
        config = config_from_args(args)
    except ValueError as error:
        print(f"repro scenario: {error}", file=sys.stderr)
        return 2

    # Imported late so --help stays fast.
    from repro.layout.base import LayoutError
    from repro.sweep import SweepError, SweepOptions, default_cache_dir
    from repro.sweep.cache import config_cache_key
    from repro.sweep.pool import run_sweep

    cache = None if args.no_cache else (args.cache_dir or default_cache_dir())
    options = SweepOptions(jobs=1, cache=cache, progress=True, stream=sys.stdout)
    # The layout the plan chose: a closest-alpha substitute may have
    # another G than the one requested.
    chosen = check_layout(
        config.num_disks, config.stripe_size, config.syndromes, config.layout
    ).stripe_size
    substitute = (
        ""
        if chosen == config.stripe_size
        else f" (closest feasible alpha to G={config.stripe_size} "
        f"alpha={config.alpha:.3f})"
    )
    print(
        f"scenario: C={config.num_disks} G={chosen} "
        f"alpha={alpha_of(config.num_disks, chosen):.3f}{substitute} "
        f"layout={config.layout} mode={config.mode} "
        f"scale={config.scale_preset().name}"
    )
    try:
        outcome = run_sweep([config], options)
    except (SweepError, LayoutError, ValueError) as error:
        print(f"repro scenario: {error}", file=sys.stderr)
        return 1
    result = outcome.results[0]
    for line in _format_result(result):
        print(line)
    summary = outcome.summary
    print(
        f"executed={summary.executed} cache_hits={summary.cache_hits} "
        f"config_cache_key={config_cache_key(config)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
