"""Macrobenchmarks: the simulator doing its real job, timed.

Three shapes, mirroring how the repository is actually exercised:

- ``macro.fault_free``  — the standard 21-disk array (paper Table 5-1:
  C=21, G=5, cvscan, 50/50 read/write Poisson traffic) run fault-free
  for one steady-state window. Reported as *simulated disk I/Os per
  wall-clock second* (and user requests/s), the number every figure
  reproduction is bound by.
- ``macro.sptf``        — the same array under the SPTF scheduler,
  which prices every queued candidate with the drive's service-time
  arithmetic on every pop: the macro shape that loads the scheduler.
- ``macro.sweep``       — a small multi-point sweep through
  :func:`repro.sweep.run_sweep` with caching off: the figure-driver
  shape, wall-clock only.
- ``macro.campaign``    — one Monte Carlo fault-campaign point with
  stochastic failures and a spare pool: the reliability-experiment
  shape, wall-clock only.

The scenario configs are fixed-seed, so the simulated work is
bit-identical between runs and commits; only wall-clock varies.
"""

from __future__ import annotations

# simlint: disable-file=DET001 (wall-clock measurement IS the benchmark deliverable; scenario configs are fixed-seed so simulated work is bit-identical)

import time
import typing

from repro.experiments.builders import PAPER_NUM_DISKS
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.sweep import SweepOptions, SweepSpec, run_sweep

#: The standard macro scenario: the paper's array at the declustering
#: ratio its reconstruction chapters dwell on, driven at a rate that
#: keeps the disks busy without saturating the tiny scale.
STANDARD_STRIPE_SIZE = 5
STANDARD_RATE_PER_S = 210.0
STANDARD_READ_FRACTION = 0.5


def standard_config(scale: str = "tiny") -> ScenarioConfig:
    """The fault-free 21-disk scenario every bench document reports."""
    return ScenarioConfig(
        stripe_size=STANDARD_STRIPE_SIZE,
        user_rate_per_s=STANDARD_RATE_PER_S,
        read_fraction=STANDARD_READ_FRACTION,
        mode="fault-free",
        num_disks=PAPER_NUM_DISKS,
        scale=scale,
    )


def fault_free(scale: str = "tiny") -> typing.Dict[str, float]:
    """Time the standard fault-free scenario; I/Os measured exactly.

    The scenario runs through :func:`run_scenario` with metrics
    collection off — the same code path the sweep workers take.
    """
    config = standard_config(scale)
    started = time.perf_counter()
    result = run_scenario(config, collect_metrics=False)
    wall_s = time.perf_counter() - started
    # Disk I/O count is derived from the access-path mix, which the
    # run's metrics would also report; rather than pay the metrics
    # overhead inside the timed region, recount in an untimed pass.
    counted = run_scenario(config, collect_metrics=True)
    disk_ios = sum(row["completed"] for row in counted.metrics["disks"])
    return {
        "requests": result.requests_completed,
        "simulated_ms": result.simulated_ms,
        "disk_ios": disk_ios,
        "wall_s": wall_s,
        "requests_per_s": result.requests_completed / wall_s if wall_s > 0 else 0.0,
        "ios_per_s": disk_ios / wall_s if wall_s > 0 else 0.0,
    }


def sptf(scale: str = "tiny") -> typing.Dict[str, float]:
    """The standard scenario under SPTF: per-pop queue pricing, timed.

    Driven harder than the cvscan standard so queues actually build —
    SPTF prices every queued candidate per pop, so deeper queues mean
    more pricing work per serviced request.
    """
    config = ScenarioConfig(
        stripe_size=STANDARD_STRIPE_SIZE,
        user_rate_per_s=2.0 * STANDARD_RATE_PER_S,
        read_fraction=STANDARD_READ_FRACTION,
        mode="fault-free",
        num_disks=PAPER_NUM_DISKS,
        policy="sptf",
        scale=scale,
    )
    started = time.perf_counter()
    result = run_scenario(config, collect_metrics=False)
    wall_s = time.perf_counter() - started
    return {
        "requests": result.requests_completed,
        "simulated_ms": result.simulated_ms,
        "wall_s": wall_s,
        "requests_per_s": result.requests_completed / wall_s if wall_s > 0 else 0.0,
    }


def sweep(scale: str = "tiny") -> typing.Dict[str, float]:
    """A 4-point fault-free sweep, serial, cache off: wall-clock."""
    spec = SweepSpec(
        axes=[
            ("stripe_size", (3, 5)),
            ("user_rate_per_s", (105.0, 210.0)),
        ],
        base=dict(
            read_fraction=STANDARD_READ_FRACTION,
            mode="fault-free",
            num_disks=PAPER_NUM_DISKS,
            scale=scale,
        ),
    )
    started = time.perf_counter()
    outcome = run_sweep(spec, SweepOptions(jobs=1, cache=None, progress=False))
    wall_s = time.perf_counter() - started
    points = len(outcome.results)
    return {
        "points": points,
        "wall_s": wall_s,
        "points_per_s": points / wall_s if wall_s > 0 else 0.0,
    }


def campaign(scale: str = "tiny") -> typing.Dict[str, float]:
    """One accelerated fault-campaign trial: wall-clock."""
    from repro.experiments.campaign import MICRO, campaign_profile

    config = ScenarioConfig(
        stripe_size=STANDARD_STRIPE_SIZE,
        user_rate_per_s=0.0,
        read_fraction=STANDARD_READ_FRACTION,
        mode="campaign",
        recon_workers=8,
        num_disks=PAPER_NUM_DISKS,
        scale=MICRO,
        fault_profile=campaign_profile(seed=1992),
        spares=512,
        replacement_delay_ms=1000.0,
        mission_ms=12.0 * 3_600_000.0,
    )
    started = time.perf_counter()
    result = run_scenario(config, collect_metrics=False)
    wall_s = time.perf_counter() - started
    return {
        "simulated_ms": result.simulated_ms,
        "wall_s": wall_s,
        "simulated_hours_per_s": (
            (result.simulated_ms / 3_600_000.0) / wall_s if wall_s > 0 else 0.0
        ),
    }


#: name -> benchmark callable taking the scale preset name.
MACRO_BENCHMARKS: typing.Dict[str, typing.Callable[[str], typing.Dict[str, float]]] = {
    "macro.fault_free": fault_free,
    "macro.sptf": sptf,
    "macro.sweep": sweep,
    "macro.campaign": campaign,
}
