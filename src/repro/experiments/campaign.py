"""Monte Carlo continuous-operation campaign: empirical MTTDL vs alpha.

The paper's reliability argument (Section 8, via [Patterson88]) is
analytic: MTTDL ≈ MTTF² / (C·(C−1)·MTTR), so shorter reconstructions
buy reliability. This experiment *measures* it: a
:class:`~repro.faults.injector.FaultInjector` drives an accelerated
life test — hours-scale disk MTTF, a spare pool repairing each failure
— against arrays of varying declustering ratio, and each trial runs
until a concurrent failure beyond the array's tolerance loses data or
the mission ends (the second failure for single-parity arrays, the
third for dual-syndrome P+Q ones). The empirical MTTDL (censored
exponential MLE: total observed time over observed losses) is then
cross-checked against the Markov approximation — the two-fault chain
when ``syndromes=2`` — fed with the campaign's own measured mean
repair time.

Campaigns always run on a micro-sized array: failure/repair statistics
need many repair cycles, not big disks, and per-access timing detail
is irrelevant at user rate 0. The CLI ``--scale`` therefore selects
the trial count, not the disk size.
"""

from __future__ import annotations

import typing

from repro.analysis.reliability import (
    ReliabilityInputs,
    data_loss_probability,
    mttdl_hours,
)
from repro.experiments.builders import PAPER_NUM_DISKS, check_layout
from repro.experiments.reporting import format_table
from repro.experiments.scales import ScalePreset
from repro.faults.profile import MS_PER_HOUR, FaultProfile
from repro.sweep import SweepOptions, SweepSpec, run_sweep

CAMPAIGN_STRIPE_SIZES = (4, 6, 10, 21)

#: Dual-syndrome (P+Q) campaign stripe sizes on C=21: G=5 is the cyclic
#: planar-difference-set design (triple-balanced), G=21 the cyclic
#: RAID-6 rotation, the rest catalog designs in the dual layout.
CAMPAIGN_PQ_STRIPE_SIZES = (5, 6, 10, 21)

#: Three cylinders ≈ a few hundred stripe units per disk: repairs take
#: seconds of simulated time, so one mission observes dozens of them.
MICRO = ScalePreset(
    name="campaign-micro",
    cylinders=3,
    steady_duration_ms=1_000.0,
    warmup_ms=0.0,
    note="fault-campaign size: a few hundred units/disk, fast repairs",
)

#: Accelerated life test: a 1-hour disk MTTF compresses years of array
#: lifetime into minutes of simulated time while keeping the
#: failure-vs-repair race (MTTR ≪ MTTF) in the realistic regime.
DISK_MTTF_HOURS = 1.0
#: Latent sector errors ride along to exercise the media-error paths;
#: they never fire the campaign's terminal double-disk-failure event,
#: so the MTTDL cross-check stays apples-to-apples with the Markov
#: model.
LATENT_ERRORS_PER_HOUR = 0.1
REPLACEMENT_DELAY_MS = 1_000.0
MISSION_HOURS = 12.0
#: Trials per stripe size, by CLI scale name.
TRIALS = {"tiny": 3, "small": 8, "paper": 16}


def campaign_profile(seed: int) -> FaultProfile:
    """The accelerated fault profile for one campaign trial."""
    return FaultProfile(
        disk_mttf_hours=DISK_MTTF_HOURS,
        latent_errors_per_hour=LATENT_ERRORS_PER_HOUR,
        seed=seed,
    )


def campaign_spec(
    scale: str = "tiny",
    stripe_sizes: typing.Sequence[int] = CAMPAIGN_STRIPE_SIZES,
    seed: int = 1992,
    trials: typing.Optional[int] = None,
    mission_hours: float = MISSION_HOURS,
    syndromes: int = 1,
) -> SweepSpec:
    """The campaign's sweep grid: ``trials`` missions per stripe size.

    Each stripe size runs on the G that :func:`check_layout` plans for
    it on the C=21 array: the size itself where a layout is exact, else
    the closest feasible alpha's. So every trial's config, and its
    :func:`trial_summary`, names the layout that ran. A list in which
    two sizes plan one G raises ``ValueError``.

    Enumeration is row-major with stripe size slowest, so the trials of
    one stripe size are contiguous — the ordering contract
    :func:`rows_from_summaries` aggregates by. This is the same grid
    for the CLI run and the job service, so both address identical
    cache entries.
    """
    trials = trials if trials is not None else TRIALS.get(scale, 3)
    requested_by_plan: typing.Dict[int, int] = {}
    for requested in stripe_sizes:
        planned = check_layout(PAPER_NUM_DISKS, requested, syndromes).stripe_size
        if planned in requested_by_plan:
            raise ValueError(
                f"stripe sizes {requested_by_plan[planned]} and {requested} both "
                f"run as G={planned} on C={PAPER_NUM_DISKS}"
            )
        requested_by_plan[planned] = requested
    profiles = [campaign_profile(seed + trial) for trial in range(trials)]
    return SweepSpec(
        axes=[("stripe_size", tuple(requested_by_plan)), ("fault_profile", profiles)],
        base=dict(
            user_rate_per_s=0.0,  # pure reliability estimation
            read_fraction=0.5,
            mode="campaign",
            recon_workers=8,
            scale=MICRO,
            seed=seed,
            spares=512,
            replacement_delay_ms=REPLACEMENT_DELAY_MS,
            mission_ms=mission_hours * MS_PER_HOUR,
            syndromes=syndromes,
        ),
    )


def trial_summary(result) -> dict:
    """The JSON-safe per-trial facts campaign aggregation needs.

    The CLI and the job service both aggregate these, and the service
    lists them per trial in a campaign's result document.
    """
    return {
        "g": result.config.stripe_size,
        "alpha": result.config.alpha,
        "num_disks": result.config.num_disks,
        "syndromes": result.config.syndromes,
        "data_lost": bool(result.fault_summary["data_lost"]),
        "simulated_ms": result.simulated_ms,
        "mean_repair_ms": result.fault_summary["mean_repair_ms"],
    }


def rows_from_summaries(
    summaries: typing.Sequence[dict],
    trials: int,
    mission_hours: float = MISSION_HOURS,
    disk_mttf_hours: float = DISK_MTTF_HOURS,
) -> typing.List[dict]:
    """Aggregate per-trial summaries (in grid order) into campaign rows."""
    rows = []
    # Row-major enumeration: trials of one stripe size are contiguous.
    for start in range(0, len(summaries), trials):
        group = summaries[start : start + trials]
        losses = sum(1 for s in group if s["data_lost"])
        observed_hours = sum(s["simulated_ms"] for s in group) / MS_PER_HOUR
        repair_samples = [
            s["mean_repair_ms"] for s in group if s["mean_repair_ms"] is not None
        ]
        mean_repair_ms = (
            sum(repair_samples) / len(repair_samples) if repair_samples else None
        )
        empirical_mttdl_h = observed_hours / losses if losses else float("inf")
        analytic_mttdl_h = None
        analytic_loss_p = None
        if mean_repair_ms is not None:
            inputs = ReliabilityInputs(
                num_disks=group[0]["num_disks"],
                disk_mttf_hours=disk_mttf_hours,
                repair_hours=mean_repair_ms / MS_PER_HOUR,
                fault_tolerance=group[0]["syndromes"],
            )
            analytic_mttdl_h = mttdl_hours(inputs)
            analytic_loss_p = data_loss_probability(inputs, mission_hours)
        rows.append(
            {
                "g": group[0]["g"],
                "alpha": round(group[0]["alpha"], 3),
                "syndromes": group[0]["syndromes"],
                "trials": trials,
                "losses": losses,
                "loss_fraction": round(losses / trials, 3),
                "mean_repair_s": (
                    round(mean_repair_ms / 1000.0, 2)
                    if mean_repair_ms is not None
                    else None
                ),
                "empirical_mttdl_h": (
                    round(empirical_mttdl_h, 3)
                    if empirical_mttdl_h != float("inf")
                    else None
                ),
                "analytic_mttdl_h": (
                    round(analytic_mttdl_h, 3)
                    if analytic_mttdl_h is not None
                    else None
                ),
                "mttdl_ratio": (
                    round(empirical_mttdl_h / analytic_mttdl_h, 2)
                    if analytic_mttdl_h is not None
                    and empirical_mttdl_h != float("inf")
                    else None
                ),
                "analytic_loss_probability": (
                    round(analytic_loss_p, 3) if analytic_loss_p is not None else None
                ),
            }
        )
    return rows


def run(
    scale: str = "tiny",
    stripe_sizes: typing.Optional[typing.Sequence[int]] = None,
    seed: int = 1992,
    trials: typing.Optional[int] = None,
    mission_hours: float = MISSION_HOURS,
    options: typing.Optional[SweepOptions] = None,
    syndromes: int = 1,
) -> typing.List[dict]:
    """Run the campaign grid; one row per stripe size."""
    if stripe_sizes is None:
        stripe_sizes = (
            CAMPAIGN_PQ_STRIPE_SIZES if syndromes == 2 else CAMPAIGN_STRIPE_SIZES
        )
    trials = trials if trials is not None else TRIALS.get(scale, 3)
    spec = campaign_spec(
        scale,
        stripe_sizes=stripe_sizes,
        seed=seed,
        trials=trials,
        mission_hours=mission_hours,
        syndromes=syndromes,
    )
    outcome = run_sweep(spec, options)
    summaries = [trial_summary(result) for result in outcome.results]
    return rows_from_summaries(summaries, trials, mission_hours)


def format_rows(rows: typing.Sequence[dict]) -> str:
    dual = bool(rows) and rows[0].get("syndromes", 1) == 2
    return format_table(
        headers=[
            "alpha", "G", "trials", "losses", "repair (s)",
            "MTTDL emp (h)", "MTTDL Markov (h)", "ratio", "P(loss) Markov",
        ],
        rows=[
            [
                r["alpha"], r["g"], r["trials"], r["losses"], r["mean_repair_s"],
                r["empirical_mttdl_h"], r["analytic_mttdl_h"], r["mttdl_ratio"],
                r["analytic_loss_probability"],
            ]
            for r in rows
        ],
        title=(
            ("P+Q fault campaign (two-fault Markov chain): "
             if dual else "Fault campaign: ")
            + "empirical vs Markov MTTDL "
            f"(C=21, accelerated disk MTTF {DISK_MTTF_HOURS:.0f} h, "
            f"{MISSION_HOURS:.0f} h missions, 8-way repair sweep)"
        ),
    )
