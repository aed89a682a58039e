"""The benchmark's workloads, with every constant pinned in this file.

Each workload is one fixed batch of deterministic simulated work: a
:class:`ScenarioConfig` built from the constants below and a seed. No
value is read from the experiment presets (``repro.experiments.campaign``,
the ``tiny``/``small``/``paper`` scales), so editing those cannot
silently change what the benchmark measures.

Simulated user traffic is an open-loop Poisson stream of 4 KB accesses
at the stated rate; the benchmark itself is a closed loop of whole
scenario runs, one at a time.

``smoke=True`` gives a scaled-down copy of each workload (same shape,
seconds of simulated time) for the benchmark's own tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

from repro.array.addressing import ArrayAddressing
from repro.experiments.builders import build_layout
from repro.experiments.runner import ScenarioConfig, ScenarioResult
from repro.experiments.scales import ScalePreset
from repro.faults.profile import FaultProfile
from repro.recon.algorithms import REDIRECT_PIGGYBACK

DEFAULT_SEED = 1992

#: The paper's array (Table 5-1): C=21 disks, parity stripes of G=5
#: (alpha = 0.2, the appendix design), 4 KB stripe units.
NUM_DISKS = 21
STRIPE_SIZE = 5
#: Full IBM 0661 (Table 5-1).
PAPER_CYLINDERS = 949


def _preset(name: str, cylinders: int, duration_ms: float, warmup_ms: float) -> ScalePreset:
    return ScalePreset(
        name=f"e2e-{name}",
        cylinders=cylinders,
        steady_duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        note="benchmark workload",
    )


def _ff_mixed(seed: int, smoke: bool) -> ScenarioConfig:
    return ScenarioConfig(
        stripe_size=STRIPE_SIZE,
        num_disks=NUM_DISKS,
        layout="table",
        policy="cvscan",
        user_rate_per_s=210.0,
        read_fraction=0.5,
        mode="fault-free",
        seed=seed,
        scale=_preset(
            "ff_mixed",
            PAPER_CYLINDERS,
            duration_ms=5_000.0 if smoke else 35_000.0,
            warmup_ms=1_000.0 if smoke else 5_000.0,
        ),
    )


def _writes_sptf(seed: int, smoke: bool) -> ScenarioConfig:
    # 300 writes/s keeps the disks at ~0.93 utilisation: heavily queued
    # but stable (mean response holds near 215 ms from 60 s to 240 s).
    return ScenarioConfig(
        stripe_size=STRIPE_SIZE,
        num_disks=NUM_DISKS,
        layout="table",
        policy="sptf",
        user_rate_per_s=300.0,
        read_fraction=0.0,
        mode="fault-free",
        seed=seed,
        scale=_preset(
            "writes_sptf",
            PAPER_CYLINDERS,
            duration_ms=3_000.0 if smoke else 20_000.0,
            warmup_ms=1_000.0 if smoke else 5_000.0,
        ),
    )


def _recon_8way(seed: int, smoke: bool) -> ScenarioConfig:
    # Runs until the rebuild of disk 0 completes, so the disk size sets
    # the amount of work.
    return ScenarioConfig(
        stripe_size=STRIPE_SIZE,
        num_disks=NUM_DISKS,
        layout="table",
        policy="cvscan",
        user_rate_per_s=210.0,
        read_fraction=0.5,
        mode="recon",
        algorithm=REDIRECT_PIGGYBACK,
        recon_workers=8,
        failed_disk=0,
        seed=seed,
        scale=_preset(
            "recon_8way",
            13 if smoke else 18,
            duration_ms=1_000.0,
            warmup_ms=1_000.0 if smoke else 5_000.0,
        ),
    )


def _campaign_pq(seed: int, smoke: bool) -> ScenarioConfig:
    # An accelerated life test with a spare shelf that never runs out:
    # every failure is repaired, so no mission ends early on data loss.
    return ScenarioConfig(
        stripe_size=STRIPE_SIZE,
        num_disks=NUM_DISKS,
        syndromes=2,
        layout="table",
        policy="cvscan",
        user_rate_per_s=0.0,
        read_fraction=0.5,
        mode="campaign",
        recon_workers=8,
        seed=seed,
        fault_profile=FaultProfile(
            disk_mttf_hours=1.0,
            latent_errors_per_hour=0.1,
            seed=seed,
        ),
        spares=512,
        replacement_delay_ms=1_000.0,
        mission_ms=(0.25 if smoke else 0.75) * 3_600_000.0,
        scale=_preset("campaign_pq", 3, duration_ms=1_000.0, warmup_ms=0.0),
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: typing.Callable[[int, bool], ScenarioConfig]


WORKLOADS: typing.Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ff_mixed",
            "paper's fault-free point (C=21 G=5, full 0661 disks, cvscan, 50% reads "
            "at 210/s): event kernel, processes and fault-free controller paths",
            _ff_mixed,
        ),
        Workload(
            "writes_sptf",
            "100% writes at 300/s under SPTF: locked read-modify-writes and "
            "per-pop service-time pricing load the disk layer",
            _writes_sptf,
        ),
        Workload(
            "recon_8way",
            "Fig 8-3/8-4 shape: disk 0 rebuilt by 8 sweep workers with "
            "redirect+piggyback under 210/s user traffic",
            _recon_8way,
        ),
        Workload(
            "campaign_pq",
            "P+Q fault campaign, no user traffic: fault injector, sparing, "
            "concurrent rebuilds and double-degraded paths",
            _campaign_pq,
        ),
    )
}


def scenario(name: str, seed: int = DEFAULT_SEED, smoke: bool = False) -> ScenarioConfig:
    """The scenario one rep of workload ``name`` runs."""
    return WORKLOADS[name].scenario(seed, smoke)


def set_up(name: str) -> ArrayAddressing:
    """Build the workload's layout and address map, as a scenario does."""
    config = scenario(name)
    layout = build_layout(
        config.num_disks,
        config.stripe_size,
        syndromes=config.syndromes,
        layout=config.layout,
    )
    return ArrayAddressing(layout, config.scale_preset().spec())


def result_digest(result: ScenarioResult) -> str:
    """sha256 over everything a scenario reports except the metrics block."""
    reconstruction = result.reconstruction
    document = {
        "response": dataclasses.asdict(result.response),
        "read_response": dataclasses.asdict(result.read_response),
        "write_response": dataclasses.asdict(result.write_response),
        "simulated_ms": result.simulated_ms,
        "requests_completed": result.requests_completed,
        "disk_utilization": result.disk_utilization,
        "reconstruction": (
            dataclasses.asdict(reconstruction) if reconstruction is not None else None
        ),
        "fault_summary": result.fault_summary,
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
