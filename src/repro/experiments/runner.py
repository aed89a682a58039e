"""The scenario runner: one simulation point, any mode.

A *scenario* is one (layout, rate, read fraction, mode) point:

- ``fault-free`` — steady-state response-time measurement;
- ``degraded``  — disk 0 failed, no replacement, steady-state;
- ``recon``     — disk 0 failed, replacement installed, the sweep and
  the user workload run concurrently until reconstruction completes;
- ``campaign``  — a continuous-operation fault campaign: a
  :class:`~repro.faults.injector.FaultInjector` drives stochastic disk
  failures and latent sector errors against the array (with a spare
  pool repairing what it can) until the mission time elapses or data
  is lost.

Runner output carries everything any figure or table needs: user
response summaries, reconstruction time, per-cycle phase records,
per-disk utilization, and — when fault injection is enabled — the
fault campaign summary.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field

from repro.array.addressing import ArrayAddressing
from repro.array.controller import ArrayController
from repro.disk.constant import ConstantRateDisk
from repro.disk.scheduling.base import parse_policy
from repro.experiments.builders import PAPER_NUM_DISKS, build_layout, check_layout
from repro.experiments.scales import ScalePreset, get_scale
from repro.faults.profile import FaultProfile
from repro.metrics import MetricsRegistry
from repro.recon.algorithms import BASELINE, ReconAlgorithm, algorithm_by_name
from repro.recon.sweeper import ReconstructionResult, Reconstructor
from repro.sim.environment import Environment
from repro.workload.recorder import ResponseRecorder, ResponseSummary
from repro.workload.synthetic import SyntheticWorkload, WorkloadConfig

MODES = ("fault-free", "degraded", "recon", "campaign")

#: Config fields that must be plain ``int``s. A float or a bool here
#: either fails only inside a worker or runs the same work under a
#: second cache key (``21.0`` and ``True`` hash apart from ``21`` and
#: ``1``).
_INT_FIELDS = (
    "stripe_size", "num_disks", "recon_workers", "seed", "failed_disk",
    "spares", "syndromes",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation point."""

    stripe_size: int
    user_rate_per_s: float
    read_fraction: float
    mode: str = "fault-free"
    algorithm: ReconAlgorithm = BASELINE
    recon_workers: int = 1
    scale: typing.Union[str, ScalePreset] = "tiny"
    num_disks: int = PAPER_NUM_DISKS
    seed: int = 1992
    policy: str = "cvscan"
    with_datastore: bool = False
    failed_disk: int = 0
    #: Ablation switch: replace the sector-accurate disks with fixed
    #: service-time servers (the Muntz & Lui work-preserving world).
    constant_rate_disks: bool = False
    #: Extension: idle time each sweep worker inserts between cycles
    #: (reconstruction throttling, Section 9 future work).
    recon_cycle_delay_ms: float = 0.0
    #: Fault injection (strictly opt-in): when set, disks carry error
    #: models and the controller retries/escalates. Required (and the
    #: stochastic failure clocks only run) in ``campaign`` mode.
    fault_profile: typing.Optional[FaultProfile] = None
    #: Campaign knobs: spare disks on the shelf, spare switch-in time,
    #: and the mission length (defaults to the scale's steady duration).
    spares: int = 0
    replacement_delay_ms: float = 0.0
    mission_ms: typing.Optional[float] = None
    #: Syndromes per parity stripe: 1 (the paper's single parity) or 2
    #: (the dual P+Q extension tolerating two concurrent failures).
    syndromes: int = 1
    #: Layout implementation family (see
    #: :data:`repro.experiments.builders.LAYOUT_CHOICES`): "auto" follows
    #: every rule of :func:`~repro.experiments.builders.check_layout`;
    #: "table"/"prime" force one family.
    layout: str = "auto"

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.recon_workers < 1:
            raise ValueError("recon_workers must be >= 1")
        if not (math.isfinite(self.user_rate_per_s) and self.user_rate_per_s >= 0):
            raise ValueError(
                f"user_rate_per_s must be finite and >= 0, got {self.user_rate_per_s}"
            )
        if self.mode != "campaign" and self.user_rate_per_s == 0:
            raise ValueError(f"user_rate_per_s must be > 0 in {self.mode} mode")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {self.read_fraction}")
        for name in ("recon_cycle_delay_ms", "replacement_delay_ms"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.mission_ms is not None and not (
            math.isfinite(self.mission_ms) and self.mission_ms > 0
        ):
            raise ValueError(f"mission_ms must be finite and > 0, got {self.mission_ms}")
        if self.mode == "campaign" and self.fault_profile is None:
            raise ValueError("campaign mode requires a fault_profile")
        if self.spares < 0:
            raise ValueError("spares cannot be negative")
        if self.syndromes not in (1, 2):
            raise ValueError(f"syndromes must be 1 or 2, got {self.syndromes}")
        if self.stripe_size <= self.syndromes:
            raise ValueError(
                f"stripe size {self.stripe_size} leaves no data units with "
                f"{self.syndromes} syndromes"
            )
        # The widest stripe is RAID 5's, where G = C.
        if self.num_disks < self.stripe_size:
            raise ValueError(
                f"num_disks must be >= stripe size {self.stripe_size}, "
                f"got {self.num_disks}"
            )
        if not 0 <= self.failed_disk < self.num_disks:
            raise ValueError(
                f"failed_disk must be in [0, {self.num_disks}), got {self.failed_disk}"
            )
        plan = check_layout(self.num_disks, self.stripe_size, self.syndromes, self.layout)
        scale = self.scale_preset()  # an unknown scale name raises ValueError
        if plan.table_depth > scale.units_per_disk:
            raise ValueError(
                f"one full layout table for C={self.num_disks} "
                f"G={plan.stripe_size} is {plan.table_depth} units deep; scale "
                f"{scale.name!r} has {scale.units_per_disk} units per disk"
            )
        parse_policy(self.policy)

    @property
    def alpha(self) -> float:
        return (self.stripe_size - 1) / (self.num_disks - 1)

    def scale_preset(self) -> ScalePreset:
        if isinstance(self.scale, ScalePreset):
            return self.scale
        return get_scale(self.scale)

    def to_key(self) -> typing.Dict[str, typing.Any]:
        """Canonical JSON-safe form of this config.

        The algorithm is stored by name and a :class:`ScalePreset` by
        its fields, so the key survives ``json.dumps``/``loads`` and
        :meth:`from_key` rebuilds an equal config. This is the identity
        the sweep result cache hashes and the form
        :mod:`repro.experiments.persistence` writes when a row carries
        a config.
        """
        key = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        key["algorithm"] = self.algorithm.name
        if isinstance(self.scale, ScalePreset):
            key["scale"] = dataclasses.asdict(self.scale)
        if self.fault_profile is not None:
            key["fault_profile"] = dataclasses.asdict(self.fault_profile)
        return key

    @classmethod
    def from_key(cls, key: typing.Mapping[str, typing.Any]) -> "ScenarioConfig":
        """Rebuild a config from :meth:`to_key` output (or parsed JSON)."""
        kwargs = dict(key)
        if isinstance(kwargs.get("algorithm"), str):
            kwargs["algorithm"] = algorithm_by_name(kwargs["algorithm"])
        if isinstance(kwargs.get("scale"), dict):
            kwargs["scale"] = ScalePreset(**kwargs["scale"])
        if isinstance(kwargs.get("fault_profile"), dict):
            kwargs["fault_profile"] = FaultProfile(**kwargs["fault_profile"])
        return cls(**kwargs)


@dataclass
class ScenarioResult:
    """Everything measured in one scenario."""

    config: ScenarioConfig
    response: ResponseSummary
    read_response: ResponseSummary
    write_response: ResponseSummary
    simulated_ms: float
    requests_completed: int
    mapped_units_per_disk: int
    disk_utilization: typing.List[float] = field(default_factory=list)
    reconstruction: typing.Optional[ReconstructionResult] = None
    integrity_errors: typing.List[str] = field(default_factory=list)
    #: JSON-safe fault campaign summary; None when fault injection was
    #: disabled (the default).
    fault_summary: typing.Optional[typing.Dict[str, typing.Any]] = None
    #: JSON-safe observability block (latency histograms by class,
    #: per-disk utilization and queue depth, reconstruction progress) —
    #: see :meth:`repro.metrics.MetricsRegistry.to_dict`. None when the
    #: run was executed with ``collect_metrics=False``.
    metrics: typing.Optional[typing.Dict[str, typing.Any]] = None

    @property
    def reconstruction_time_s(self) -> float:
        if self.reconstruction is None:
            raise RuntimeError("scenario did not run a reconstruction")
        return self.reconstruction.reconstruction_time_ms / 1000.0

    @property
    def normalized_recon_ms_per_unit(self) -> float:
        """Reconstruction time per rebuilt unit — scale-independent."""
        if self.reconstruction is None:
            raise RuntimeError("scenario did not run a reconstruction")
        return self.reconstruction.reconstruction_time_ms / self.reconstruction.total_units


def run_scenario(
    config: ScenarioConfig,
    collect_metrics: bool = True,
    lock_monitor=None,
) -> ScenarioResult:
    """Simulate one scenario point and summarize it.

    ``collect_metrics`` controls only the observability block attached
    to the result — it is deliberately *not* part of
    :class:`ScenarioConfig` (and thus not part of the cache key),
    because metrics collection is passive: the simulation is
    event-for-event identical with it on or off. ``lock_monitor`` (the
    simsan sanitizer) is held to the same contract: observation only,
    bit-identical results with it on or off.
    """
    scale = config.scale_preset()
    env = Environment()
    layout = build_layout(
        config.num_disks,
        config.stripe_size,
        syndromes=config.syndromes,
        layout=config.layout,
    )
    addressing = ArrayAddressing(layout, scale.spec())
    disk_factory = ConstantRateDisk if config.constant_rate_disks else None
    metrics = (
        MetricsRegistry(measure_since_ms=scale.warmup_ms) if collect_metrics else None
    )
    controller = ArrayController(
        env,
        addressing,
        policy=config.policy,
        algorithm=config.algorithm,
        with_datastore=config.with_datastore,
        disk_factory=disk_factory,
        fault_profile=config.fault_profile,
        metrics=metrics,
        measure_since_ms=scale.warmup_ms,
        lock_monitor=lock_monitor,
    )
    recorder = ResponseRecorder(warmup_ms=scale.warmup_ms)
    workload: typing.Optional[SyntheticWorkload] = None
    if not (config.mode == "campaign" and config.user_rate_per_s <= 0):
        # A campaign may run without user traffic (pure reliability
        # estimation); every other mode requires a workload.
        workload = SyntheticWorkload(
            controller,
            WorkloadConfig(
                access_rate_per_s=config.user_rate_per_s,
                read_fraction=config.read_fraction,
                seed=config.seed,
            ),
            recorder=recorder,
        )

    reconstruction: typing.Optional[ReconstructionResult] = None
    fault_extra: typing.Dict[str, typing.Any] = {}
    if config.mode == "fault-free":
        workload.run(duration_ms=scale.steady_duration_ms)
        env.run(until=scale.steady_duration_ms)
    elif config.mode == "degraded":
        controller.fail_disk(config.failed_disk)
        workload.run(duration_ms=scale.steady_duration_ms)
        env.run(until=scale.steady_duration_ms)
    elif config.mode == "recon":
        controller.fail_disk(config.failed_disk)
        controller.install_replacement()
        reconstructor = Reconstructor(
            controller,
            workers=config.recon_workers,
            cycle_delay_ms=config.recon_cycle_delay_ms,
        )
        done = reconstructor.start()
        workload.run(duration_ms=float("inf"))
        env.run(until=done)
        workload.stop()
        env.run(until=workload.drained())
        reconstruction = reconstructor.result()
    else:  # campaign
        from repro.array.sparing import SparePool
        from repro.faults.injector import FaultInjector

        spare_pool = (
            SparePool(
                controller,
                spares=config.spares,
                replacement_delay_ms=config.replacement_delay_ms,
                recon_workers=config.recon_workers,
                cycle_delay_ms=config.recon_cycle_delay_ms,
            )
            if config.spares > 0
            else None
        )
        injector = FaultInjector(controller, monitor=spare_pool).start()
        mission = (
            config.mission_ms
            if config.mission_ms is not None
            else scale.steady_duration_ms
        )
        if workload is not None:
            workload.run(duration_ms=mission)
        env.run(until=env.any_of([env.timeout(mission), injector.data_loss_event]))
        repairs = spare_pool.repairs if spare_pool is not None else []
        fault_extra = {
            "mission_ms": mission,
            "disk_failures": injector.disk_failures,
            "repairs_completed": len(repairs),
            "spares_remaining": (
                spare_pool.spares_remaining if spare_pool is not None else 0
            ),
            "mean_repair_ms": (
                sum(record.total_repair_ms for record in repairs) / len(repairs)
                if repairs
                else None
            ),
        }

    if workload is not None:
        workload.stop()
    end_ms = env.now
    # Utilization over the measurement window [warmup, end] — matching
    # how response samples are filtered. The windowed accumulator clips
    # warm-up busy time and guards a zero-length window (reported 0.0).
    utilization = [
        disk.stats.busy_window.utilization(end_ms) for disk in controller.disks
    ]
    fault_summary: typing.Optional[typing.Dict[str, typing.Any]] = None
    if controller.fault_log is not None:
        faults = controller.faults
        loss_events = faults.data_loss_events
        fault_summary = {
            "events": controller.fault_log.summary(),
            "data_lost": faults.data_lost,
            "lost_disks": sorted(faults.lost_disks),
            "data_loss_events": len(loss_events),
            "time_to_data_loss_ms": (
                loss_events[0].at_ms if loss_events else None
            ),
            "exposed_stripes": (
                len(loss_events[0].exposed_stripes) if loss_events else 0
            ),
        }
        fault_summary.update(fault_extra)
    metrics_block: typing.Optional[typing.Dict[str, typing.Any]] = None
    if metrics is not None:
        if workload is not None:
            metrics.counter("requests-completed").increment(workload.completed)
            metrics.counter("integrity-errors").increment(
                len(workload.integrity_errors)
            )
        metrics.set_disk_rows(
            [
                {
                    "disk": disk.disk_id,
                    "utilization": utilization[index],
                    "busy_ms": disk.stats.busy_window.total_ms,
                    "seek_ms": disk.stats.total_seek_ms,
                    "rotation_ms": disk.stats.total_rotation_ms,
                    "transfer_ms": disk.stats.total_transfer_ms,
                    "queue_wait_ms": disk.stats.total_queue_wait_ms,
                    "completed": disk.stats.completed,
                }
                for index, disk in enumerate(controller.disks)
            ]
        )
        metrics_block = metrics.to_dict(end_ms)
    return ScenarioResult(
        config=config,
        response=recorder.summary(),
        read_response=recorder.summary(reads_only=True),
        write_response=recorder.summary(writes_only=True),
        simulated_ms=end_ms,
        requests_completed=workload.completed if workload is not None else 0,
        mapped_units_per_disk=addressing.mapped_units_per_disk,
        disk_utilization=utilization,
        reconstruction=reconstruction,
        integrity_errors=(
            list(workload.integrity_errors) if workload is not None else []
        ),
        fault_summary=fault_summary,
        metrics=metrics_block,
    )
