"""The reconstruction sweep: single-threaded or N-way parallel.

Each worker repeatedly claims the next lost unit of the failed disk,
locks its parity stripe, reads the rest of that stripe in parallel
(the *read phase*), decodes the unit from it (an XOR with one
syndrome), and writes the recovered unit to the replacement (the
*write phase*). Section 8.1 shows a single worker cannot keep any disk
busy, so :class:`Reconstructor` runs a configurable number of workers
against a shared claim cursor.

Every cycle's read- and write-phase durations are recorded; Table 8-1
is the average of the last 300 cycles, where redirection is at its
most useful and piggybacking at its least.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field

from repro.disk.drive import KIND_RECON
from repro.faults.log import REBUILD_LOST
from repro.layout.base import UnitAddress

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.controller import ArrayController


@dataclass(frozen=True)
class CycleRecord:
    """One reconstruction cycle (one stripe unit rebuilt by the sweep)."""

    offset: int
    start_ms: float
    read_phase_ms: float
    write_phase_ms: float

    @property
    def cycle_ms(self) -> float:
        return self.read_phase_ms + self.write_phase_ms


@dataclass
class PhaseSummary:
    """Mean and standard deviation of a set of phase durations."""

    mean_ms: float
    std_ms: float
    count: int

    @classmethod
    def of(cls, samples: typing.Sequence[float]) -> "PhaseSummary":
        n = len(samples)
        if n == 0:
            return cls(mean_ms=0.0, std_ms=0.0, count=0)
        mean = sum(samples) / n
        variance = sum((s - mean) ** 2 for s in samples) / n
        return cls(mean_ms=mean, std_ms=math.sqrt(variance), count=n)


@dataclass
class ReconstructionResult:
    """Outcome of a completed reconstruction."""

    reconstruction_time_ms: float
    total_units: int
    swept_units: int          # distinct units rebuilt by the sweep itself
    user_built_units: int     # rebuilt by user writes / piggybacks
    resweeps: int             # extra cycles spent on baseline-dirtied units
    lost_units: int = 0       # units surrendered to a multi-failure
    cycles: typing.List[CycleRecord] = field(default_factory=list)

    def phase_summary(self, last_n: int = 300) -> typing.Tuple[PhaseSummary, PhaseSummary]:
        """(read phase, write phase) over the last ``last_n`` cycles."""
        tail = self.cycles[-last_n:]
        return (
            PhaseSummary.of([c.read_phase_ms for c in tail]),
            PhaseSummary.of([c.write_phase_ms for c in tail]),
        )


class Reconstructor:
    """Drives reconstruction of the failed disk on ``controller``.

    Parameters
    ----------
    controller:
        An array with a failed disk and an installed replacement.
    workers:
        Concurrent sweep processes (the paper evaluates 1 and 8).
    cycle_delay_ms:
        Reconstruction throttle (the paper's future-work extension):
        each worker idles this long between cycles, trading longer
        reconstruction for lower user response-time degradation.
    disk:
        The failed disk to rebuild; defaults to the earliest active
        failure. Dual-syndrome arrays run one Reconstructor per failed
        disk, concurrently — each sweeps its own disk and, on P+Q
        layouts, decodes through the *other* failure instead of
        aborting when a second disk dies mid-sweep.
    """

    def __init__(
        self,
        controller: "ArrayController",
        workers: int = 1,
        cycle_delay_ms: float = 0.0,
        disk: typing.Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if cycle_delay_ms < 0:
            raise ValueError(f"negative throttle delay {cycle_delay_ms}")
        if disk is None:
            disk = controller.faults.failed_disk
        status = (
            controller.recon_statuses.get(disk) if disk is not None else None
        )
        if status is None:
            raise RuntimeError("install a replacement before reconstructing")
        self.controller = controller
        self.disk = disk
        self.status = status
        self.workers = workers
        self.cycle_delay_ms = cycle_delay_ms
        self.cycles: typing.List[CycleRecord] = []
        self.lost_units = 0
        self._started = False

    def start(self):
        """Launch the sweep workers; returns the completion event.

        The completion event fires with the reconstruction time in ms.
        When it fires, the controller has already been returned to
        fault-free operation via :meth:`ArrayController.finish_repair`.
        """
        if self._started:
            raise RuntimeError("reconstruction already started")
        self._started = True
        env = self.controller.env
        status = self.status
        status.started_at = env.now
        # A worker past the unit count would claim nothing and return at
        # once, so at most one worker per unit is started.
        for index in range(min(self.workers, status.total_units)):
            env.process(self._worker(), name=f"recon-worker-{index}")
        env.process(self._finisher(), name="recon-finisher")
        return status.complete_event

    def result(self) -> ReconstructionResult:
        """Summary after completion (raises if reconstruction unfinished)."""
        status = self.status
        unique_swept = len({cycle.offset for cycle in self.cycles})
        return ReconstructionResult(
            reconstruction_time_ms=status.reconstruction_time_ms(),
            total_units=status.total_units,
            swept_units=unique_swept,
            user_built_units=status.total_units - unique_swept - self.lost_units,
            resweeps=len(self.cycles) - unique_swept,
            lost_units=self.lost_units,
            cycles=list(self.cycles),
        )

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def _finisher(self):
        yield self.status.complete_event
        self.controller.finish_repair(self.disk)

    def _worker(self):
        controller = self.controller
        env = controller.env
        layout = controller.layout
        status = self.status
        failed = self.disk
        while True:
            offset = status.claim_next()
            if offset is None:
                return
            stripe, _role = layout.stripe_of(failed, offset)
            yield controller.locks.acquire(stripe)
            try:
                if status.is_built(offset):
                    # A user reconstruct-write landed while we waited.
                    continue
                if controller._stripe_data_lost(stripe):
                    # A multi-failure destroyed more units of this
                    # stripe than the syndromes can recover: nothing
                    # left to rebuild the target from. Surrender the
                    # unit (marking it built lets the sweep terminate)
                    # and account the loss.
                    self._surrender(stripe, offset)
                    continue
                target = UnitAddress(failed, offset)
                read_start = env.now
                # With P+Q the decode reads around up to one *other* dead
                # unit, which lets a rebuild continue (rather than abort)
                # when a second disk fails mid-sweep.
                decoded, _erasures = yield from controller._decode(
                    stripe, (target,), kind=KIND_RECON, repair_errored=True
                )
                if decoded is None:
                    # A peer was unreadable too (a latent error survived
                    # the retries): the sweep cannot rebuild this unit.
                    self._surrender(stripe, offset)
                    continue
                value = decoded[target]
                write_start = env.now
                yield controller._disk_access(target, is_write=True, kind=KIND_RECON)
                controller._ds_write(target, value)
                status.mark_built(offset)
                self.cycles.append(
                    CycleRecord(
                        offset=offset,
                        start_ms=read_start,
                        read_phase_ms=write_start - read_start,
                        write_phase_ms=env.now - write_start,
                    )
                )
                if controller.metrics is not None:
                    controller.metrics.record_latency(
                        "recon-read", write_start - read_start, env.now
                    )
                    controller.metrics.record_latency(
                        "recon-write", env.now - write_start, env.now
                    )
            finally:
                controller.locks.release(stripe)
            if self.cycle_delay_ms > 0:
                yield env.timeout(self.cycle_delay_ms)

    def _surrender(self, stripe: int, offset: int) -> None:
        """Give up on a unit destroyed by a multi-failure.

        Marking it built is what lets the sweep terminate; the loss is
        accounted in ``lost_units`` and the fault log, never silently.
        """
        controller = self.controller
        self.lost_units += 1
        self.status.mark_built(offset)
        if controller.fault_log is not None:
            controller.fault_log.record(
                REBUILD_LOST, controller.env.now, stripe=stripe, offset=offset
            )
