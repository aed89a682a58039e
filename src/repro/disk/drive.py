"""The disk drive server process.

Each :class:`Disk` is a single server inside the event-driven
simulation: requests are submitted to its scheduler queue; the drive
process services one request at a time, advancing the clock by a
physically-computed service time (seek + rotational latency + transfer,
split per track with skew-aware head switches), then fires the
request's completion event.

The drive is deliberately *not* work-preserving: service time depends
on the head position left by the previous request and on the platter's
rotational phase at the moment service starts — the properties the
paper shows the Muntz & Lui analytic model cannot capture.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.disk.geometry import DiskGeometry
from repro.disk.scheduling.base import Scheduler, make_scheduler
from repro.disk.seek import SeekModel
from repro.disk.specs import DiskSpec
from repro.metrics.accumulators import WindowedDuration
from repro.sim.events import Event, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Environment

#: Request provenance tags used by the statistics and the paper's
#: user-vs-reconstruction accounting.
KIND_USER = "user"
KIND_RECON = "recon"


def service_components(
    runs: typing.Sequence,
    head_cylinder: int,
    direction: int,
    start_ms: float,
    seek_time: typing.Callable[[int], float],
    sector_time_ms: float,
    sectors_per_track: int,
    head_switch_ms: float,
) -> typing.Tuple[float, float, float, float, int, int]:
    """Pure scalar service-time math for one request's track runs.

    This is the disk's only service-time arithmetic on any scenario
    path: the drive prices the request it services here, and the SPTF
    scheduler prices each queued candidate here. The batch path in
    :mod:`repro.disk.vectorized` (used by no scenario) must reproduce its
    results bit-for-bit (pinned by the property tests in
    ``tests/disk/test_vectorized.py``), so any
    change to the arithmetic here — including operation *order*, which
    decides float rounding — must be mirrored there.

    A one-run transfer (every stripe-unit access) takes a straight-line
    copy of the loop's first iteration. It performs the same float
    operations in the same order, minus the loop's ``0.0 +`` seeds,
    which are exact, so both spellings return the same bits
    (``tests/disk/test_fast_paths.py`` pins this against the loop).

    Returns ``(service_ms, seek_ms, rotation_ms, transfer_ms,
    head_cylinder, direction)`` where the last two are the head state
    after the transfer.
    """
    if len(runs) == 1:
        cylinder, _track, rotational_start, count = runs[0]
        if cylinder != head_cylinder:
            seek_ms = seek_time(abs(cylinder - head_cylinder))
            direction = 1 if cylinder > head_cylinder else -1
            clock = start_ms + seek_ms
        else:
            seek_ms = 0.0
            clock = start_ms
        position = (clock / sector_time_ms) % sectors_per_track
        slots_to_wait = (rotational_start - position) % sectors_per_track
        if slots_to_wait > sectors_per_track - 1e-6:
            slots_to_wait = 0.0
        rotation_ms = slots_to_wait * sector_time_ms
        clock += rotation_ms
        transfer_ms = count * sector_time_ms
        clock += transfer_ms
        return clock - start_ms, seek_ms, rotation_ms, transfer_ms, cylinder, direction
    clock = start_ms
    seek_ms = rotation_ms = transfer_ms = 0.0
    current_cylinder = head_cylinder
    for index, run in enumerate(runs):
        if run.cylinder != current_cylinder:
            this_seek = seek_time(abs(run.cylinder - current_cylinder))
            direction = 1 if run.cylinder > current_cylinder else -1
            current_cylinder = run.cylinder
            seek_ms += this_seek
            clock += this_seek
        elif index > 0:
            # Same cylinder, next head: pay the switch settle time.
            switch = head_switch_ms
            seek_ms += switch
            clock += switch
        position = (clock / sector_time_ms) % sectors_per_track
        slots_to_wait = (run.rotational_start - position) % sectors_per_track
        # Float round-off can turn an exact hit (wait 0) into a wait
        # of one full revolution minus epsilon; snap it back to zero.
        if slots_to_wait > sectors_per_track - 1e-6:
            slots_to_wait = 0.0
        wait = slots_to_wait * sector_time_ms
        rotation_ms += wait
        clock += wait
        transfer = run.count * sector_time_ms
        transfer_ms += transfer
        clock += transfer
    return (
        clock - start_ms,
        seek_ms,
        rotation_ms,
        transfer_ms,
        current_cylinder,
        direction,
    )


class DiskRequest:
    """One physical disk access.

    ``done`` is the completion event while the request is in flight;
    the drive clears it and succeeds the event with the request when
    the transfer finishes.

    A plain ``__slots__`` class rather than a dataclass: hundreds of
    thousands are allocated per scenario, and the per-instance dict is
    measurable. (``@dataclass(slots=True)`` needs Python 3.10; the CI
    matrix starts at 3.9.)
    """

    __slots__ = (
        "start_sector",
        "sector_count",
        "is_write",
        "kind",
        "done",
        "submit_ms",
        "start_service_ms",
        "complete_ms",
        "cylinder",
        "runs",
        "priced",
        "error",
    )

    def __init__(
        self,
        start_sector: int,
        sector_count: int,
        is_write: bool,
        kind: str = KIND_USER,
        done: object = None,
        submit_ms: float = 0.0,
        start_service_ms: float = 0.0,
        complete_ms: float = 0.0,
        cylinder: int = 0,
        error: typing.Optional[str] = None,
    ):
        self.start_sector = start_sector
        self.sector_count = sector_count
        self.is_write = is_write
        self.kind = kind
        self.done = done  # Event, attached at submit time
        self.submit_ms = submit_ms
        self.start_service_ms = start_service_ms
        self.complete_ms = complete_ms
        self.cylinder = cylinder  # cached for the scheduler
        #: Per-track runs of the transfer, derived once at submit time
        #: and shared by every pricing of this request.
        self.runs: typing.Sequence = ()
        #: ``service_components`` of this request as the scheduler
        #: priced it when popping it: at the drive's head position,
        #: direction and clock at the moment service starts. None when
        #: the scheduler did not price it; the drive then prices it.
        self.priced: typing.Optional[tuple] = None
        #: Error outcome: None on success, else ``"media"`` / ``"timeout"``
        #: (see :mod:`repro.faults.state`). Only ever set when the disk
        #: carries a fault state.
        self.error = error

    def __repr__(self) -> str:
        op = "write" if self.is_write else "read"
        return (
            f"<DiskRequest {op} [{self.start_sector}, "
            f"{self.start_sector + self.sector_count}) kind={self.kind}>"
        )

    @property
    def queue_wait_ms(self) -> float:
        return self.start_service_ms - self.submit_ms

    @property
    def service_ms(self) -> float:
        return self.complete_ms - self.start_service_ms

    @property
    def response_ms(self) -> float:
        return self.complete_ms - self.submit_ms


@dataclass
class DiskStats:
    """Cumulative per-disk counters."""

    completed: int = 0
    completed_by_kind: typing.Dict[str, int] = field(default_factory=dict)
    buffer_hits: int = 0
    busy_ms: float = 0.0
    total_service_ms: float = 0.0
    total_queue_wait_ms: float = 0.0
    total_seek_ms: float = 0.0
    total_rotation_ms: float = 0.0
    total_transfer_ms: float = 0.0
    #: Busy time clipped to the measurement window: the controller sets
    #: ``busy_window.since_ms`` to the scenario's warmup boundary, so
    #: utilization excludes the warm-up ramp (``busy_ms`` above remains
    #: the raw whole-run total).
    busy_window: WindowedDuration = field(default_factory=WindowedDuration)

    def record(self, request: DiskRequest, seek_ms: float, rotation_ms: float,
               transfer_ms: float) -> None:
        self.completed += 1
        self.completed_by_kind[request.kind] = self.completed_by_kind.get(request.kind, 0) + 1
        service_ms = request.complete_ms - request.start_service_ms
        self.busy_ms += service_ms
        self.busy_window.add(request.start_service_ms, request.complete_ms)
        self.total_service_ms += service_ms
        self.total_queue_wait_ms += request.start_service_ms - request.submit_ms
        self.total_seek_ms += seek_ms
        self.total_rotation_ms += rotation_ms
        self.total_transfer_ms += transfer_ms

    def mean_service_ms(self) -> float:
        return self.total_service_ms / self.completed if self.completed else 0.0


class Disk:
    """One disk drive: queue, head state, and the server process."""

    def __init__(
        self,
        env: "Environment",
        spec: DiskSpec,
        disk_id: int = 0,
        scheduler: typing.Optional[Scheduler] = None,
        policy: str = "cvscan",
        track_buffer: bool = False,
        buffer_hit_ms: float = 0.5,
    ):
        self.env = env
        self.spec = spec
        self.disk_id = disk_id
        self.geometry = DiskGeometry(spec)
        self.seek_model = SeekModel.for_spec(spec)
        # DiskSpec derives these on every property read; the service-time
        # loop reads them per track run, so snapshot them once. The spec
        # is frozen, so the snapshot cannot go stale.
        self._sector_time_ms = spec.sector_time_ms
        self._sectors_per_track = spec.sectors_per_track
        self._head_switch_ms = spec.head_switch_ms
        self._seek_time = self.seek_model.seek_time
        self._split_by_track = self.geometry.split_by_track  # bound once for submit()
        self.scheduler = scheduler if scheduler is not None else make_scheduler(
            policy, spec.cylinders
        )
        # Position-aware policies (SPTF) price candidates off the live
        # drive state: give them the drive if they ask for it.
        bind = getattr(self.scheduler, "bind_disk", None)
        if bind is not None:
            bind(self)
        self.head_cylinder = 0
        self.direction = 1
        self.stats = DiskStats()
        #: Optional single-track read buffer (the 0661 had one). A read
        #: wholly inside the most recently read track is served from the
        #: buffer at ``buffer_hit_ms``; any write to that track
        #: invalidates it. Off by default — the paper's driver used no
        #: caching.
        self.track_buffer = track_buffer
        self.buffer_hit_ms = buffer_hit_ms
        self._buffered_track: typing.Optional[typing.Tuple[int, int]] = None
        #: Optional fault model (:class:`repro.faults.state.DiskFaultState`).
        #: None keeps the drive's behavior — timing and completions —
        #: bit-identical to a fault-free build.
        self.fault_state = None
        #: Optional waiting-queue depth gauge
        #: (:class:`repro.metrics.accumulators.TimeWeightedGauge`),
        #: attached by the controller when a metrics registry is in
        #: play. None keeps submit/pop free of any extra work.
        self.queue_gauge = None
        self._idle_wakeup = None
        self._process = env.process(self._run(), name=f"disk-{disk_id}")

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: DiskRequest):
        """Queue a request; returns the request's completion event.

        Every disk request of a simulation enters here, so counting
        calls to this method counts the run's disk I/Os. The track runs
        (which also validate the transfer) are derived once, here, and
        shared by every pricing of the request.
        """
        runs = request.runs = self._split_by_track(
            request.start_sector, request.sector_count
        )
        request.cylinder = runs[0].cylinder
        request.priced = None
        env = self.env
        done = request.done = Event(env)
        request.submit_ms = env.now
        self.scheduler.push(request)
        if self.queue_gauge is not None:
            self.queue_gauge.add(1, request.submit_ms)
        wakeup = self._idle_wakeup
        if wakeup is not None:
            # The drive is parked on an empty queue: wake it once.
            self._idle_wakeup = None
            wakeup.succeed()
        return done

    def access(self, start_sector: int, sector_count: int, is_write: bool,
               kind: str = KIND_USER):
        """Convenience: build and submit a request, returning its event."""
        request = DiskRequest(
            start_sector=start_sector,
            sector_count=sector_count,
            is_write=is_write,
            kind=kind,
        )
        return self.submit(request)

    @property
    def queue_length(self) -> int:
        return len(self.scheduler)

    # ------------------------------------------------------------------
    # Server process
    # ------------------------------------------------------------------
    def _run(self):
        # env / scheduler / stats never change over the drive's life;
        # the loop runs once per serviced request, so bind them once.
        env = self.env
        scheduler = self.scheduler
        stats = self.stats
        service_time = self._service_time
        while True:
            while not scheduler:
                # submit() succeeds this event and clears the slot.
                self._idle_wakeup = wakeup = Event(env)
                yield wakeup
            request = scheduler.pop(self.head_cylinder, self.direction)
            request.start_service_ms = env.now
            if self.queue_gauge is not None:
                self.queue_gauge.add(-1, request.start_service_ms)
            service_ms, seek_ms, rotation_ms, transfer_ms = service_time(request)
            yield Timeout(env, service_ms)
            if self.fault_state is not None:
                error, penalty_ms = self.fault_state.outcome_for(
                    request.start_sector, request.sector_count, request.is_write
                )
                if penalty_ms > 0:
                    yield Timeout(env, penalty_ms)
                request.error = error
            request.complete_ms = env.now
            stats.record(request, seek_ms, rotation_ms, transfer_ms)
            # The event's value is the request: clear the request's
            # link back first, so neither keeps the other alive.
            done = request.done
            request.done = None
            done.succeed(request)

    # ------------------------------------------------------------------
    # Physical timing
    # ------------------------------------------------------------------
    def _service_time(self, request: DiskRequest) -> typing.Tuple[float, float, float, float]:
        """Compute service time; updates head cylinder and direction.

        A request the scheduler priced when popping it (SPTF prices
        every candidate) keeps that price: the pop and this call see the
        same head position, direction and clock, so pricing it again
        would repeat the identical arithmetic.
        """
        runs = request.runs
        if self.track_buffer:
            tracks = {(run.cylinder, run.track) for run in runs}
            if (
                not request.is_write
                and len(tracks) == 1
                and next(iter(tracks)) == self._buffered_track
            ):
                # Whole read served from the track buffer: no mechanical work.
                self.stats.buffer_hits += 1
                return self.buffer_hit_ms, 0.0, 0.0, self.buffer_hit_ms
            if request.is_write and self._buffered_track in tracks:
                self._buffered_track = None
            elif not request.is_write:
                self._buffered_track = (runs[-1].cylinder, runs[-1].track)
        priced = request.priced
        if priced is None:
            priced = service_components(
                runs,
                self.head_cylinder,
                self.direction,
                self.env.now,
                self._seek_time,
                self._sector_time_ms,
                self._sectors_per_track,
                self._head_switch_ms,
            )
        service_ms, seek_ms, rotation_ms, transfer_ms, cylinder, direction = priced
        self.head_cylinder = cylinder
        self.direction = direction
        return service_ms, seek_ms, rotation_ms, transfer_ms

    def __repr__(self) -> str:
        return (
            f"<Disk {self.disk_id} {self.spec.name} head@{self.head_cylinder} "
            f"queue={self.queue_length}>"
        )
