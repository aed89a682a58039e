"""The disk drive server process.

Each :class:`Disk` is a single server inside the event-driven
simulation: requests are submitted to its scheduler queue; the drive
process services one request at a time, advancing the clock by a
physically-computed service time (seek + rotational latency + transfer,
split per track with skew-aware head switches), then fires the
request, which is its own completion event.

A disk access is one object, a :class:`DiskRequest`, from submit to
completion: no separate completion event and, for a transfer that fits
its track (every stripe-unit access), no per-track run tuple. Such a
transfer is priced in the frame that needs it, by the drive and by the
SPTF scheduler, with :func:`service_components`' float operations in
its order; that function prices the rare longer transfer and is the
tests' reference.

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
from repro.sim.events import PENDING, Event, Timeout

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

    The drive and the SPTF scheduler price a transfer that crosses a
    track here. A one-track transfer (every stripe-unit access) they
    price in their own frame, with this loop's first iteration: the
    same float operations in the same order, minus the loop's exact
    ``0.0 +`` seeds, so both return the same bits
    (``tests/disk/test_fast_paths.py`` checks both against this
    function). The batch path in :mod:`repro.disk.vectorized` (used by
    no scenario) must reproduce this function's results bit-for-bit
    (pinned by ``tests/disk/test_vectorized.py``). Any change to the
    arithmetic here, including operation *order*, which decides float
    rounding, must be mirrored in all three.

    Returns ``(service_ms, seek_ms, rotation_ms, transfer_ms,
    head_cylinder, direction)`` where the last two are the head state
    after the transfer.
    """
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


class DiskRequest(Event):
    """One physical disk access, and the event of its completion.

    :meth:`Disk.submit` binds the request to the drive's environment
    and returns it; the drive succeeds it with no value when the
    transfer finishes. A value of the request itself would be a
    reference cycle, so waiters read ``error``, ``complete_ms`` and the
    other fields on the object they hold.

    The constructor does not run :meth:`Event.__init__`: the request
    has no environment until it is submitted, and setting the event
    slots here saves a call on every disk access.

    A one-track transfer (every stripe-unit access) is placed by two
    ints, ``cylinder`` and ``rotational_start``, with ``runs`` None; a
    longer one carries its per-track ``runs`` from
    :meth:`~repro.disk.geometry.DiskGeometry.split_by_track`. Both are
    set at submit and read by every pricing of the request.
    """

    __slots__ = (
        "start_sector",
        "sector_count",
        "is_write",
        "kind",
        "submit_ms",
        "start_service_ms",
        "complete_ms",
        "cylinder",
        "rotational_start",
        "runs",
        "error",
    )

    def __init__(
        self,
        start_sector: int,
        sector_count: int,
        is_write: bool,
        kind: str = KIND_USER,
    ):
        self._callbacks: typing.Optional[list] = None
        self._state = PENDING
        self._value = None
        self._exception: typing.Optional[BaseException] = None
        self.start_sector = start_sector
        self.sector_count = sector_count
        self.is_write = is_write
        self.kind = kind
        self.submit_ms = 0.0
        self.start_service_ms = 0.0
        self.complete_ms = 0.0
        #: Error outcome: None on success, else ``"media"`` / ``"timeout"``
        #: (see :mod:`repro.faults.state`). Only ever set when the disk
        #: carries a fault state.
        self.error: typing.Optional[str] = None

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
    total_queue_wait_ms: float = 0.0
    total_seek_ms: float = 0.0
    total_rotation_ms: float = 0.0
    total_transfer_ms: float = 0.0
    #: Busy time clipped to the measurement window: the controller sets
    #: ``busy_window.since_ms`` to the scenario's warmup boundary, so
    #: utilization excludes the warm-up ramp. With ``since_ms`` 0 (a
    #: bare ``Disk``) it is the whole-run busy total.
    busy_window: WindowedDuration = field(default_factory=WindowedDuration)

    def record(self, request: DiskRequest, seek_ms: float, rotation_ms: float,
               transfer_ms: float) -> None:
        """Fold one completed request in; the drive calls this once per
        completion.

        The busy interval is clipped to the window inline, as
        :meth:`WindowedDuration.add` would clip it: the drive's clock
        never runs backwards, so the interval needs no order check.
        """
        self.completed += 1
        kind = request.kind
        self.completed_by_kind[kind] = self.completed_by_kind.get(kind, 0) + 1
        start = request.start_service_ms
        end = request.complete_ms
        window = self.busy_window
        since = window.since_ms
        clipped = end - (start if start > since else since)
        if clipped > 0.0:
            window.total_ms += clipped
        self.total_queue_wait_ms += start - request.submit_ms
        self.total_seek_ms += seek_ms
        self.total_rotation_ms += rotation_ms
        self.total_transfer_ms += transfer_ms


class Disk:
    """One disk drive: queue, head state, and the server process."""

    def __init__(
        self,
        env: "Environment",
        spec: DiskSpec,
        disk_id: int = 0,
        scheduler: typing.Optional[Scheduler] = None,
        policy: str = "cvscan",
    ):
        self.env = env
        self.spec = spec
        self.disk_id = disk_id
        self.geometry = DiskGeometry(spec)
        self.seek_model = SeekModel.for_spec(spec)
        # DiskSpec derives these on every property read; the service-time
        # arithmetic reads them per request, so snapshot them once. The
        # spec is frozen, so the snapshot cannot go stale.
        self._sector_time_ms = spec.sector_time_ms
        self._sectors_per_track = spec.sectors_per_track
        self._head_switch_ms = spec.head_switch_ms
        self._seek_time = self.seek_model.seek_time
        self._seek_table = self.seek_model.table
        # Bound once for submit().
        self._locate_transfer = self.geometry.locate_transfer
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
    def submit(self, request: DiskRequest) -> DiskRequest:
        """Queue a request; returns the request, which is its own
        completion event.

        Every disk request of a simulation enters here, so counting
        calls to this method counts the run's disk I/Os. The transfer is
        validated and placed once, here, for every pricing of the
        request: one geometry call gives the cylinder and rotational
        start of a transfer that fits its track, and only a longer one
        gets its per-track runs.
        """
        located = self._locate_transfer(request.start_sector, request.sector_count)
        if located is None:
            runs = request.runs = self.geometry.split_by_track(
                request.start_sector, request.sector_count
            )
            request.cylinder = runs[0].cylinder
        else:
            request.cylinder, request.rotational_start = located
            request.runs = None
        env = request.env = self.env
        request.submit_ms = env._now
        self.scheduler.push(request)
        if self.queue_gauge is not None:
            self.queue_gauge.add(1, request.submit_ms)
        wakeup = self._idle_wakeup
        if wakeup is not None:
            # The drive is parked on an empty queue: wake it once.
            self._idle_wakeup = None
            wakeup.succeed()
        return request

    def access(self, start_sector: int, sector_count: int, is_write: bool,
               kind: str = KIND_USER):
        """Convenience: build and submit a request, returning it."""
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
        # The drive reads the clock from the kernel's ``_now`` slot, as
        # submit() and _service_time() do: the ``now`` property is a
        # Python call, and the disk layer reads the clock per request.
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
            request.start_service_ms = env._now
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
            request.complete_ms = env._now
            stats.record(request, seek_ms, rotation_ms, transfer_ms)
            request.succeed()

    # ------------------------------------------------------------------
    # Physical timing
    # ------------------------------------------------------------------
    def _service_time(self, request: DiskRequest) -> typing.Tuple[float, float, float, float]:
        """Compute service time; updates head cylinder and direction.

        A one-track request is priced here, in frame, from its
        ``cylinder`` and ``rotational_start``: the float operations and
        their order are those of :func:`service_components`' first loop
        iteration, so the bits are the same. A longer one goes through
        :func:`service_components`.
        """
        now = self.env._now
        if request.runs is not None:
            service_ms, seek_ms, rotation_ms, transfer_ms, cylinder, direction = (
                service_components(
                    request.runs,
                    self.head_cylinder,
                    self.direction,
                    now,
                    self._seek_time,
                    self._sector_time_ms,
                    self._sectors_per_track,
                    self._head_switch_ms,
                )
            )
            self.head_cylinder = cylinder
            self.direction = direction
            return service_ms, seek_ms, rotation_ms, transfer_ms
        cylinder = request.cylinder
        head_cylinder = self.head_cylinder
        if cylinder != head_cylinder:
            seek_ms = self._seek_table[abs(cylinder - head_cylinder)]
            self.direction = 1 if cylinder > head_cylinder else -1
            self.head_cylinder = cylinder
            clock = now + seek_ms
        else:
            seek_ms = 0.0
            clock = now
        sector_time_ms = self._sector_time_ms
        sectors_per_track = self._sectors_per_track
        position = (clock / sector_time_ms) % sectors_per_track
        slots_to_wait = (request.rotational_start - position) % sectors_per_track
        if slots_to_wait > sectors_per_track - 1e-6:
            slots_to_wait = 0.0
        rotation_ms = slots_to_wait * sector_time_ms
        clock += rotation_ms
        transfer_ms = request.sector_count * sector_time_ms
        clock += transfer_ms
        return clock - now, seek_ms, rotation_ms, transfer_ms

    def __repr__(self) -> str:
        return (
            f"<Disk {self.disk_id} {self.spec.name} head@{self.head_cylinder} "
            f"queue={self.queue_length}>"
        )
