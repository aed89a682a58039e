"""The array controller: the striping driver of the reproduction.

Translates user requests into physical disk accesses under the current
fault state and reconstruction algorithm, maintaining parity
consistency through per-stripe locks. See the package docstring for the
full access-sequence table.

There is one path per access type: a read, a repair read, a unit write
(a read-modify-write over the stripe's check units, or a degraded
write) and a large write. The layout's syndrome count is data: a
stripe's check units are the units after its data units in stripe
order, and :mod:`repro.array.syndromes` computes, updates and decodes
one (P, the paper's parity) or two (P+Q) of them. Where the two
families issue different I/O, the one path chooses by the count:

- an on-the-fly read with one syndrome XORs the target back from every
  other unit; with two it reads every live unit and decodes;
- a degraded write with one syndrome counts a unit on a down slot as
  dead even once rebuilt, reads only the data peers the new parity
  needs (none when parity is dead), and dirties the stale unit before
  those reads; with two it decodes from every readable unit, writes
  every live unit, and dirties after the decode;
- a lone degraded write waits on its own disk event with one syndrome,
  and on ``all_of`` with two;
- a repair read with one syndrome gives up without reading when a peer
  is lost; with two it reads the readable units first;
- G=3 small-stripe writes and G=2 mirrored-read balancing exist only
  with one syndrome.

Access paths are labeled so tests and experiments can account for every
disk access the paper's driver would issue:

- ``read`` / ``redirected-read`` / ``on-the-fly-read`` /
  ``repaired-read`` / ``data-loss``
- ``rmw-write`` / ``small-stripe-write`` / ``large-write``
- ``fold-write`` (data lost, parity absorbs the new value)
- ``reconstruct-write`` (user-writes algorithms: data sent to the
  replacement, parity rebuilt from surviving peers)
- ``data-only-write`` (parity lost and not yet rebuilt)

Dual-syndrome (P+Q) layouts label their unit writes apart and add one
read label:

- ``double-degraded-read`` (two stripe units dead; GF(2^64) decode)
- ``pq-rmw-write`` (6-access healthy update: pre-read and rewrite
  data, P, and Q)
- ``pq-degraded-write`` / ``pq-fold-write`` / ``pq-reconstruct-write``
  (a check or the target is dead: decode survivors, rewrite what
  lives)
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.array import syndromes as gf
from repro.array.addressing import ArrayAddressing
from repro.array.datastore import DataStore
from repro.array.faults import ArrayFaults
from repro.array.locks import StripeLockTable
from repro.array.requests import UserRequest
from repro.disk.drive import KIND_USER, Disk, DiskRequest
from repro.faults.log import (
    DATA_LOSS,
    DATA_LOSS_ACCESS,
    DISK_FAILURE,
    ESCALATION,
    FOREGROUND_REPAIR,
    MEDIA_ERROR,
    RETRY,
    RETRY_EXHAUSTED,
    TRANSIENT_FAULT,
    FaultLog,
)
from repro.faults.profile import FaultProfile
from repro.faults.state import ERROR_TIMEOUT, DiskFaultState
from repro.layout.base import UnitAddress
from repro.metrics.registry import MetricsRegistry
from repro.recon.algorithms import BASELINE, ReconAlgorithm
from repro.recon.status import ReconStatus
from repro.sim.events import Event
from repro.sim.rng import RandomStreams

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Environment


@dataclass
class ControllerStats:
    """Counts of user operations by access path."""

    user_reads: int = 0
    user_writes: int = 0
    by_path: typing.Dict[str, int] = field(default_factory=dict)
    piggyback_writes: int = 0
    straddled_accesses: int = 0

    def record_path(self, path: str) -> None:
        self.by_path[path] = self.by_path.get(path, 0) + 1


class _WritePaths(typing.NamedTuple):
    """One family's unit-write labels."""

    rmw: str
    fold: str
    reconstruct: str
    check_dead: str


#: Unit-write labels by syndrome count.
_WRITE_PATHS = {
    1: _WritePaths("rmw-write", "fold-write", "reconstruct-write", "data-only-write"),
    2: _WritePaths(
        "pq-rmw-write", "pq-fold-write", "pq-reconstruct-write", "pq-degraded-write"
    ),
}

#: Simulated wait, in ms, before each retry of a timed-out access: an
#: access is attempted at most ``1 + len(RETRY_DELAYS_MS)`` times.
RETRY_DELAYS_MS = (0.5, 1.0, 2.0)


class ArrayController:
    """Owns the disks, layout, fault state, and request translation."""

    def __init__(
        self,
        env: "Environment",
        addressing: ArrayAddressing,
        policy: str = "cvscan",
        algorithm: ReconAlgorithm = BASELINE,
        with_datastore: bool = False,
        disk_factory: typing.Optional[typing.Callable[..., Disk]] = None,
        fault_profile: typing.Optional[FaultProfile] = None,
        metrics: typing.Optional[MetricsRegistry] = None,
        measure_since_ms: float = 0.0,
        lock_monitor=None,
    ):
        self.env = env
        self.addressing = addressing
        self.layout = addressing.layout
        self.spec = addressing.spec
        self.policy = policy
        self.algorithm = algorithm
        # Observability is strictly passive: the registry only records
        # what already happened (latencies, queue depths), and the
        # measurement boundary only affects what the windowed stats
        # count — neither changes a single simulation event. The
        # boundary applies to replacements too, which is why the
        # controller owns it rather than the runner.
        self.metrics = metrics
        self.measure_since_ms = measure_since_ms
        # Per-request latency recording is the hottest metrics path, so
        # the two user-class histograms are resolved once up front
        # (empty ones are omitted from serialization).
        self._read_latency = self._write_latency = None
        if metrics is not None:
            self._read_latency = metrics.latency_histogram("user-read")
            self._write_latency = metrics.latency_histogram("user-write")
        self._disk_factory = disk_factory if disk_factory is not None else Disk
        self.disks: typing.List[Disk] = [
            self._disk_factory(env, addressing.spec, disk_id=d, policy=policy)
            for d in range(self.layout.num_disks)
        ]
        for disk in self.disks:
            self._instrument_disk(disk)
        self.faults = ArrayFaults(
            self.layout.num_disks, tolerance=self.layout.num_syndromes
        )
        # Like metrics, the lock monitor (simsan) is purely
        # observational; None outside sanitizer runs.
        self.locks = StripeLockTable(env, monitor=lock_monitor)
        self.datastore: typing.Optional[DataStore] = (
            DataStore(addressing) if with_datastore else None
        )
        #: Rebuild state per failed disk with a replacement installed;
        #: dual-syndrome arrays can run two rebuilds at once.
        self.recon_statuses: typing.Dict[int, ReconStatus] = {}
        self.stats = ControllerStats()
        self._write_paths = _WRITE_PATHS[self.layout.num_syndromes]
        # Stripe order puts a stripe's check units after its data units.
        self._check_indices = range(
            self.layout.data_units_per_stripe, self.layout.stripe_size
        )
        self._small_stripes = (
            self.layout.num_syndromes == 1 and self.layout.stripe_size == 3
        )
        # With one data unit per stripe (G=2 mirroring, or P+Q at G=3)
        # every aligned one-unit write is a full-stripe write, so such
        # writes keep the planner, which sends them to the large write.
        self._plan_unit_writes = (
            self.layout.supports_large_write
            and self.layout.data_units_per_stripe == 1
        )
        # Addressing is frozen: snapshot what every disk access reads.
        self._sectors_per_unit = addressing.sectors_per_unit
        self._mapped_units_per_disk = addressing.mapped_units_per_disk
        # Fault injection is strictly opt-in: with no profile, every
        # access takes the exact legacy path (no extra RNG draws, no
        # retry wrapper, no timing or event-ordering changes).
        self.fault_profile = fault_profile
        self.fault_log = FaultLog() if fault_profile is not None else None
        #: Callback ``(disk_id) -> None`` for escalated failures; a
        #: FaultInjector installs itself here so threshold-crossing
        #: disks take the same spare-pool path as crashed ones.
        self.on_disk_failure: typing.Optional[typing.Callable[[int], None]] = None
        self._fault_streams = (
            RandomStreams(fault_profile.seed).spawn("disk-fault-states")
            if fault_profile is not None
            else None
        )
        if fault_profile is not None:
            for disk in self.disks:
                self._attach_fault_state(disk)

    def _instrument_disk(self, disk: Disk) -> None:
        """Apply the measurement boundary (and any gauges) to a disk.

        Runs for every disk the controller creates — including
        replacements — so windowed utilization and queue-depth series
        stay consistent across a repair.
        """
        disk.stats.busy_window.since_ms = self.measure_since_ms
        if self.metrics is not None:
            disk.queue_gauge = self.metrics.queue_gauge(disk.disk_id)

    def _attach_fault_state(self, disk: Disk) -> None:
        """Give ``disk`` a fresh fault model on its slot's RNG stream."""
        disk.fault_state = DiskFaultState(
            self.fault_profile,
            self._fault_streams.stream(f"disk-{disk.disk_id}"),
            disk_id=disk.disk_id,
        )

    # ------------------------------------------------------------------
    # Fault management
    # ------------------------------------------------------------------
    def fail_disk(self, disk: int) -> None:
        """Mark a disk failed; its contents become unreadable.

        The first concurrent failure is the repairable one. A failure
        beyond the array's redundancy raises
        :class:`~repro.array.faults.DataLossError` — unless fault
        injection is enabled, in which case it is recorded as a graceful
        :class:`~repro.array.faults.DataLossEvent`: the array enters a
        degraded terminal state and user requests touching
        doubly-exposed stripes take the accounted ``data-loss`` path
        instead of crashing the simulation.
        """
        if not self.faults.can_absorb and self.fault_profile is not None:
            event = self.faults.fail(disk, allow_data_loss=True)
            event.at_ms = self.env.now
            if self.datastore is not None:
                self.datastore.poison_disk(disk)
            event.exposed_stripes = tuple(
                stripe
                for stripe in range(self.addressing.num_stripes)
                if self._stripe_data_lost(stripe)
            )
            self.fault_log.record(
                DATA_LOSS,
                self.env.now,
                disk=disk,
                detail=(
                    f"{len(event.exposed_stripes)} stripes doubly exposed; "
                    f"concurrent failures {event.all_failed_disks}"
                ),
            )
            return
        self.faults.fail(disk)
        if self.fault_log is not None:
            self.fault_log.record(DISK_FAILURE, self.env.now, disk=disk)
        if self.datastore is not None:
            self.datastore.poison_disk(disk)

    def install_replacement(self, disk: typing.Optional[int] = None) -> ReconStatus:
        """Install a blank replacement in a failed slot.

        ``disk`` defaults to the earliest active failure (the historical
        single-failure contract). Returns the :class:`ReconStatus` a
        reconstructor will drive; dual-syndrome arrays may have one per
        concurrently-failed disk in :attr:`recon_statuses`.
        """
        if disk is None:
            disk = self.faults.failed_disk
        self.faults.install_replacement(disk)
        self.disks[disk] = self._disk_factory(
            self.env, self.spec, disk_id=disk, policy=self.policy
        )
        if self.fault_profile is not None:
            # A replacement is a new spindle: fresh latent/error state,
            # drawing from the same per-slot RNG stream.
            self._attach_fault_state(self.disks[disk])
        if self.datastore is not None:
            self.datastore.clear_disk(disk)
        self._instrument_disk(self.disks[disk])
        status = ReconStatus(
            self.env, total_units=self.addressing.mapped_units_per_disk
        )
        if self.metrics is not None:
            status.progress = self.metrics.start_recon_progress(status.total_units)
        self.recon_statuses[disk] = status
        return status

    def finish_repair(self, disk: typing.Optional[int] = None) -> None:
        """Return a rebuilt slot to fault-free operation."""
        if disk is None:
            disk = self.faults.failed_disk
        status = self.recon_statuses.get(disk) if disk is not None else None
        if status is None or not status.all_built:
            raise RuntimeError("finish_repair before reconstruction completed")
        self.faults.repair_complete(disk)
        self.recon_statuses.pop(disk)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: UserRequest):
        """Begin servicing a user request; returns its completion event.

        The event is the request's process, which completes with the
        request.
        """
        if (
            request.logical_unit < 0
            or request.logical_unit + request.num_units > self.addressing.num_data_units
        ):
            raise ValueError(
                f"request [{request.logical_unit}, +{request.num_units}) lies outside "
                f"the data space of {self.addressing.num_data_units} units"
            )
        request.submit_ms = self.env.now
        return self.env.process(self._handle(request), name="user-request")

    def read(self, logical_unit: int, num_units: int = 1):
        """Convenience: submit a read, returning its completion event."""
        request = UserRequest(logical_unit=logical_unit, is_write=False, num_units=num_units)
        return self.submit(request)

    def write(self, logical_unit: int, values: typing.Optional[typing.List[int]] = None,
              num_units: int = 1):
        """Convenience: submit a write, returning its completion event."""
        if values is not None:
            num_units = len(values)
        request = UserRequest(
            logical_unit=logical_unit, is_write=True, num_units=num_units, values=values
        )
        return self.submit(request)

    # ------------------------------------------------------------------
    # Request decomposition
    # ------------------------------------------------------------------
    def _handle(self, request: UserRequest):
        """The request's one process: run its unit operations, then
        return the request, which the process completes with.

        A one-unit request, which is every request the workloads issue,
        runs its unit operation (:meth:`_read_unit` or
        :meth:`_write_unit`) directly in this process, with no plan.
        The exception is a one-unit write on the stripe data mapping
        with one data unit per stripe: every such write is a full-stripe
        write, so it goes through :meth:`_plan_write`, which sends it to
        :meth:`_large_write` when the stripe is healthy. A write that
        plans to one sub-operation runs it inline too, so a single-unit
        request costs exactly this one process, with or without a fault
        profile. Larger requests run one process per sub-operation and
        join them.

        The request holds no reference to its process: the process's
        value is the request, so a link back would make every finished
        request a reference cycle.
        """
        is_write = request.is_write
        if is_write:
            self.stats.user_writes += 1
        else:
            self.stats.user_reads += 1
            request.read_values = [0] * request.num_units
        if request.num_units == 1 and not (is_write and self._plan_unit_writes):
            if is_write:
                values = request.values
                yield from self._write_unit(
                    request, request.logical_unit, 0 if values is None else values[0]
                )
            else:
                yield from self._read_unit(request, 0)
        else:
            if is_write:
                subops = self._plan_write(request)
            else:
                subops = [self._read_unit(request, i) for i in range(request.num_units)]
            if len(subops) == 1:
                yield from subops[0]
            else:
                yield self.env.all_of([self.env.process(subop) for subop in subops])
        now = self.env.now
        request.complete_ms = now
        if self._read_latency is not None and now >= self.measure_since_ms:
            (self._write_latency if is_write else self._read_latency).record(
                now - request.submit_ms
            )
        return request

    def _plan_write(self, request: UserRequest):
        """Split a write into large-write groups and per-unit updates.

        Returns the sub-operations as generators, not yet started.
        """
        g_data = self.layout.data_units_per_stripe
        subops = []
        index = 0
        while index < request.num_units:
            logical = request.logical_unit + index
            at_boundary = logical % g_data == 0
            remaining = request.num_units - index
            stripe = self.layout.stripe_of_logical(logical)
            if (
                self.layout.supports_large_write
                and at_boundary
                and remaining >= g_data
                and self._stripe_is_healthy(stripe)
            ):
                values = self._write_values(request, index, g_data)
                subops.append(self._large_write(request, stripe, values))
                index += g_data
            else:
                value = self._write_values(request, index, 1)[0]
                subops.append(self._write_unit(request, logical, value))
                index += 1
        return subops

    def _write_values(self, request: UserRequest, index: int, count: int) -> typing.List[int]:
        if request.values is not None:
            return list(request.values[index : index + count])
        return [0] * count

    def _stripe_is_healthy(self, stripe: int) -> bool:
        """True if no unit of the stripe lives on a failed, unbuilt slot."""
        if self.faults.fault_free:
            return True
        return not any(map(self._unit_lost, self.layout.stripe_units(stripe)))

    def _stripe_data_lost(self, stripe: int) -> bool:
        """True if more units are unreadable than the layout has syndromes.

        Up to ``num_syndromes`` unreadable units are the tolerated
        faults (the checks recover them); one more means this stripe's
        data is gone. Only possible once a multi-failure has populated
        ``faults.lost_disks``.
        """
        if not self.faults.lost_disks:
            return False
        lost = sum(map(self._unit_lost, self.layout.stripe_units(stripe)))
        return lost > self.layout.num_syndromes

    def _unit_lost(self, address: UnitAddress) -> bool:
        """True if the unit's slot is lost, or failed and not rebuilt."""
        faults = self.faults
        disk = address.disk
        if not faults.is_down(disk):
            return False
        return disk in faults.lost_disks or not self._unit_built_on(disk, address.offset)

    def _record_data_loss_access(self, request: UserRequest, logical: int,
                                 stripe: int) -> None:
        """Account a user access that touched destroyed data."""
        request.lost_units.append(logical)
        request.paths.append("data-loss")
        self.stats.record_path("data-loss")
        if self.fault_log is not None:
            self.fault_log.record(
                DATA_LOSS_ACCESS,
                self.env.now,
                stripe=stripe,
                detail=f"logical unit {logical}",
            )

    def _unit_built_on(self, disk: int, offset: int) -> bool:
        """True if ``disk`` is being rebuilt and ``offset`` is done."""
        status = self.recon_statuses.get(disk)
        return status is not None and status.is_built(offset)

    def _unit_live_on(self, disk: int, offset: int) -> bool:
        """A failed-slot unit counts as live once rebuilt.

        Under strict replacement isolation, rebuilt units stay off-limits
        to user work until the whole repair is done.
        """
        status = self.recon_statuses.get(disk)
        if status is None or not status.is_built(offset):
            return False
        if not self.algorithm.isolate_replacement:
            return True
        return status.all_built

    def _address_dead(self, address: UnitAddress) -> bool:
        """True if this unit cannot currently be read or written."""
        faults = self.faults
        disk = address.disk
        if not faults.is_down(disk):
            return False
        return disk in faults.lost_disks or not self._unit_live_on(disk, address.offset)

    # ------------------------------------------------------------------
    # Disk access helpers
    # ------------------------------------------------------------------
    def _disk_access(self, address: UnitAddress, is_write: bool, kind: str = KIND_USER):
        """Issue one stripe-unit-sized access; returns the disk event.

        An access can legitimately land on a failed, unreplaced disk
        when the operation was planned just before the failure (the
        paper's driver would see an I/O error there). The transfer is
        still timed on the dead spindle and counted in
        ``stats.straddled_accesses``; its data is lost, which is safe
        because parity arithmetic uses values sampled before the
        failure.

        Without a fault profile the event is the
        :class:`~repro.disk.drive.DiskRequest` itself, whose ``error``
        stays None. Under one the access retries its timeouts
        (:class:`_RetryingAccess`), and its event carries the final
        attempt's ``error``. Either way a waiter reads ``error`` on the
        event it holds, without testing for a profile: neither event has
        a value.
        """
        disk = address.disk
        if self.faults.is_unreplaced(disk):
            self.stats.straddled_accesses += 1
        offset = address.offset
        if offset >= self._mapped_units_per_disk:
            raise ValueError(
                f"offset {offset} beyond mapped capacity {self._mapped_units_per_disk}"
            )
        sector = offset * self._sectors_per_unit
        if self.fault_profile is not None:
            return _RetryingAccess(self, address, sector, is_write, kind)
        return self.disks[disk].submit(
            DiskRequest(sector, self._sectors_per_unit, is_write, kind)
        )

    def _count_hard_error(self, disk_id: int) -> None:
        """Accumulate a hard error; escalate a sick disk to failed."""
        state = self.disks[disk_id].fault_state
        state.hard_errors += 1
        if state.hard_errors < self.fault_profile.escalation_threshold:
            return
        if self.faults.is_down(disk_id):
            return  # already dead; nothing further to escalate
        self.fault_log.record(
            ESCALATION,
            self.env.now,
            disk=disk_id,
            detail=f"{state.hard_errors} hard errors",
        )
        if self.on_disk_failure is not None:
            self.on_disk_failure(disk_id)
        else:
            self.fail_disk(disk_id)

    def _ds_read(self, address: UnitAddress) -> int:
        if self.datastore is None:
            return 0
        return self.datastore.read_unit(address.disk, address.offset)

    def _ds_write(self, address: UnitAddress, value: int) -> None:
        if self.datastore is not None:
            self.datastore.write_unit(address.disk, address.offset, value)

    def _mark_stale(self, units: typing.Iterable[UnitAddress]) -> None:
        """Dirty rebuilt copies of ``units`` that a write left behind."""
        for unit in units:
            status = self.recon_statuses.get(unit.disk)
            if status is not None:
                status.mark_dirty(unit.offset)

    def _decode(self, stripe: int, erase: typing.Tuple[UnitAddress, ...] = (),
                kind: str = KIND_USER, repair_errored: bool = False):
        """Read a stripe's units and decode its contents.

        Generator run under the stripe lock. The units in ``erase`` are
        not read. With one syndrome every other unit is read; with two,
        units on dead slots are skipped too. Reads that end in an error
        join the erasures. Returns ``(contents, erasures)``:
        ``contents`` maps every unit of the stripe to its value, or is
        None once the erasures outnumber the syndromes.

        With ``repair_errored`` (the rebuild sweep), units whose reads
        errored — latent sectors, not dead slots — are rewritten in
        place from the decode before returning: a stale latent sector
        would otherwise be re-hit by every later sweep, each hit
        counting toward the disk's escalation threshold until a healthy
        disk is declared failed mid-repair.

        Values are sampled from the datastore *before* the disk accesses
        are issued, so a failure landing mid-decode cannot leak poison
        into the arithmetic.
        """
        layout = self.layout
        units = layout.stripe_units(stripe)
        skip_dead = layout.num_syndromes == 2
        values: typing.List[typing.Optional[int]] = [
            None if unit in erase or (skip_dead and self._address_dead(unit))
            else self._ds_read(unit)
            for unit in units
        ]
        readable = [index for index, value in enumerate(values) if value is not None]
        events = [
            self._disk_access(units[index], is_write=False, kind=kind)
            for index in readable
        ]
        if events:
            yield self.env.all_of(events)
        errored: typing.List[UnitAddress] = []
        for index, event in zip(readable, events):
            if event.error is not None:
                values[index] = None
                errored.append(units[index])
        erasures = values.count(None)
        decoded = gf.decode(values, layout.num_syndromes)
        if decoded is None:
            return None, erasures
        contents = dict(zip(units, decoded))
        if repair_errored and errored:
            # Rewriting remaps the latent sector; skip any slot a
            # mid-decode failure just killed.
            targets = [a for a in errored if not self._address_dead(a)]
            if targets:
                yield self.env.all_of(
                    [self._disk_access(a, is_write=True, kind=kind)
                     for a in targets]
                )
                for a in targets:
                    self._ds_write(a, contents[a])
                    if self.fault_log is not None:
                        self.fault_log.record(
                            FOREGROUND_REPAIR, self.env.now,
                            disk=a.disk, offset=a.offset,
                            detail="rebuilt by recon sweep decode",
                        )
        return contents, erasures

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------
    def _read_unit(self, request: UserRequest, unit_index: int):
        logical = request.logical_unit + unit_index
        address = self.addressing.logical_unit_address(logical)
        faults = self.faults
        if faults.lost_disks and self._stripe_data_lost(
            self.layout.stripe_of_logical(logical)
        ):
            # More units of this stripe are gone than the syndromes
            # recover: the read cannot be served. Account it rather than
            # fabricate data.
            self._record_data_loss_access(
                request, logical, self.layout.stripe_of_logical(logical)
            )
            return
        if not faults.is_down(address.disk):
            target = address
            if self.layout.stripe_size == 2:
                # Mirrored reads balance across the two copies: take the
                # replica (the parity unit, unit 1) whose disk has the
                # shorter queue (never a failed slot — its copy may not
                # be rebuilt yet).
                mirror = self.layout.stripe_unit(
                    self.layout.stripe_of_logical(logical), 1
                )
                if (
                    not faults.is_down(mirror.disk)
                    and self.disks[mirror.disk].queue_length
                    < self.disks[target.disk].queue_length
                ):
                    target = mirror
            access = self._disk_access(target, is_write=False)
            yield access
            if access.error is not None:
                # Media error (or exhausted retries) on a live disk:
                # rebuild the unit from its stripe in-line.
                yield from self._repair_read(request, unit_index, logical, target)
                return
            request.read_values[unit_index] = self._ds_read(target)
            request.paths.append("read")
            self.stats.record_path("read")
            return
        if self.algorithm.redirect_reads and self._unit_built_on(
            address.disk, address.offset
        ):
            # Redirection of reads: the rebuilt unit lives on the replacement.
            yield self._disk_access(address, is_write=False)
            request.read_values[unit_index] = self._ds_read(address)
            request.paths.append("redirected-read")
            self.stats.record_path("redirected-read")
            return
        # On-the-fly reconstruction. One syndrome XORs the target back
        # from all other units, even when a rebuilt copy exists; two
        # read every live unit, the target included, and decode through
        # up to two dead ones.
        stripe = self.layout.stripe_of_logical(logical)
        erase = (address,) if self.layout.num_syndromes == 1 else ()
        handoff = False
        yield self.locks.acquire(stripe)
        try:
            decoded, erasures = yield from self._decode(stripe, erase)
            if decoded is None:
                # Another unit was unreadable too: the stripe is exposed
                # beyond its syndromes right now.
                self._record_data_loss_access(request, logical, stripe)
                return
            value = decoded[address]
            request.read_values[unit_index] = value
            path = "double-degraded-read" if erasures >= 2 else "on-the-fly-read"
            request.paths.append(path)
            self.stats.record_path(path)
            status = self.recon_statuses.get(address.disk)
            if (
                self.algorithm.piggyback
                and status is not None
                and not status.is_built(address.offset)
                and not status.is_claimed(address.offset)
            ):
                # Piggybacking of writes: store the recovered unit on the
                # replacement while still holding the stripe lock. The user
                # response is not delayed — it completed above; only the
                # stripe stays locked for the piggyback write's duration.
                self.stats.piggyback_writes += 1
                self.env.process(
                    self._piggyback_write(stripe, address, value, status),
                    name="piggyback",
                )
                handoff = True
        finally:
            # Lock ownership transfers to the piggyback process on the
            # handoff path; every other exit — including a fault
            # exception thrown into this generator — releases here.
            if not handoff:
                self.locks.release(stripe)

    def _piggyback_write(self, stripe: int, address: UnitAddress, value: int,
                         status: ReconStatus):
        try:
            yield self._disk_access(address, is_write=True)
            self._ds_write(address, value)
            status.mark_built(address.offset)
        finally:
            # simlint: disable=SAN004 (_read_unit hands its stripe lock to this piggyback process, which releases it)
            self.locks.release(stripe)

    def _repair_read(self, request: UserRequest, unit_index: int, logical: int,
                     target: UnitAddress):
        """Foreground repair: rebuild an unreadable unit from its stripe.

        This is the scrubber's repair promoted into the read path: the
        latent unit is decoded from the rest of its stripe and written
        back in place (remap-on-write clears the latent extent). With
        one syndrome a lost peer leaves nothing to XOR the unit back
        from, so the repair gives up before reading; with two it reads
        the readable units first. A decode with too many erasures is
        accounted as data loss either way.
        """
        stripe = self.layout.stripe_of_logical(logical)
        yield self.locks.acquire(stripe)
        try:
            if self.layout.num_syndromes == 1 and any(
                self._unit_lost(peer)
                for peer in self.layout.stripe_units(stripe)
                if peer != target
            ):
                self._record_data_loss_access(request, logical, stripe)
                return
            decoded, _erasures = yield from self._decode(stripe, (target,))
            if decoded is None:
                self._record_data_loss_access(request, logical, stripe)
                return
            value = decoded[target]
            yield self._disk_access(target, is_write=True)
            self._ds_write(target, value)
        finally:
            self.locks.release(stripe)
        request.read_values[unit_index] = value
        request.paths.append("repaired-read")
        self.stats.record_path("repaired-read")
        self.fault_log.record(
            FOREGROUND_REPAIR,
            self.env.now,
            disk=target.disk,
            offset=target.offset,
            detail=f"logical unit {logical}",
        )

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def _write_unit(self, request: UserRequest, logical: int, value: int):
        """Write one data unit and bring the stripe's check units along.

        On a healthy stripe (neither the unit nor a check unit dead)
        this is the read-modify-write, run in this frame: pre-read the
        unit and its check units (4 accesses in all with one syndrome,
        6 with two), then write them all with the change folded in. A
        single-parity G=3 stripe instead pre-reads its other data unit,
        saving an access (Section 6's alpha = 0.1 exception), whenever
        that unit is readable; that lone pre-read is waited on by its
        own event. Otherwise :meth:`_degraded_write` writes.

        Values are read, and new check values computed and stored, only
        when a data store is attached; the old values are sampled before
        the accesses are issued, so a failure landing mid-write cannot
        leak poison into the arithmetic.
        """
        layout = self.layout
        address = self.addressing.logical_unit_address(logical)
        stripe, role = layout.stripe_role_of_logical(logical)
        faults = self.faults
        if faults.lost_disks and self._stripe_data_lost(stripe):
            # The stripe's data is already gone; writing one unit of it
            # cannot restore consistency. Account and fail the update.
            self._record_data_loss_access(request, logical, stripe)
            return
        checks = [layout.stripe_unit(stripe, i) for i in self._check_indices]
        writes = [address, *checks]
        yield self.locks.acquire(stripe)
        try:
            if faults.fault_free or not any(map(self._address_dead, writes)):
                datastore = self.datastore
                other = None
                if self._small_stripes:
                    other = layout.stripe_unit(stripe, 1 - role)
                    if self._address_dead(other):
                        other = None
                if other is not None:
                    if datastore is not None:
                        data = [value, value]
                        data[1 - role] = self._ds_read(other)
                        new_checks = gf.checks_of(data, 1)
                    path = "small-stripe-write"
                    yield self._disk_access(other, is_write=False)
                else:
                    if datastore is not None:
                        old = [self._ds_read(unit) for unit in writes]
                        new_checks = gf.update_checks(old[1:], role, old[0], value)
                    path = self._write_paths.rmw
                    yield self.env.all_of(
                        [self._disk_access(unit, is_write=False) for unit in writes]
                    )
                yield self.env.all_of(
                    [self._disk_access(unit, is_write=True) for unit in writes]
                )
                if datastore is not None:
                    for unit, content in zip(writes, [value, *new_checks]):
                        self._ds_write(unit, content)
            else:
                path = yield from self._degraded_write(
                    request, logical, stripe, role, address, checks, value
                )
        finally:
            self.locks.release(stripe)
        if path is not None:
            request.paths.append(path)
            self.stats.record_path(path)

    # Note on mirroring: G=2 stripes have one data unit, so the parity
    # unit is a byte-identical copy and *every* aligned write is a
    # full-stripe write — the large-write path below gives mirrored
    # writes their two-access, no-pre-read behaviour for free, and G=2
    # declustered layouts realize Copeland & Keller's interleaved
    # declustering (see tests/array/test_mirroring.py).

    def _degraded_write(self, request: UserRequest, logical: int, stripe: int,
                        role: int, address: UnitAddress,
                        checks: typing.List[UnitAddress], value: int):
        """Write a unit when it or one of its check units is dead.

        A dead unit goes to the replacement when the algorithm sends
        user writes there (a reconstruct-write, which also rebuilds it)
        and is otherwise folded into the check units. Every unit left
        stale is dirtied for the sweep to redo. The syndrome count
        decides the I/O:

        - with one syndrome, a unit on a down slot counts as dead even
          once rebuilt, and parity is written exactly when the unit is
          dead, from the data peers read for it. A live unit means
          parity is the dead one, and only the data is written. The plan
          is made, and stale units dirtied, before the reads, and a lone
          write is waited on by its own event;
        - with two, the stripe is decoded from every readable unit, the
          plan is made after the decode, every live check unit is
          written, and the writes are joined with ``all_of`` even when
          there is one.
        """
        layout = self.layout
        faults = self.faults
        single = layout.num_syndromes == 1
        data_units = layout.stripe_units(stripe)[: layout.data_units_per_stripe]
        if single:
            target_dead = faults.is_down(address.disk)
            check_writes = checks if target_dead else []
            data = [self._ds_read(unit) for unit in data_units]
        else:
            target_dead = self._address_dead(address)
            check_writes = [check for check in checks if not self._address_dead(check)]
            decoded, _erasures = yield from self._decode(stripe)
            if decoded is None:
                self._record_data_loss_access(request, logical, stripe)
                return None
            data = [decoded[unit] for unit in data_units]
        status = self.recon_statuses.get(address.disk)
        rebuild = (
            target_dead and status is not None and self.algorithm.writes_to_replacement
        )
        writes = ([address] if rebuild or not target_dead else []) + check_writes
        self._mark_stale(u for u in (address, *checks) if u not in writes)
        if single and target_dead:
            peers = [unit for unit in data_units if unit != address]
            if peers:
                yield self.env.all_of(
                    [self._disk_access(peer, is_write=False) for peer in peers]
                )
        data[role] = value
        new_checks = gf.checks_of(data, layout.num_syndromes)
        contents = dict(zip([address, *checks], [value, *new_checks]))
        events = [self._disk_access(unit, is_write=True) for unit in writes]
        yield events[0] if single and len(events) == 1 else self.env.all_of(events)
        for unit in writes:
            self._ds_write(unit, contents[unit])
        paths = self._write_paths
        if rebuild:
            status.mark_built(address.offset)
            return paths.reconstruct
        return paths.fold if target_dead else paths.check_dead

    def _large_write(self, request: UserRequest, stripe: int, values: typing.List[int]):
        """Full-stripe aligned write: G writes, no pre-reads (criterion 5)."""
        yield self.locks.acquire(stripe)
        try:
            units = self.layout.stripe_units(stripe)
            accesses = [self._disk_access(unit, is_write=True) for unit in units]
            if self.datastore is not None:
                contents = values + gf.checks_of(values, self.layout.num_syndromes)
                for unit, content in zip(units, contents):
                    self._ds_write(unit, content)
            yield self.env.all_of(accesses)
        finally:
            self.locks.release(stripe)
        request.paths.append("large-write")
        self.stats.record_path("large-write")


class _RetryingAccess(Event):
    """One disk access that retries its timeouts, driven by callbacks.

    The event succeeds with no value and carries the final (possibly
    still failed) attempt's ``error``, as a
    :class:`~repro.disk.drive.DiskRequest` does. A transient timeout is
    retried after each delay of :data:`RETRY_DELAYS_MS` in turn, in
    simulated time; a media error is deterministic (the sector stays
    unreadable until rewritten), so it is not retried. An access that
    ends in a hard error counts toward the disk's escalation threshold,
    past which the whole disk is declared failed.

    The first attempt is submitted at construction. Same-instant order
    holds because every access is issued by a process that the
    immediate lane resumed (a kick-off, a lock grant, or a finished
    access or join), after every heap entry due at this instant has
    run: the submission, and any drive wake-up it schedules, go behind
    everything already due. A retry is submitted from its backoff
    timeout, and the event succeeds in the dispatch of the disk
    completion that ends it. Each of those events is fresh, so the
    callback goes straight into its ``_callbacks`` slot, as the kernel
    attaches its own.
    """

    __slots__ = (
        "_controller", "_address", "_sector", "_is_write", "_kind", "_attempt", "error",
    )

    def __init__(self, controller: ArrayController, address: UnitAddress,
                 sector: int, is_write: bool, kind: str):
        super().__init__(controller.env)
        self._controller = controller
        self._address = address
        self._sector = sector
        self._is_write = is_write
        self._kind = kind
        self._attempt = 0
        #: The final attempt's error: None on success, else
        #: ``"media"`` / ``"timeout"``.
        self.error: typing.Optional[str] = None
        self._submit(None)

    def _submit(self, _event: typing.Optional[Event]) -> None:
        controller = self._controller
        # Re-fetch the disk each attempt: a replacement may have been
        # installed in this slot while the access was backing off.
        request = controller.disks[self._address.disk].submit(
            DiskRequest(
                self._sector, controller._sectors_per_unit, self._is_write, self._kind
            )
        )
        request._callbacks = [self._on_done]

    def _on_done(self, request: DiskRequest) -> None:
        error = self.error = request.error
        if error is None:
            self.succeed()
            return
        controller = self._controller
        address = self._address
        attempt = self._attempt
        log = controller.fault_log
        now = controller.env.now
        timed_out = error == ERROR_TIMEOUT
        log.record(
            TRANSIENT_FAULT if timed_out else MEDIA_ERROR,
            now,
            disk=address.disk,
            offset=address.offset,
        )
        if timed_out and attempt < len(RETRY_DELAYS_MS):
            delay = RETRY_DELAYS_MS[attempt]
            log.record(
                RETRY,
                now,
                disk=address.disk,
                offset=address.offset,
                detail=f"attempt {attempt + 1}, backoff {delay:.2f} ms",
            )
            self._attempt = attempt + 1
            controller.env.timeout(delay)._callbacks = [self._submit]
            return
        if timed_out:
            log.record(
                RETRY_EXHAUSTED,
                now,
                disk=address.disk,
                offset=address.offset,
                detail=f"gave up after {attempt} retries",
            )
        controller._count_hard_error(address.disk)
        self.succeed()
