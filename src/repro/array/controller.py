"""The array controller: the striping driver of the reproduction.

Translates user requests into physical disk accesses under the current
fault state and reconstruction algorithm, maintaining parity
consistency through per-stripe locks. See the package docstring for the
full access-sequence table.

Access paths are labeled so tests and experiments can account for every
disk access the paper's driver would issue:

- ``read`` / ``redirected-read`` / ``on-the-fly-read``
- ``rmw-write`` / ``small-stripe-write`` / ``large-write``
- ``fold-write`` (data lost, parity absorbs the new value)
- ``reconstruct-write`` (user-writes algorithms: data sent to the
  replacement, parity rebuilt from surviving peers)
- ``data-only-write`` (parity lost and not yet rebuilt)

Dual-syndrome (P+Q) layouts add their own labels:

- ``double-degraded-read`` (two stripe units dead; GF(2^64) decode)
- ``pq-rmw-write`` (6-access healthy update: pre-read and rewrite
  data, P, and Q)
- ``pq-degraded-write`` / ``pq-fold-write`` / ``pq-reconstruct-write``
  (a check or the target is dead: decode survivors, rewrite what
  lives)

Single-syndrome arrays run the exact historical code paths — the dual
dispatch is a single branch on ``layout.num_syndromes``.
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
from repro.disk.drive import KIND_USER, Disk
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
from repro.faults.retry import RetryPolicy
from repro.faults.state import ERROR_TIMEOUT, DiskFaultState
from repro.layout.base import PARITY_ROLE, UnitAddress
from repro.metrics.registry import MetricsRegistry
from repro.recon.algorithms import BASELINE, ReconAlgorithm
from repro.recon.status import ReconStatus
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
        retry_policy: typing.Optional[RetryPolicy] = None,
        fault_log: typing.Optional[FaultLog] = None,
        on_disk_failure: typing.Optional[typing.Callable[[int], None]] = None,
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
        #: The earliest active failure's rebuild state (historical
        #: single-failure API); per-disk states live in
        #: :attr:`recon_statuses` so dual-syndrome arrays can run two
        #: rebuilds at once.
        self.recon_status: typing.Optional[ReconStatus] = None
        self.recon_statuses: typing.Dict[int, ReconStatus] = {}
        self.stats = ControllerStats()
        # Fault injection is strictly opt-in: with no profile, every
        # access takes the exact legacy path (no extra RNG draws, no
        # wrapper processes, no timing or event-ordering changes).
        self.fault_profile = fault_profile
        self.retry_policy = retry_policy if retry_policy is not None else (
            RetryPolicy() if fault_profile is not None else None
        )
        self.fault_log = fault_log if fault_log is not None else (
            FaultLog() if fault_profile is not None else None
        )
        #: Callback ``(disk_id) -> None`` for escalated failures; a
        #: FaultInjector installs itself here so threshold-crossing
        #: disks take the same spare-pool path as crashed ones.
        self.on_disk_failure = on_disk_failure
        self._fault_streams = (
            RandomStreams(fault_profile.seed).spawn("disk-fault-states")
            if fault_profile is not None
            else None
        )
        if fault_profile is not None:
            for disk in self.disks:
                self._attach_fault_state(disk)

    @property
    def _fault_enabled(self) -> bool:
        return self.fault_profile is not None

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
        if not self.faults.can_absorb and self._fault_enabled:
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
        self.recon_statuses.pop(disk, None)
        self._sync_recon_status()

    def _sync_recon_status(self) -> None:
        """Point the historical ``recon_status`` at the earliest failure."""
        primary = self.faults.failed_disk
        self.recon_status = (
            self.recon_statuses.get(primary) if primary is not None else None
        )

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
        if self._fault_enabled:
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
        self._sync_recon_status()
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
        # Historical contract: after the last repair the finished status
        # stays readable; while another rebuild is active, track it.
        if self.faults.failed_disk is not None:
            self._sync_recon_status()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: UserRequest):
        """Begin servicing a user request; returns its completion event."""
        if request.logical_unit + request.num_units > self.addressing.num_data_units:
            raise ValueError(
                f"request [{request.logical_unit}, +{request.num_units}) exceeds "
                f"data space of {self.addressing.num_data_units} units"
            )
        request.done = self.env.event()
        request.submit_ms = self.env.now
        self.env.process(self._handle(request), name="user-request")
        return request.done

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
        """The request's one process: run its sub-operations, then complete.

        A request that plans to a single sub-operation (one unit read or
        written, or one full-stripe write) runs it inline, so a
        fault-free single-unit request costs exactly this one process.
        Larger requests run one process per sub-operation and join them.
        """
        if request.is_write:
            self.stats.user_writes += 1
            subops = self._plan_write(request)
        else:
            self.stats.user_reads += 1
            request.read_values = [0] * request.num_units
            subops = [self._read_unit(request, i) for i in range(request.num_units)]
        if len(subops) == 1:
            yield from subops[0]
        else:
            yield self.env.all_of([self.env.process(subop) for subop in subops])
        now = self.env.now
        request.complete_ms = now
        if self._read_latency is not None and now >= self.measure_since_ms:
            (self._write_latency if request.is_write else self._read_latency).record(
                now - request.submit_ms
            )
        request.done.succeed(request)

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
        failed = self.faults.failed_disks
        lost = self.faults.lost_disks
        for address in self.layout.stripe_units(stripe):
            if address.disk in lost:
                return False
            if address.disk in failed and not self._unit_built_on(
                address.disk, address.offset
            ):
                return False
        return True

    def _stripe_data_lost(self, stripe: int) -> bool:
        """True if more units are unreadable than the layout has syndromes.

        Up to ``num_syndromes`` unreadable units are the tolerated
        faults (the checks recover them); one more means this stripe's
        data is gone. Only possible once a multi-failure has populated
        ``faults.lost_disks``.
        """
        lost = self.faults.lost_disks
        if not lost:
            return False
        failed = self.faults.failed_disks
        unreadable = 0
        for address in self.layout.stripe_units(stripe):
            if address.disk in lost:
                unreadable += 1
            elif address.disk in failed and not self._unit_built_on(
                address.disk, address.offset
            ):
                unreadable += 1
        return unreadable > self.layout.num_syndromes

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

    def _unit_built(self, offset: int) -> bool:
        return self.recon_status is not None and self.recon_status.is_built(offset)

    def _unit_live(self, offset: int) -> bool:
        """A failed-slot unit counts as live once rebuilt.

        Under strict replacement isolation, rebuilt units stay off-limits
        to user work until the whole repair is done.
        """
        if not self._unit_built(offset):
            return False
        if not self.algorithm.isolate_replacement:
            return True
        return self.recon_status.all_built

    def _unit_built_on(self, disk: int, offset: int) -> bool:
        """Per-disk :meth:`_unit_built` for multi-failure layouts."""
        status = self.recon_statuses.get(disk)
        return status is not None and status.is_built(offset)

    def _unit_live_on(self, disk: int, offset: int) -> bool:
        """Per-disk :meth:`_unit_live` for multi-failure layouts."""
        status = self.recon_statuses.get(disk)
        if status is None or not status.is_built(offset):
            return False
        if not self.algorithm.isolate_replacement:
            return True
        return status.all_built

    def _address_dead(self, address: UnitAddress) -> bool:
        """True if this unit cannot currently be read or written."""
        faults = self.faults
        if address.disk in faults.lost_disks:
            return True
        if address.disk in faults.failed_disks:
            return not self._unit_live_on(address.disk, address.offset)
        return False


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
        """
        faults = self.faults
        if address.disk in faults.lost_disks or (
            address.disk in faults.failed_disks
            and not faults.replacement_installed_on(address.disk)
        ):
            self.stats.straddled_accesses += 1
        sector = self.addressing.unit_to_sector(address)
        if self._fault_enabled:
            return self.env.process(
                self._resilient_access(address, sector, is_write, kind),
                name="resilient-access",
            )
        return self.disks[address.disk].access(
            sector, self.addressing.sectors_per_unit, is_write=is_write, kind=kind
        )

    def _resilient_access(self, address: UnitAddress, sector: int,
                          is_write: bool, kind: str):
        """One access under the retry policy; the process's value is the
        final (possibly still failed) :class:`~repro.disk.drive.DiskRequest`.

        Transient timeouts are retried with exponential backoff in
        simulated time up to the policy's bound; media errors are
        deterministic and not retried by default. An access that ends
        in a hard error counts toward the disk's escalation threshold,
        past which the whole disk is declared failed.
        """
        policy = self.retry_policy
        attempt = 0
        while True:
            # Re-fetch the disk each attempt: a replacement may have
            # been installed in this slot while we were backing off.
            disk_request = yield self.disks[address.disk].access(
                sector, self.addressing.sectors_per_unit, is_write=is_write,
                kind=kind,
            )
            error = disk_request.error
            if error is None:
                return disk_request
            self.fault_log.record(
                TRANSIENT_FAULT if error == ERROR_TIMEOUT else MEDIA_ERROR,
                self.env.now,
                disk=address.disk,
                offset=address.offset,
            )
            if policy.should_retry(error, attempt):
                delay = policy.delay_ms(attempt)
                self.fault_log.record(
                    RETRY,
                    self.env.now,
                    disk=address.disk,
                    offset=address.offset,
                    detail=f"attempt {attempt + 1}, backoff {delay:.2f} ms",
                )
                yield self.env.timeout(delay)
                attempt += 1
                continue
            if error == ERROR_TIMEOUT:
                self.fault_log.record(
                    RETRY_EXHAUSTED,
                    self.env.now,
                    disk=address.disk,
                    offset=address.offset,
                    detail=f"gave up after {attempt} retries",
                )
            self._count_hard_error(address.disk)
            return disk_request

    def _count_hard_error(self, disk_id: int) -> None:
        """Accumulate a hard error; escalate a sick disk to failed."""
        state = self.disks[disk_id].fault_state
        if state is None:
            return
        state.hard_errors += 1
        if state.hard_errors < self.fault_profile.escalation_threshold:
            return
        faults = self.faults
        if disk_id in faults.failed_disks or disk_id in faults.lost_disks:
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

    def _surviving_peers(self, stripe: int, exclude: UnitAddress) -> typing.List[UnitAddress]:
        """All stripe units except ``exclude`` (data peers and parity)."""
        return [u for u in self.layout.stripe_units(stripe) if u != exclude]

    def _data_peers(self, stripe: int, exclude: UnitAddress) -> typing.List[UnitAddress]:
        """Data units of the stripe other than ``exclude``."""
        return [
            self.layout.data_unit(stripe, j)
            for j in range(self.layout.data_units_per_stripe)
            if self.layout.data_unit(stripe, j) != exclude
        ]

    def _ds_read(self, address: UnitAddress) -> int:
        if self.datastore is None:
            return 0
        return self.datastore.read_unit(address.disk, address.offset)

    def _ds_write(self, address: UnitAddress, value: int) -> None:
        if self.datastore is not None:
            self.datastore.write_unit(address.disk, address.offset, value)

    @staticmethod
    def _xor(values: typing.Iterable[int]) -> int:
        result = 0
        for value in values:
            result ^= value
        return result

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------
    def _read_unit(self, request: UserRequest, unit_index: int):
        if self.layout.num_syndromes == 2:
            yield from self._read_unit_dual(request, unit_index)
            return
        logical = request.logical_unit + unit_index
        address = self.addressing.logical_unit_address(logical)
        failed = self.faults.failed_disk
        lost = self.faults.lost_disks
        if lost and self._stripe_data_lost(self.layout.stripe_of_logical(logical)):
            # Two units of this stripe are gone: the read cannot be
            # served. Account it rather than fabricate data.
            self._record_data_loss_access(
                request, logical, self.layout.stripe_of_logical(logical)
            )
            return
        if address.disk != failed and address.disk not in lost:
            target = address
            if self.layout.stripe_size == 2:
                # Mirrored reads balance across the two copies: take the
                # replica whose disk has the shorter queue (never the
                # failed slot — its copy may not be rebuilt yet).
                mirror = self.layout.parity_unit(self.layout.stripe_of_logical(logical))
                if (
                    mirror.disk != failed
                    and mirror.disk not in lost
                    and self.disks[mirror.disk].queue_length
                    < self.disks[target.disk].queue_length
                ):
                    target = mirror
            outcome = yield self._disk_access(target, is_write=False)
            if self._fault_enabled and outcome.error is not None:
                # Media error (or exhausted retries) on a live disk:
                # rebuild the unit from its stripe peers in-line.
                yield from self._repair_read(request, unit_index, logical, target)
                return
            request.read_values[unit_index] = self._ds_read(target)
            request.paths.append("read")
            self.stats.record_path("read")
            return
        if (
            address.disk == failed
            and self.algorithm.redirect_reads
            and self._unit_built(address.offset)
        ):
            # Redirection of reads: the rebuilt unit lives on the replacement.
            yield self._disk_access(address, is_write=False)
            request.read_values[unit_index] = self._ds_read(address)
            request.paths.append("redirected-read")
            self.stats.record_path("redirected-read")
            return
        # On-the-fly reconstruction: XOR of all surviving stripe units.
        stripe = self.layout.stripe_of_logical(logical)
        handoff = False
        yield self.locks.acquire(stripe)
        try:
            peers = self._surviving_peers(stripe, address)
            value = self._xor(self._ds_read(peer) for peer in peers)
            peer_events = [self._disk_access(peer, is_write=False) for peer in peers]
            yield self.env.all_of(peer_events)
            if self._fault_enabled and any(
                event.value.error is not None for event in peer_events
            ):
                # A surviving peer was unreadable too: with the target
                # already lost, this stripe is doubly exposed right now.
                self._record_data_loss_access(request, logical, stripe)
                return
            request.read_values[unit_index] = value
            request.paths.append("on-the-fly-read")
            self.stats.record_path("on-the-fly-read")
            if (
                address.disk == failed
                and self.algorithm.piggyback
                and self.faults.replacement_installed
                and not self.recon_status.is_built(address.offset)
                and not self.recon_status.is_claimed(address.offset)
            ):
                # Piggybacking of writes: store the recovered unit on the
                # replacement while still holding the stripe lock. The user
                # response is not delayed — it completed above; only the
                # stripe stays locked for the piggyback write's duration.
                self.stats.piggyback_writes += 1
                self.env.process(
                    self._piggyback_write(stripe, address, value), name="piggyback"
                )
                handoff = True
        finally:
            # Lock ownership transfers to the piggyback process on the
            # handoff path; every other exit — including a fault
            # exception thrown into this generator — releases here.
            if not handoff:
                self.locks.release(stripe)

    def _piggyback_write(self, stripe: int, address: UnitAddress, value: int,
                         status: typing.Optional[ReconStatus] = None):
        if status is None:
            status = self.recon_status
        try:
            yield self._disk_access(address, is_write=True)
            self._ds_write(address, value)
            status.mark_built(address.offset)
        finally:
            self.locks.release(stripe)

    def _repair_read(self, request: UserRequest, unit_index: int, logical: int,
                     target: UnitAddress):
        """Foreground repair: rebuild an unreadable unit from its peers.

        This is the scrubber's repair promoted into the read path: the
        latent unit is reconstructed by XOR over the surviving stripe
        units and written back in place (remap-on-write clears the
        latent extent). If a peer is dead or unreadable too, the stripe
        is doubly exposed and the read is accounted as data loss.
        """
        if self.layout.num_syndromes == 2:
            yield from self._repair_read_dual(request, unit_index, logical, target)
            return
        stripe = self.layout.stripe_of_logical(logical)
        yield self.locks.acquire(stripe)
        try:
            failed = self.faults.failed_disk
            lost = self.faults.lost_disks
            peers = self._surviving_peers(stripe, target)
            if any(
                peer.disk in lost
                or (peer.disk == failed and not self._unit_built(peer.offset))
                for peer in peers
            ):
                # Latent error on top of a failed peer: nothing left to
                # XOR the unit back from.
                self._record_data_loss_access(request, logical, stripe)
                return
            value = self._xor(self._ds_read(peer) for peer in peers)
            peer_events = [self._disk_access(peer, is_write=False) for peer in peers]
            yield self.env.all_of(peer_events)
            if any(event.value.error is not None for event in peer_events):
                self._record_data_loss_access(request, logical, stripe)
                return
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
        if self.layout.num_syndromes == 2:
            yield from self._write_unit_dual(request, logical, value)
            return
        address = self.addressing.logical_unit_address(logical)
        stripe = self.layout.stripe_of_logical(logical)
        parity = self.layout.parity_unit(stripe)
        if self.faults.lost_disks and self._stripe_data_lost(stripe):
            # The stripe's data is already gone; writing one unit of it
            # cannot restore consistency. Account and fail the update.
            self._record_data_loss_access(request, logical, stripe)
            return
        yield self.locks.acquire(stripe)
        try:
            failed = self.faults.failed_disk
            lost = self.faults.lost_disks
            on_failed_data = address.disk == failed
            on_failed_parity = parity.disk == failed
            data_dead = on_failed_data or address.disk in lost
            parity_dead = on_failed_parity or parity.disk in lost
            data_ok = not data_dead or (
                on_failed_data and self._unit_live(address.offset)
            )
            parity_ok = not parity_dead or (
                on_failed_parity and self._unit_live(parity.offset)
            )
            if data_ok and parity_ok:
                # Only the G=3 small-stripe path cares about peers; the
                # peer scan is pure layout arithmetic, so deferring it
                # behind the stripe-size test costs nothing else.
                peers_readable = self.layout.stripe_size == 3 and all(
                    peer.disk not in lost
                    and (peer.disk != failed or self._unit_live(peer.offset))
                    for peer in self._data_peers(stripe, address)
                )
                if peers_readable:
                    path = yield from self._small_stripe_write(stripe, address, parity, value)
                else:
                    path = yield from self._read_modify_write(address, parity, value)
            elif data_dead:
                if (
                    on_failed_data
                    and self.faults.replacement_installed
                    and self.algorithm.writes_to_replacement
                ):
                    path = yield from self._reconstruct_write(stripe, address, parity, value)
                else:
                    # Under strict isolation the unit may be rebuilt but
                    # about to go stale: dirty it *before* the fold so
                    # reconstruction cannot declare completion meanwhile.
                    if on_failed_data and self.recon_status is not None:
                        self.recon_status.mark_dirty(address.offset)
                    path = yield from self._fold_write(stripe, address, parity, value)
            else:
                if on_failed_parity and self.recon_status is not None:
                    self.recon_status.mark_dirty(parity.offset)
                path = yield from self._data_only_write(address, value)
        finally:
            self.locks.release(stripe)
        request.paths.append(path)
        self.stats.record_path(path)

    def _read_modify_write(self, address: UnitAddress, parity: UnitAddress, value: int):
        """The 4-access parity update: 2 pre-reads then 2 writes."""
        old_data = self._ds_read(address)
        old_parity = self._ds_read(parity)
        yield self.env.all_of(
            [
                self._disk_access(address, is_write=False),
                self._disk_access(parity, is_write=False),
            ]
        )
        new_parity = old_parity ^ old_data ^ value
        yield self.env.all_of(
            [
                self._disk_access(address, is_write=True),
                self._disk_access(parity, is_write=True),
            ]
        )
        self._ds_write(address, value)
        self._ds_write(parity, new_parity)
        return "rmw-write"

    # Note on mirroring: G=2 stripes have one data unit, so the parity
    # unit is a byte-identical copy and *every* aligned write is a
    # full-stripe write — the large-write path below gives mirrored
    # writes their two-access, no-pre-read behaviour for free, and G=2
    # declustered layouts realize Copeland & Keller's interleaved
    # declustering (see tests/array/test_mirroring.py).

    def _small_stripe_write(self, stripe: int, address: UnitAddress,
                            parity: UnitAddress, value: int):
        """G=3 optimization: read the *other* data unit, then 2 writes.

        With only two data units per stripe the new parity depends on
        the other unit and the new value alone, saving one access
        (Section 6's alpha = 0.1 exception).
        """
        other = self._data_peers(stripe, address)[0]
        other_value = self._ds_read(other)
        yield self._disk_access(other, is_write=False)
        new_parity = other_value ^ value
        yield self.env.all_of(
            [
                self._disk_access(address, is_write=True),
                self._disk_access(parity, is_write=True),
            ]
        )
        self._ds_write(address, value)
        self._ds_write(parity, new_parity)
        return "small-stripe-write"

    def _reconstruct_write(self, stripe: int, address: UnitAddress,
                           parity: UnitAddress, value: int):
        """Send a lost unit's new data straight to the replacement.

        Parity must be rebuilt from the surviving data peers, after
        which the unit is up to date on the replacement and needs no
        sweep cycle (the user-writes family's "free reconstruction").
        """
        peers = self._data_peers(stripe, address)
        peer_values = [self._ds_read(peer) for peer in peers]
        if peers:
            yield self.env.all_of(
                [self._disk_access(peer, is_write=False) for peer in peers]
            )
        new_parity = self._xor(peer_values) ^ value
        yield self.env.all_of(
            [
                self._disk_access(address, is_write=True),
                self._disk_access(parity, is_write=True),
            ]
        )
        self._ds_write(address, value)
        self._ds_write(parity, new_parity)
        self.recon_status.mark_built(address.offset)
        return "reconstruct-write"

    def _fold_write(self, stripe: int, address: UnitAddress,
                    parity: UnitAddress, value: int):
        """Fold a write to a lost unit into its parity unit (baseline).

        After the fold, on-the-fly reconstruction of the lost unit
        yields the *new* data, so no information is lost — but the
        replacement gains nothing.
        """
        peers = self._data_peers(stripe, address)
        peer_values = [self._ds_read(peer) for peer in peers]
        if peers:
            yield self.env.all_of(
                [self._disk_access(peer, is_write=False) for peer in peers]
            )
        new_parity = self._xor(peer_values) ^ value
        yield self._disk_access(parity, is_write=True)
        self._ds_write(parity, new_parity)
        return "fold-write"

    def _data_only_write(self, address: UnitAddress, value: int):
        """Parity is lost and unrebuilt: just write the data (1 access).

        The sweep recomputes the parity unit from current data when it
        reaches it, so skipping the parity update is safe.
        """
        yield self._disk_access(address, is_write=True)
        self._ds_write(address, value)
        return "data-only-write"

    def _large_write(self, request: UserRequest, stripe: int, values: typing.List[int]):
        """Full-stripe aligned write: G writes, no pre-reads (criterion 5)."""
        yield self.locks.acquire(stripe)
        try:
            accesses = []
            for j in range(self.layout.data_units_per_stripe):
                address = self.layout.data_unit(stripe, j)
                accesses.append(self._disk_access(address, is_write=True))
                self._ds_write(address, values[j])
            parity = self.layout.parity_unit(stripe)
            accesses.append(self._disk_access(parity, is_write=True))
            self._ds_write(parity, self._xor(values))
            if self.layout.num_syndromes == 2:
                q_addr = self.layout.q_unit(stripe)
                accesses.append(self._disk_access(q_addr, is_write=True))
                self._ds_write(q_addr, gf.q_of(values))
            yield self.env.all_of(accesses)
        finally:
            self.locks.release(stripe)
        request.paths.append("large-write")
        self.stats.record_path("large-write")

    # ------------------------------------------------------------------
    # Dual-syndrome (P+Q) paths
    # ------------------------------------------------------------------
    def _dual_stripe_decode(self, stripe: int,
                            treat_dead: typing.Tuple[UnitAddress, ...] = (),
                            kind: str = KIND_USER,
                            repair_errored: bool = False):
        """Read every readable unit of a dual stripe and decode its data.

        Generator run under the stripe lock. Units on dead slots — plus
        any in ``treat_dead`` (e.g. a unit that just returned a media
        error) — become erasures; units whose read errors mid-decode
        join them. Returns ``(data_values, erasures, ok)`` where ``ok``
        is False once more than two units are unreadable.

        With ``repair_errored`` (the reconstruction sweep), units that
        errored on read — latent sectors, not dead slots — are
        rewritten in place from the decode before returning: a stale
        latent sector would otherwise be re-hit by every subsequent
        sweep, each hit counting toward the disk's escalation
        threshold until a healthy disk is declared failed mid-repair.

        Data values are sampled from the datastore *before* the disk
        accesses are issued, mirroring the single-syndrome paths: a
        failure landing mid-decode cannot leak poison into the
        arithmetic.
        """
        layout = self.layout
        data_addrs = [
            layout.data_unit(stripe, j)
            for j in range(layout.data_units_per_stripe)
        ]
        p_addr = layout.parity_unit(stripe)
        q_addr = layout.q_unit(stripe)
        all_addrs = data_addrs + [p_addr, q_addr]
        dead = set(treat_dead)
        readable = [
            a for a in all_addrs if a not in dead and not self._address_dead(a)
        ]
        values = {a: self._ds_read(a) for a in readable}
        events = [
            self._disk_access(a, is_write=False, kind=kind) for a in readable
        ]
        if events:
            yield self.env.all_of(events)
        errored: typing.List[UnitAddress] = []
        if self._fault_enabled:
            for a, event in zip(readable, events):
                if event.value.error is not None:
                    dead.add(a)
                    errored.append(a)

        def value_of(a: UnitAddress) -> typing.Optional[int]:
            if a in dead or a not in values:
                return None
            return values[a]

        data = [value_of(a) for a in data_addrs]
        p = value_of(p_addr)
        q = value_of(q_addr)
        erasures = sum(v is None for v in data) + (p is None) + (q is None)
        try:
            decoded = gf.recover_stripe_data(data, p, q)
        except ValueError:
            return [], erasures, False
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
                    self._ds_write(a, self._dual_unit_value(decoded, a))
                    if self.fault_log is not None:
                        self.fault_log.record(
                            FOREGROUND_REPAIR, self.env.now,
                            disk=a.disk, offset=a.offset,
                            detail="rebuilt by recon sweep decode",
                        )
        return decoded, erasures, True

    def _dual_unit_value(self, decoded: typing.List[int], address: UnitAddress) -> int:
        """The decoded content of ``address`` (data, P, or Q role)."""
        role = self.layout.stripe_of(address.disk, address.offset)[1]
        if role >= 0:
            return decoded[role]
        if role == PARITY_ROLE:
            return gf.p_of(decoded)
        return gf.q_of(decoded)

    def _read_unit_dual(self, request: UserRequest, unit_index: int):
        """Read one unit of a P+Q stripe, decoding through up to two
        dead slots."""
        logical = request.logical_unit + unit_index
        address = self.addressing.logical_unit_address(logical)
        stripe = self.layout.stripe_of_logical(logical)
        faults = self.faults
        if faults.lost_disks and self._stripe_data_lost(stripe):
            self._record_data_loss_access(request, logical, stripe)
            return
        if address.disk not in faults.failed_disks and address.disk not in faults.lost_disks:
            outcome = yield self._disk_access(address, is_write=False)
            if self._fault_enabled and outcome.error is not None:
                yield from self._repair_read(request, unit_index, logical, address)
                return
            request.read_values[unit_index] = self._ds_read(address)
            request.paths.append("read")
            self.stats.record_path("read")
            return
        if (
            address.disk in faults.failed_disks
            and self.algorithm.redirect_reads
            and self._unit_built_on(address.disk, address.offset)
        ):
            yield self._disk_access(address, is_write=False)
            request.read_values[unit_index] = self._ds_read(address)
            request.paths.append("redirected-read")
            self.stats.record_path("redirected-read")
            return
        # Degraded read: decode the target from the surviving units.
        handoff = False
        yield self.locks.acquire(stripe)
        try:
            decoded, erasures, ok = yield from self._dual_stripe_decode(stripe)
            if not ok:
                self._record_data_loss_access(request, logical, stripe)
                return
            value = self._dual_unit_value(decoded, address)
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
                # Lock ownership transfers to the piggyback process,
                # exactly as on the single-syndrome path.
                self.stats.piggyback_writes += 1
                self.env.process(
                    self._piggyback_write(stripe, address, value, status),
                    name="piggyback",
                )
                handoff = True
        finally:
            if not handoff:
                self.locks.release(stripe)

    def _repair_read_dual(self, request: UserRequest, unit_index: int,
                          logical: int, target: UnitAddress):
        """Foreground repair on a P+Q stripe: decode the latent unit
        from the surviving units and write it back in place."""
        stripe = self.layout.stripe_of_logical(logical)
        yield self.locks.acquire(stripe)
        try:
            decoded, _erasures, ok = yield from self._dual_stripe_decode(
                stripe, treat_dead=(target,)
            )
            if not ok:
                self._record_data_loss_access(request, logical, stripe)
                return
            value = self._dual_unit_value(decoded, target)
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

    def _write_unit_dual(self, request: UserRequest, logical: int, value: int):
        """Update one unit of a P+Q stripe plus both its checks."""
        address = self.addressing.logical_unit_address(logical)
        stripe = self.layout.stripe_of_logical(logical)
        if self.faults.lost_disks and self._stripe_data_lost(stripe):
            self._record_data_loss_access(request, logical, stripe)
            return
        p_addr = self.layout.parity_unit(stripe)
        q_addr = self.layout.q_unit(stripe)
        path = None
        yield self.locks.acquire(stripe)
        try:
            target_dead = self._address_dead(address)
            p_dead = self._address_dead(p_addr)
            q_dead = self._address_dead(q_addr)
            if not (target_dead or p_dead or q_dead):
                path = yield from self._pq_read_modify_write(
                    address, p_addr, q_addr, value
                )
            else:
                decoded, _erasures, ok = yield from self._dual_stripe_decode(stripe)
                if not ok:
                    self._record_data_loss_access(request, logical, stripe)
                else:
                    path = yield from self._pq_apply_degraded_write(
                        address, p_addr, q_addr, decoded, value,
                        target_dead, p_dead, q_dead,
                    )
        finally:
            self.locks.release(stripe)
        if path is not None:
            request.paths.append(path)
            self.stats.record_path(path)

    def _pq_read_modify_write(self, address: UnitAddress, p_addr: UnitAddress,
                              q_addr: UnitAddress, value: int):
        """The 6-access P+Q update: pre-read then rewrite data, P, Q."""
        role = self.layout.stripe_of(address.disk, address.offset)[1]
        old_data = self._ds_read(address)
        old_p = self._ds_read(p_addr)
        old_q = self._ds_read(q_addr)
        yield self.env.all_of(
            [
                self._disk_access(address, is_write=False),
                self._disk_access(p_addr, is_write=False),
                self._disk_access(q_addr, is_write=False),
            ]
        )
        new_p = old_p ^ old_data ^ value
        new_q = gf.q_update(old_q, role, old_data, value)
        yield self.env.all_of(
            [
                self._disk_access(address, is_write=True),
                self._disk_access(p_addr, is_write=True),
                self._disk_access(q_addr, is_write=True),
            ]
        )
        self._ds_write(address, value)
        self._ds_write(p_addr, new_p)
        self._ds_write(q_addr, new_q)
        return "pq-rmw-write"

    def _pq_apply_degraded_write(self, address: UnitAddress, p_addr: UnitAddress,
                                 q_addr: UnitAddress, decoded: typing.List[int],
                                 value: int, target_dead: bool, p_dead: bool,
                                 q_dead: bool):
        """Finish a degraded P+Q write from the decoded stripe image.

        Live units (target or checks) are rewritten with fresh contents;
        dead ones are folded into the survivors — their rebuilt image
        goes stale, so any rebuild in progress has the unit dirtied
        *before* the writes land, exactly like the single-syndrome fold.
        """
        role = self.layout.stripe_of(address.disk, address.offset)[1]
        new_data = list(decoded)
        new_data[role] = value
        new_p = gf.p_of(new_data)
        new_q = gf.q_of(new_data)
        writes: typing.List[typing.Tuple[UnitAddress, int]] = []
        built_target = False
        if not target_dead:
            writes.append((address, value))
            path = "pq-degraded-write"
        else:
            status = self.recon_statuses.get(address.disk)
            if (
                address.disk in self.faults.failed_disks
                and self.faults.replacement_installed_on(address.disk)
                and self.algorithm.writes_to_replacement
            ):
                writes.append((address, value))
                built_target = True
                path = "pq-reconstruct-write"
            else:
                if status is not None:
                    status.mark_dirty(address.offset)
                path = "pq-fold-write"
        for check_addr, check_value, check_dead in (
            (p_addr, new_p, p_dead),
            (q_addr, new_q, q_dead),
        ):
            if not check_dead:
                writes.append((check_addr, check_value))
            else:
                status = self.recon_statuses.get(check_addr.disk)
                if status is not None:
                    status.mark_dirty(check_addr.offset)
        yield self.env.all_of(
            [self._disk_access(a, is_write=True) for a, _v in writes]
        )
        for write_addr, write_value in writes:
            self._ds_write(write_addr, write_value)
        if built_target:
            self.recon_statuses[address.disk].mark_built(address.offset)
        return path
