"""Array fault state: which disks are failed, replaced, or healthy.

An array tolerates as many concurrent disk failures as its layout has
syndromes (``tolerance``): one for the paper's parity code, two for
P+Q dual-syndrome layouts. The state machine tracks every repairable
fault in failure order, plus any unrecoverable failures beyond the
budget. For failures past the tolerance, callers choose:

- ``fail(disk)`` (the historical contract) raises
  :class:`DataLossError`, a ``RuntimeError`` subclass that carries the
  concurrent failures;
- ``fail(disk, allow_data_loss=True)`` records a
  :class:`DataLossEvent` instead and moves the array into a *degraded
  terminal* state: the extra disk joins :attr:`lost_disks`, requests
  touching over-exposed stripes take the controller's accounted
  ``data-loss`` path, and the simulation keeps running so a campaign
  can measure time-to-data-loss rather than crash at it.

:attr:`failed_disk` and the no-argument :meth:`install_replacement`
and :meth:`repair_complete` address the earliest active failure;
multi-failure callers name disks explicitly.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field


class DataLossError(RuntimeError):
    """A failure beyond the array's redundancy was rejected.

    Raised by :meth:`ArrayFaults.fail` when a failure beyond the
    tolerance arrives and the caller did not opt into graceful data
    loss. ``failed_disks`` lists every concurrently-failed disk
    including the new one. The state machine knows no layout; the
    graceful path keeps the over-exposed stripes on
    :class:`DataLossEvent`.
    """

    def __init__(self, message: str, failed_disks: typing.Sequence[int] = ()):
        super().__init__(message)
        self.failed_disks = tuple(failed_disks)


@dataclass
class DataLossEvent:
    """One recorded unrecoverable multi-failure."""

    disk: int                                  # the failure that lost data
    concurrent_failures: typing.Tuple[int, ...]  # disks already down
    at_ms: float = 0.0
    exposed_stripes: typing.Tuple[int, ...] = field(default_factory=tuple)

    @property
    def all_failed_disks(self) -> typing.Tuple[int, ...]:
        return tuple(sorted(set(self.concurrent_failures) | {self.disk}))


class ArrayFaults:
    """Tracks the tolerated fault(s) of a syndrome-protected array,
    plus any unrecoverable failures beyond them."""

    def __init__(self, num_disks: int, tolerance: int = 1):
        if tolerance < 1:
            raise ValueError(f"tolerance must be >= 1, got {tolerance}")
        self.num_disks = num_disks
        self.tolerance = tolerance
        #: Active repairable failures in failure order:
        #: disk -> replacement installed?
        self._active: typing.Dict[int, bool] = {}
        #: Disks lost beyond the array's redundancy (terminal state).
        self.lost_disks: typing.Set[int] = set()
        self.data_loss_events: typing.List[DataLossEvent] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def failed_disk(self) -> typing.Optional[int]:
        """The earliest still-active failure, or None."""
        for disk in self._active:
            return disk
        return None

    @property
    def failed_disks(self) -> typing.Tuple[int, ...]:
        """All active repairable failures, in failure order."""
        return tuple(self._active)

    @property
    def fault_free(self) -> bool:
        return not self._active and not self.lost_disks

    @property
    def can_absorb(self) -> bool:
        """True while one more failure stays within the syndrome budget."""
        return (
            len(self._active) + len(self.lost_disks) < self.tolerance
            and not self.data_lost
        )

    @property
    def data_lost(self) -> bool:
        """True once any multi-failure has destroyed data (terminal)."""
        return bool(self.data_loss_events)

    def is_down(self, disk: int) -> bool:
        """True if ``disk`` has failed: an active repairable failure or a
        disk lost beyond the tolerance.

        The membership test for callers that ask about one disk;
        :attr:`failed_disks` builds a tuple for callers that list them.
        """
        return disk in self._active or disk in self.lost_disks

    def is_unreplaced(self, disk: int) -> bool:
        """True if ``disk`` is lost, or failed with no replacement
        installed: its slot has no working spindle."""
        return self._active.get(disk) is False or disk in self.lost_disks

    def fail(self, disk: int,
             allow_data_loss: bool = False) -> typing.Optional[DataLossEvent]:
        """Record a disk failure.

        Failures within the tolerance are repairable and return None. A
        failure beyond it raises :class:`DataLossError` unless
        ``allow_data_loss`` is set, in which case it is recorded as a
        :class:`DataLossEvent` (returned for the caller to enrich with
        timing and exposed stripes) and the array enters its degraded
        terminal state.
        """
        if not 0 <= disk < self.num_disks:
            raise ValueError(f"disk {disk} outside array of {self.num_disks}")
        if disk in self._active or disk in self.lost_disks:
            raise ValueError(f"disk {disk} has already failed")
        if self.can_absorb:
            self._active[disk] = False
            return None
        concurrent = tuple(sorted(set(self._active) | self.lost_disks))
        if not allow_data_loss:
            ordinal = "second" if len(concurrent) == 1 else "further"
            raise DataLossError(
                f"disk{'s' if len(concurrent) > 1 else ''} "
                f"{', '.join(map(str, concurrent)) or '?'} already failed; "
                f"a {ordinal} failure exceeds the array's {self.tolerance}-"
                "failure tolerance and loses data",
                failed_disks=concurrent + (disk,),
            )
        event = DataLossEvent(disk=disk, concurrent_failures=concurrent)
        self.lost_disks.add(disk)
        self.data_loss_events.append(event)
        return event

    def install_replacement(self, disk: typing.Optional[int] = None) -> None:
        """Install a replacement for ``disk`` (default: earliest failure)."""
        if disk is None:
            disk = self.failed_disk
        if disk is None:
            raise RuntimeError("no failed disk to replace")
        if disk not in self._active:
            raise RuntimeError(f"disk {disk} is not an active repairable failure")
        if self._active[disk]:
            raise RuntimeError("replacement already installed")
        self._active[disk] = True

    def repair_complete(self, disk: typing.Optional[int] = None) -> None:
        """Reconstruction finished: the slot is healthy again.

        Lost disks stay lost — repairing a repairable fault does not
        resurrect data destroyed by a multi-failure.
        """
        if disk is None:
            disk = self.failed_disk
        if disk is None or not self._active.get(disk, False):
            raise RuntimeError("repair_complete without an active reconstruction")
        del self._active[disk]
