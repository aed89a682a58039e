"""On-line spare pool management.

Section 8: "In an array that maintains a pool of on-line spare disks,
the replacement time can be kept sufficiently small that repair time is
essentially reconstruction time." This module provides that pool: a
fixed number of installed spares, an installation delay (electronic
switch-in for hot spares, human minutes-to-hours otherwise), and a
monitor process that reacts to a disk failure by installing a spare and
launching reconstruction automatically.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.faults.log import REPAIR_COMPLETE, SPARES_EXHAUSTED
from repro.recon.sweeper import Reconstructor

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.controller import ArrayController


@dataclass
class RepairRecord:
    """One completed repair handled by the spare pool."""

    failed_disk: int
    failed_at_ms: float
    replacement_installed_at_ms: float
    repair_completed_at_ms: float

    @property
    def replacement_delay_ms(self) -> float:
        return self.replacement_installed_at_ms - self.failed_at_ms

    @property
    def reconstruction_ms(self) -> float:
        return self.repair_completed_at_ms - self.replacement_installed_at_ms

    @property
    def total_repair_ms(self) -> float:
        return self.repair_completed_at_ms - self.failed_at_ms


class SparePool:
    """Automatic failure handling backed by a pool of spare disks.

    Parameters
    ----------
    controller:
        The array to protect.
    spares:
        Number of replacement disks on the shelf.
    replacement_delay_ms:
        Time from failure detection to a spare being switched in
        (0 for hot spares wired into the array).
    recon_workers, cycle_delay_ms:
        Passed to the :class:`Reconstructor` launched for each repair.
        The rebuild runs under the controller's own reconstruction
        algorithm.
    """

    def __init__(
        self,
        controller: "ArrayController",
        spares: int = 1,
        replacement_delay_ms: float = 0.0,
        recon_workers: int = 8,
        cycle_delay_ms: float = 0.0,
    ):
        if spares < 0:
            raise ValueError("spare count cannot be negative")
        if replacement_delay_ms < 0:
            raise ValueError("replacement delay cannot be negative")
        self.controller = controller
        self.spares_remaining = spares
        self.replacement_delay_ms = replacement_delay_ms
        self.recon_workers = recon_workers
        self.cycle_delay_ms = cycle_delay_ms
        self.repairs: typing.List[RepairRecord] = []
        #: Disks that failed while the shelf was empty. No repair was
        #: (or ever will be) launched for them: the array serves them
        #: degraded, via its syndromes, indefinitely. Restocking helps
        #: only *future* failures.
        self.degraded_disks: typing.List[int] = []

    @property
    def exhausted(self) -> bool:
        """True once a failure has arrived with an empty shelf."""
        return bool(self.degraded_disks)

    def handle_failure(self, disk: int):
        """Fail ``disk`` and repair it from the pool.

        Returns an event firing with the :class:`RepairRecord` when the
        repair completes. If no spares remain, no repair is launched:
        the disk enters an explicit degraded-forever state (recorded in
        :attr:`degraded_disks` and the fault log) and the array keeps
        serving it through its syndromes; ``None`` is returned.

        Dual-syndrome arrays may call this for a second failure while a
        first repair is still sweeping — the two rebuilds proceed
        concurrently, each on its own disk.
        """
        controller = self.controller
        env = controller.env
        controller.fail_disk(disk)
        if self.spares_remaining < 1:
            self.degraded_disks.append(disk)
            if controller.fault_log is not None:
                controller.fault_log.record(
                    SPARES_EXHAUSTED,
                    env.now,
                    disk=disk,
                    detail=(
                        "no spares remaining: disk stays degraded; "
                        "restocking repairs only future failures"
                    ),
                )
            return None
        self.spares_remaining -= 1
        done = env.event()
        env.process(self._repair(disk, env.now, done), name=f"spare-repair-{disk}")
        return done

    def restock(self, count: int = 1) -> None:
        """Add spares to the shelf."""
        if count < 1:
            raise ValueError("restock count must be positive")
        self.spares_remaining += count

    def _repair(self, disk: int, failed_at_ms: float, done):
        controller = self.controller
        env = controller.env
        if self.replacement_delay_ms > 0:
            yield env.timeout(self.replacement_delay_ms)
        controller.install_replacement(disk)
        installed_at_ms = env.now
        reconstructor = Reconstructor(
            controller,
            workers=self.recon_workers,
            cycle_delay_ms=self.cycle_delay_ms,
            disk=disk,
        )
        yield reconstructor.start()
        record = RepairRecord(
            failed_disk=disk,
            failed_at_ms=failed_at_ms,
            replacement_installed_at_ms=installed_at_ms,
            repair_completed_at_ms=env.now,
        )
        self.repairs.append(record)
        if controller.fault_log is not None:
            controller.fault_log.record(
                REPAIR_COMPLETE,
                env.now,
                disk=disk,
                detail=f"repair took {record.total_repair_ms:.1f} ms",
            )
        done.succeed(record)
