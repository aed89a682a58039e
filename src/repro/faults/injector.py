"""The fault injector: stochastic failure campaigns as a sim process.

A :class:`FaultInjector` drives three fault sources against a running
array:

- **disk lifetimes** — one clock per array slot draws Weibull (or
  exponential) times-to-failure; when a clock fires on a live slot the
  disk fails, routed through the spare-pool monitor when a spare is
  available, or straight into the controller's fault state otherwise;
- **latent sector errors** — a Poisson arrival process plants
  unreadable stripe units on random live disks (found the next time
  anything reads them: a user access, the scrubber, or a rebuild);
- **escalation feedback** — the controller reports disks that crossed
  their hard-error threshold back into :meth:`inject_disk_failure`, so
  a spindle dying of accumulated media errors takes the same
  failure→spare→reconstruction path as a crashed one.

The injector owns the campaign's terminal condition: the first failure
that lands on an already-degraded array fires :attr:`data_loss_event`,
which a campaign run uses as its stopping time.
"""

from __future__ import annotations

import typing

from repro.faults.log import LATENT_ERROR, FaultLog
from repro.faults.profile import FaultProfile
from repro.layout.base import UnitAddress
from repro.sim.rng import RandomStreams

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.controller import ArrayController
    from repro.array.sparing import SparePool


class FaultInjector:
    """Runs a stochastic fault campaign against ``controller``.

    Parameters
    ----------
    controller:
        An :class:`~repro.array.controller.ArrayController` built with a
        :class:`~repro.faults.profile.FaultProfile` (fault injection
        must be enabled on the controller so accesses carry outcomes).
    monitor:
        Optional :class:`~repro.array.sparing.SparePool`. Failures on a
        fault-free array route through it while spares remain;
        otherwise the disk just fails in place.

    The injector draws from a child of the profile's seed, independent
    of the workload's streams.
    """

    def __init__(
        self,
        controller: "ArrayController",
        monitor: typing.Optional["SparePool"] = None,
    ):
        if controller.fault_profile is None:
            raise ValueError(
                "FaultInjector needs a controller built with a FaultProfile"
            )
        self.controller = controller
        self.env = controller.env
        self.profile: FaultProfile = controller.fault_profile
        self.monitor = monitor
        self.log: FaultLog = controller.fault_log
        streams = RandomStreams(self.profile.seed).spawn("fault-injector")
        self._lifetime_rng = streams.stream("lifetimes")
        self._latent_rng = streams.stream("latent-errors")
        #: Fires with the simulated time of the first data-loss event.
        self.data_loss_event = self.env.event()
        self.disk_failures = 0
        self._started = False
        # Escalations discovered by the controller's retry path feed the
        # same failure handling as lifetime-clock failures.
        controller.on_disk_failure = self.inject_disk_failure

    # ------------------------------------------------------------------
    # Campaign control
    # ------------------------------------------------------------------
    def start(self) -> "FaultInjector":
        """Launch the lifetime clocks and latent-error arrivals."""
        if self._started:
            raise RuntimeError("fault injector already started")
        self._started = True
        if self.profile.disk_mttf_hours > 0:
            for disk in range(self.controller.layout.num_disks):
                self.env.process(
                    self._lifetime_clock(disk), name=f"lifetime-clock-{disk}"
                )
        if self.profile.latent_errors_per_hour > 0:
            self.env.process(self._latent_arrivals(), name="latent-errors")
        return self

    @property
    def data_lost(self) -> bool:
        return self.controller.faults.data_lost

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def inject_disk_failure(self, disk: int) -> None:
        """Fail ``disk`` now, routing through the spare pool if possible."""
        faults = self.controller.faults
        if faults.is_down(disk):
            return  # already dead; nothing new fails
        self.disk_failures += 1
        if faults.can_absorb and self.monitor is not None:
            # Within the syndrome budget the pool owns the outcome: it
            # launches a repair while spares remain (concurrently with
            # any sweep already running, on dual-syndrome arrays) and
            # models explicit degraded-forever exhaustion otherwise.
            self.monitor.handle_failure(disk)
        else:
            # A failure beyond the redundancy (or with no monitor): the
            # controller records it, gracefully as data loss when the
            # budget is already spent.
            self.controller.fail_disk(disk)
        if faults.data_lost and not self.data_loss_event.triggered:
            self.data_loss_event.succeed(self.env.now)

    # ------------------------------------------------------------------
    # Fault source processes
    # ------------------------------------------------------------------
    def _lifetime_clock(self, disk: int):
        while not self.data_loss_event.triggered:
            lifetime = self.profile.draw_lifetime_ms(self._lifetime_rng)
            yield self.env.timeout(lifetime)
            faults = self.controller.faults
            if faults.is_down(disk):
                # The slot is already dead; this clock now times the
                # replacement spindle's remaining life.
                continue
            self.inject_disk_failure(disk)

    def _latent_arrivals(self):
        addressing = self.controller.addressing
        num_disks = self.controller.layout.num_disks
        per_disk_ms = self.profile.latent_interarrival_ms
        array_mean_ms = per_disk_ms / num_disks
        while not self.data_loss_event.triggered:
            yield self.env.timeout(
                self._latent_rng.expovariate(1.0 / array_mean_ms)
            )
            disk = self._latent_rng.randrange(num_disks)
            offset = self._latent_rng.randrange(addressing.mapped_units_per_disk)
            faults = self.controller.faults
            if faults.is_down(disk):
                continue  # errors on a dead spindle are moot
            state = self.controller.disks[disk].fault_state
            if state is None:
                continue
            sector = addressing.unit_to_sector(UnitAddress(disk=disk, offset=offset))
            state.add_latent(sector, addressing.sectors_per_unit)
            if self.log is not None:
                self.log.record(LATENT_ERROR, self.env.now, disk=disk, offset=offset)

    def __repr__(self) -> str:
        return (
            f"<FaultInjector failures={self.disk_failures} "
            f"data_lost={self.data_lost}>"
        )
