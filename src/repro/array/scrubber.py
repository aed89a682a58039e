"""Background parity scrubbing.

A continuous-operation array cannot assume parity stays correct between
failures: latent sector errors or an interrupted parity update would
surface only during a reconstruction — exactly when they destroy data.
Production arrays therefore *scrub*: a background process sweeps every
parity stripe, reads all its units, recomputes the XOR, and repairs any
stale parity unit it finds. A unit whose read errors (a latent sector)
is decoded from the values that same read returned, when the stripe
has a syndrome per errored unit, and rewritten in place.

The scrubber reuses the array's stripe locks so a scrub cycle never
interleaves with a user parity update, tags its accesses as
reconstruction-class traffic (so user-priority scheduling also protects
foreground work from scrubbing), and supports the same cycle throttle
as the reconstruction sweep.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.array import syndromes as gf
from repro.disk.drive import KIND_RECON

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.controller import ArrayController


@dataclass
class ScrubReport:
    """Outcome of one full scrub pass."""

    stripes_checked: int = 0
    mismatches_found: int = 0
    repairs_written: int = 0
    duration_ms: float = 0.0
    mismatched_stripes: typing.List[int] = field(default_factory=list)
    #: Units whose scrub read completed with an error (latent sector
    #: errors surface here before any reconstruction needs them).
    media_errors_found: int = 0
    #: Errored units rebuilt from their stripe peers and rewritten.
    media_repairs: int = 0


class ParityScrubber:
    """Sweeps all parity stripes, verifying and repairing parity.

    The scrub always repairs: it rewrites every stale check unit it
    finds, and every errored unit of a stripe that has a syndrome per
    errored unit. Its :class:`ScrubReport` counts both.

    Parameters
    ----------
    controller:
        The array; must be fault-free (scrubbing a degraded array would
        fight the reconstruction for the same stripes).
    cycle_delay_ms:
        Idle time between stripes, throttling the scrub's disk load.
    """

    def __init__(self, controller: "ArrayController", cycle_delay_ms: float = 0.0):
        if cycle_delay_ms < 0:
            raise ValueError(f"negative scrub delay {cycle_delay_ms}")
        self.controller = controller
        self.cycle_delay_ms = cycle_delay_ms
        self.report = ScrubReport()
        self._started = False

    def start(self):
        """Launch the scrub; returns the completion event.

        The completion event fires with the :class:`ScrubReport`.
        """
        if self._started:
            raise RuntimeError("scrub already started")
        if not self.controller.faults.fault_free:
            raise RuntimeError("scrub requires a fault-free array")
        self._started = True
        done = self.controller.env.event()
        self.controller.env.process(self._run(done), name="parity-scrub")
        return done

    def _run(self, done):
        controller = self.controller
        env = controller.env
        layout = controller.layout
        start_ms = env.now
        for stripe in range(controller.addressing.num_stripes):
            cycle_start_ms = env.now
            yield controller.locks.acquire(stripe)
            try:
                units = layout.stripe_units(stripe)
                unit_events = [
                    controller._disk_access(unit, is_write=False, kind=KIND_RECON)
                    for unit in units
                ]
                yield env.all_of(unit_events)
                self.report.stripes_checked += 1
                num_syndromes = layout.num_syndromes
                errored = [
                    unit
                    for unit, event in zip(units, unit_events)
                    if event.error is not None
                ]
                self.report.media_errors_found += len(errored)
                if 1 <= len(errored) <= num_syndromes:
                    # Unreadable unit(s) within the syndrome budget:
                    # rebuild each from the rest and rewrite it in
                    # place (the write remaps the latent extent).
                    yield from self._repair_errored(units, errored)
                if controller.datastore is None:
                    continue
                data = [controller._ds_read(unit) for unit in units[:-num_syndromes]]
                checks = zip(units[-num_syndromes:], gf.checks_of(data, num_syndromes))
                stripe_stale = False
                for check_unit, expected in checks:
                    if controller._ds_read(check_unit) == expected:
                        continue
                    stripe_stale = True
                    yield controller._disk_access(
                        check_unit, is_write=True, kind=KIND_RECON
                    )
                    controller._ds_write(check_unit, expected)
                    self.report.repairs_written += 1
                if stripe_stale:
                    self.report.mismatches_found += 1
                    self.report.mismatched_stripes.append(stripe)
            finally:
                controller.locks.release(stripe)
            if controller.metrics is not None:
                controller.metrics.record_latency(
                    "scrub", env.now - cycle_start_ms, env.now
                )
            if self.cycle_delay_ms > 0:
                yield env.timeout(self.cycle_delay_ms)
        self.report.duration_ms = env.now - start_ms
        done.succeed(self.report)

    def _repair_errored(self, units, bad_units):
        """Rebuild errored unit(s) from the stripe values the scrub has
        just read, then rewrite each in place.

        ``units`` is the whole stripe, ``bad_units`` the units whose
        reads errored, no more of them than the stripe has syndromes.
        Nothing is read again. Runs under the stripe lock the caller
        already holds.
        """
        controller = self.controller
        values = [
            None if unit in bad_units else controller._ds_read(unit)
            for unit in units
        ]
        decoded = dict(zip(units, gf.decode(values, controller.layout.num_syndromes)))
        for bad in bad_units:
            yield controller._disk_access(bad, is_write=True, kind=KIND_RECON)
            controller._ds_write(bad, decoded[bad])
            self.report.media_repairs += 1
