"""Fault injection: stochastic failures, latent errors, the fault log.

The paper's subject is *continuous operation* under disk failures, but
a reproduction that only ever sees one clean, externally-scripted
whole-disk failure never exercises the regimes that motivate parity
declustering. This package supplies a real fault model:

- :mod:`repro.faults.profile` — :class:`FaultProfile`, the per-disk
  stochastic fault description (Weibull/exponential lifetimes, latent
  sector error arrival, transient I/O fault probability);
- :mod:`repro.faults.state` — :class:`DiskFaultState`, the mutable
  per-spindle fault state a :class:`~repro.disk.drive.Disk` consults to
  decide whether an access completes with a media error or a transient
  timeout;
- :mod:`repro.faults.log` — :class:`FaultLog`, the flight recorder
  every injected fault, retry, repair, and lost stripe is written to;
- :mod:`repro.faults.injector` — :class:`FaultInjector`, the
  simulation process that drives per-disk lifetime clocks and latent
  error arrivals against an array controller and its spare pool.

The retry schedule is not a setting: the array controller retries a
timed-out access after each delay of
:data:`~repro.array.controller.RETRY_DELAYS_MS`, and never retries a
media error.

Everything is seeded through the deterministic
:class:`~repro.sim.rng.RandomStreams`, so fault campaigns replay
exactly. The whole subsystem is strictly opt-in: with no
:class:`FaultProfile` attached, the disk and controller code paths are
bit-identical to the fault-free reproduction.
"""

from repro.faults.injector import FaultInjector
from repro.faults.log import (
    DATA_LOSS,
    DATA_LOSS_ACCESS,
    DISK_FAILURE,
    ESCALATION,
    FOREGROUND_REPAIR,
    LATENT_ERROR,
    MEDIA_ERROR,
    REBUILD_LOST,
    REPAIR_COMPLETE,
    RETRY,
    RETRY_EXHAUSTED,
    TRANSIENT_FAULT,
    FaultEvent,
    FaultLog,
)
from repro.faults.profile import FaultProfile
from repro.faults.state import DiskFaultState

__all__ = [
    "DATA_LOSS",
    "DATA_LOSS_ACCESS",
    "DISK_FAILURE",
    "ESCALATION",
    "FOREGROUND_REPAIR",
    "LATENT_ERROR",
    "MEDIA_ERROR",
    "REBUILD_LOST",
    "REPAIR_COMPLETE",
    "RETRY",
    "RETRY_EXHAUSTED",
    "TRANSIENT_FAULT",
    "DiskFaultState",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FaultProfile",
]
