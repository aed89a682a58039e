"""The per-disk stochastic fault description.

A :class:`FaultProfile` is a frozen, JSON-safe value object: it can ride
inside a :class:`~repro.experiments.runner.ScenarioConfig`, hash into
the sweep result cache's content address, and rebuild from a parsed
JSON document. All rates are expressed in the units operators quote
them in (hours, probability per access); conversion to simulated
milliseconds happens here, once.
"""

from __future__ import annotations

import math
import random
import typing
from dataclasses import dataclass

#: Simulated milliseconds per hour (the simulation clock is in ms).
MS_PER_HOUR = 3_600_000.0


@dataclass(frozen=True)
class FaultProfile:
    """How one disk misbehaves.

    Parameters
    ----------
    disk_mttf_hours:
        Mean time to whole-disk failure, in hours of simulated time.
        0 disables lifetime failures.
    lifetime_shape:
        Weibull shape parameter for disk lifetimes. 1.0 (the default)
        is the exponential/constant-hazard model the Markov MTTDL
        approximation assumes; >1 models wear-out, <1 infant mortality.
    latent_errors_per_hour:
        Arrival rate of latent sector errors per disk-hour. Each
        arrival marks one stripe unit of one disk unreadable until the
        unit is rewritten (remap-on-write) or repaired.
    transient_error_prob:
        Probability that any single disk access completes with a
        transient timeout instead of success.
    transient_penalty_ms:
        Simulated time consumed by a transient fault before the error
        is reported (the bus/firmware timeout).
    escalation_threshold:
        Hard errors (media errors and exhausted retry sequences) a
        disk may accumulate before the controller declares the whole
        disk failed.
    seed:
        Master seed for this profile's random streams.
    """

    disk_mttf_hours: float = 0.0
    lifetime_shape: float = 1.0
    latent_errors_per_hour: float = 0.0
    transient_error_prob: float = 0.0
    transient_penalty_ms: float = 5.0
    escalation_threshold: int = 8
    seed: int = 1992

    def __post_init__(self):
        # NaN slips through every range check below (it compares false
        # both ways); job specs parsed from JSON can carry NaN and
        # Infinity.
        for name in (
            "disk_mttf_hours",
            "lifetime_shape",
            "latent_errors_per_hour",
            "transient_error_prob",
            "transient_penalty_ms",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.disk_mttf_hours < 0:
            raise ValueError("disk MTTF cannot be negative")
        if self.lifetime_shape <= 0:
            raise ValueError("Weibull shape must be positive")
        if self.latent_errors_per_hour < 0:
            raise ValueError("latent error rate cannot be negative")
        if not 0.0 <= self.transient_error_prob <= 1.0:
            raise ValueError("transient error probability must be in [0, 1]")
        if self.transient_penalty_ms < 0:
            raise ValueError("transient penalty cannot be negative")
        if self.escalation_threshold < 1:
            raise ValueError("escalation threshold must be at least 1")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True if any stochastic fault source is active."""
        return (
            self.disk_mttf_hours > 0
            or self.latent_errors_per_hour > 0
            or self.transient_error_prob > 0
        )

    @property
    def disk_mttf_ms(self) -> float:
        return self.disk_mttf_hours * MS_PER_HOUR

    @property
    def latent_interarrival_ms(self) -> typing.Optional[float]:
        """Mean ms between latent errors on one disk (None if disabled)."""
        if self.latent_errors_per_hour <= 0:
            return None
        return MS_PER_HOUR / self.latent_errors_per_hour

    def draw_lifetime_ms(self, rng: random.Random) -> float:
        """One disk lifetime in simulated ms.

        The Weibull scale is solved so the distribution's mean equals
        ``disk_mttf_ms`` for any shape; shape 1.0 reduces to the
        exponential distribution.
        """
        if self.disk_mttf_hours <= 0:
            raise ValueError("lifetime draws need a positive disk MTTF")
        shape = self.lifetime_shape
        scale = self.disk_mttf_ms / math.gamma(1.0 + 1.0 / shape)
        return rng.weibullvariate(scale, shape)
