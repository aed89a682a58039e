"""Data reliability: mean time to data loss (MTTDL) vs declustering.

Section 2 of the paper frames the C/G trade-off partly in reliability
terms: larger C means more disks that can fail during a repair, and
Section 8 notes that "the mean time until data loss is inversely
proportional to mean repair time" [Patterson88]. This module implements
the standard single-failure-correcting Markov approximation:

    MTTDL ≈ MTTF^2 / (C * (C - 1) * MTTR)

where MTTF is one disk's mean time to failure and MTTR is the mean
repair time — which in a continuously-operating array is dominated by
reconstruction time, the quantity this repository simulates. Combining
a simulated reconstruction time with this formula turns the paper's
Figure 8 results into the reliability statement operators actually care
about: how much MTTDL does a given parity overhead buy?

Dual-syndrome (P+Q) arrays extend the Markov chain by one state: data
is lost only when a *third* failure lands while two repairs are in
flight. With failure rate ``λ = 1/MTTF`` per disk and repair rate
``μ = 1/MTTR``, and in the fast-repair regime ``μ >> C·λ`` the chain

    all-good --Cλ--> one-failed --(C-1)λ--> two-failed --(C-2)λ--> loss

has the standard approximation

    MTTDL ≈ MTTF^(t+1) / (C · (C-1) · ... · (C-t) · MTTR^t)

for a ``t``-failure-tolerant array; ``t = 1`` recovers the Patterson
formula above and ``t = 2`` is the two-fault chain the dual-syndrome
campaign cross-checks against.
"""

from __future__ import annotations

from dataclasses import dataclass

HOURS_PER_YEAR = 24.0 * 365.0


@dataclass(frozen=True)
class ReliabilityInputs:
    """Inputs to the MTTDL approximation."""

    num_disks: int          # C
    disk_mttf_hours: float  # per-disk mean time to failure
    repair_hours: float     # mean repair (≈ reconstruction) time
    fault_tolerance: int = 1  # concurrent failures survived (syndromes)

    def __post_init__(self):
        if self.num_disks < 2:
            raise ValueError("an array needs at least two disks")
        if self.disk_mttf_hours <= 0 or self.repair_hours <= 0:
            raise ValueError("MTTF and repair time must be positive")
        if not 1 <= self.fault_tolerance < self.num_disks:
            raise ValueError(
                f"fault tolerance {self.fault_tolerance} outside "
                f"[1, {self.num_disks})"
            )


def mttdl_hours(inputs: ReliabilityInputs) -> float:
    """Mean time to data loss of a ``t``-failure-tolerant array.

    The ``t + 1``-state Markov chain approximation (fast repairs):
    ``MTTF^(t+1) / (C (C-1) ... (C-t) MTTR^t)``. ``t = 1`` is the
    classic single-failure formula; ``t = 2`` the P+Q two-fault chain.
    """
    c = inputs.num_disks
    t = inputs.fault_tolerance
    slots = 1.0
    for i in range(t + 1):
        slots *= c - i
    return inputs.disk_mttf_hours ** (t + 1) / (
        slots * inputs.repair_hours ** t
    )


def mttdl_years(inputs: ReliabilityInputs) -> float:
    """MTTDL in years."""
    return mttdl_hours(inputs) / HOURS_PER_YEAR


def data_loss_probability(inputs: ReliabilityInputs, mission_hours: float) -> float:
    """Probability of data loss within a mission time.

    Uses the exponential approximation ``1 - exp(-t / MTTDL)``, valid
    when repairs are fast relative to failures (the regime the paper's
    short reconstruction times are designed to maintain).
    """
    import math

    if mission_hours < 0:
        raise ValueError("mission time must be non-negative")
    return 1.0 - math.exp(-mission_hours / mttdl_hours(inputs))

