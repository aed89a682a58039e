"""Our reconstruction of the Muntz & Lui analytic model (Figure 8-6).

Muntz & Lui (VLDB '90) model reconstruction time in a declustered array
with a fluid argument: every disk is a server with one fixed maximum
access rate ``mu`` (the paper uses the disk's *random* 4 KB rate,
46/s); reconstruction proceeds at whatever rate the busiest disk's
spare capacity allows; and work done for the sweep by user activity
("free" rebuilds from writes and piggybacked reads) reduces the
remaining work proportionally — i.e. disks are treated as
work-preserving servers.

Section 8.3 of Holland & Gibson explains why both assumptions fail on
real disks: reconstruction writes are sequential (far cheaper than
``1/mu``), and skipping already-rebuilt units does not speed a sweep
that must rotate past them anyway. We reproduce the model *with these
flaws intact* so the Figure 8-6 comparison shows the same qualitative
disagreement: the model is pessimistic on reconstruction time, and it
wrongly favors the redirecting algorithms.

Input conversion (Section 8.3): with user read fraction ``R`` and user
access rate ``lambda_u``, each user write is four disk accesses (two
reads, two writes), so the disk-access arrival rate is
``(4 - 3R) * lambda_u`` and the disk-access read fraction is
``(2 - R)/(4 - 3R)``.

Model state: ``f`` is the fraction of the failed disk rebuilt. With
per-disk fault-free access rate ``a = lambda_d / C`` split into reads
``a_r`` and writes ``a_w``:

- each surviving disk carries its own traffic ``a`` plus the
  ``alpha``-amplified share of on-the-fly reconstructions of lost
  reads (``alpha * a_r * (1 - f_redirect)``) and of lost-unit write
  handling (``alpha * a_w``);
- the replacement disk nominally carries redirected reads, direct user
  writes, and piggybacked writes — but, as M&L assume and Holland &
  Gibson disprove, this extra work does *not* slow the replacement, so
  the model never computes it and it never enters the sweep-rate
  constraint;
- sweep progress per unit costs ``alpha`` reads on each survivor and
  one write on the replacement, so the sweep rate is
  ``min((mu - L_surv)/alpha, mu)``;
- free rebuilds accrue at the rate user activity touches unbuilt lost
  units: writes always (user-writes family), reads too when
  piggybacking.

Reconstruction time is the integral of ``df / (df/dt)`` over
``f = 0..1``, evaluated numerically.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.recon.algorithms import ReconAlgorithm


@dataclass(frozen=True)
class MuntzLuiInputs:
    """Workload and array parameters for the analytic model."""

    num_disks: int                 # C
    stripe_size: int               # G
    user_rate_per_s: float         # lambda_u
    user_read_fraction: float      # R
    units_per_disk: int            # U (reconstruction work)
    max_disk_rate_per_s: float = 46.0  # mu: random 4 KB accesses/s

    @property
    def alpha(self) -> float:
        return (self.stripe_size - 1) / (self.num_disks - 1)

    @property
    def disk_access_rate_per_s(self) -> float:
        """The paper's (4-3R) conversion: user accesses → disk accesses."""
        return (4.0 - 3.0 * self.user_read_fraction) * self.user_rate_per_s

    @property
    def disk_read_fraction(self) -> float:
        """The paper's (2-R)/(4-3R) conversion."""
        return (2.0 - self.user_read_fraction) / (4.0 - 3.0 * self.user_read_fraction)


class MuntzLuiModel:
    """Numerically integrated fluid model of reconstruction time."""

    def __init__(self, inputs: MuntzLuiInputs, steps: int = 2000):
        if steps < 10:
            raise ValueError("use at least 10 integration steps")
        self.inputs = inputs
        self.steps = steps

    # ------------------------------------------------------------------
    # Load equations
    # ------------------------------------------------------------------
    def per_disk_rates(self) -> typing.Tuple[float, float, float]:
        """(total, read, write) fault-free disk accesses/sec per disk."""
        inputs = self.inputs
        a = inputs.disk_access_rate_per_s / inputs.num_disks
        a_r = a * inputs.disk_read_fraction
        return a, a_r, a - a_r

    def survivor_load(self, algorithm: ReconAlgorithm, f: float) -> float:
        """User-induced accesses/sec on each surviving disk at state ``f``."""
        inputs = self.inputs
        a, a_r, a_w = self.per_disk_rates()
        redirected = f if algorithm.redirect_reads else 0.0
        on_the_fly_reads = inputs.alpha * a_r * (1.0 - redirected)
        lost_write_reads = inputs.alpha * a_w
        return a + on_the_fly_reads + lost_write_reads

    def free_rebuild_rate(self, algorithm: ReconAlgorithm, f: float) -> float:
        """Units/sec rebuilt by user activity rather than the sweep."""
        _a, a_r, a_w = self.per_disk_rates()
        rate = 0.0
        if algorithm.writes_to_replacement:
            rate += a_w * (1.0 - f)
        if algorithm.piggyback:
            rate += a_r * (1.0 - f)
        # Rescale write accesses back to unit-touching events: each lost
        # write access corresponds to one unit of the failed disk.
        return rate

    def sweep_rate(self, algorithm: ReconAlgorithm, f: float) -> float:
        """Units/sec the sweep itself can rebuild at state ``f``.

        Two constraints: the busiest survivor's spare capacity divided
        by the per-unit read amplification ``alpha``, and the
        replacement's flat ``mu`` write ceiling. Faithfully to M&L — and
        this is exactly what Section 8.3 criticizes — user work sent to
        the replacement "does not increase this disk's average access
        time", so redirected reads and user writes do **not** reduce the
        replacement-side ceiling. This is why their model always favors
        the redirecting algorithms and is pessimistic about user-writes.
        """
        inputs = self.inputs
        mu = inputs.max_disk_rate_per_s
        survivor_spare = mu - self.survivor_load(algorithm, f)
        if survivor_spare <= 0.0:
            return 0.0
        return min(survivor_spare / max(inputs.alpha, 1e-12), mu)

    # ------------------------------------------------------------------
    # Reconstruction time
    # ------------------------------------------------------------------
    def reconstruction_time_s(self, algorithm: ReconAlgorithm) -> float:
        """Predicted reconstruction time in seconds (inf if saturated)."""
        inputs = self.inputs
        u = float(inputs.units_per_disk)
        total = 0.0
        df = 1.0 / self.steps
        for i in range(self.steps):
            f = (i + 0.5) * df
            sweep = self.sweep_rate(algorithm, f)
            if sweep <= 0.0:
                # A survivor or the replacement is saturated: the model's
                # 100%-utilization boundary. Free rebuilds cannot happen
                # either — saturated disks are not serving user writes.
                return float("inf")
            rate = sweep + self.free_rebuild_rate(algorithm, f)
            total += (u * df) / rate
        return total

    def minimum_possible_time_s(self) -> float:
        """The model's floor: an idle array writing at ``mu`` accesses/s.

        Holland & Gibson point out this is over 1700 s for the 0661 at
        mu = 46/s — more than three times their fastest *simulated*
        reconstruction, because real sequential writes are much faster
        than random ones.
        """
        return self.inputs.units_per_disk / self.inputs.max_disk_rate_per_s
