"""Accumulators that respect a ``measure_since`` warmup boundary.

The experiments measure steady-state behavior, so everything that
integrates over time must clip to the measurement window
``[since_ms, end_ms]``: a disk that idled through warmup and then
saturated is a saturated disk, not a half-busy one. These accumulators
are passive bookkeeping — no RNG, no events — so attaching them to a
simulation cannot perturb it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Counter:
    """A monotonically growing event count."""

    value: int = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only count up")
        self.value += amount


@dataclass
class WindowedDuration:
    """Total length of intervals, clipped to ``[since_ms, inf)``.

    Disks feed their per-request busy intervals here; utilization is
    then ``total_ms`` over the measurement-window length, with a
    zero-length window reported as 0.0 rather than a division error.
    """

    since_ms: float = 0.0
    total_ms: float = 0.0

    def add(self, start_ms: float, end_ms: float) -> None:
        """Accumulate one interval, keeping only the part past the boundary."""
        if end_ms < start_ms:
            raise ValueError(f"interval ends before it starts: [{start_ms}, {end_ms}]")
        clipped = end_ms - max(start_ms, self.since_ms)
        if clipped > 0.0:
            self.total_ms += clipped

    def utilization(self, end_ms: float) -> float:
        """Busy fraction of the window ``[since_ms, end_ms]`` (0.0 if empty)."""
        window = end_ms - self.since_ms
        if window <= 0.0:
            return 0.0
        return self.total_ms / window


class TimeWeightedGauge:
    """Integrates a piecewise-constant value (queue depth, disks busy).

    Callers pass the simulation clock explicitly (``add(delta, now)``)
    so the gauge never touches wall time. The mean weights each held
    value by how long it was held inside the measurement window; the
    maximum is taken over values held at any point past ``since_ms``.
    """

    __slots__ = ("since_ms", "value", "maximum", "_area", "_last_ms")

    def __init__(self, since_ms: float = 0.0):
        self.since_ms = since_ms
        self.value = 0.0
        self.maximum = 0.0
        self._area = 0.0
        self._last_ms = 0.0

    def add(self, delta: float, now_ms: float) -> None:
        """Integrate the held value up to ``now_ms``, then add ``delta``."""
        # This runs twice per disk request (queue push and pop); plain
        # comparisons in place of max() builtins keep it cheap.
        last = self._last_ms
        start = last if last > self.since_ms else self.since_ms
        if now_ms > start:
            value = self.value
            self._area += value * (now_ms - start)
            if value > self.maximum:
                self.maximum = value
        if now_ms > last:
            self._last_ms = now_ms
        self.value += delta

    def mean(self, end_ms: float) -> float:
        """Time-weighted mean over ``[since_ms, end_ms]`` (0.0 if empty)."""
        window = end_ms - self.since_ms
        if window <= 0.0:
            return 0.0
        self.add(0.0, end_ms)
        return self._area / window

    def summary(self, end_ms: float) -> dict:
        """JSON-safe ``{"mean", "max"}`` over the measurement window."""
        mean = self.mean(end_ms)
        return {"mean": mean, "max": self.maximum}
