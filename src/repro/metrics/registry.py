"""The per-run metrics hub.

One :class:`MetricsRegistry` rides along with one scenario run. The
controller records per-request latency by class, disks feed per-slot
queue-depth gauges, reconstructions append progress series, and the
runner snapshots per-disk totals at the end. :meth:`to_dict` renders
the whole thing as the JSON-safe ``metrics`` block carried by
:class:`~repro.experiments.runner.ScenarioResult` and the sweep cache.

Everything here is passive observation: no RNG draws, no simulation
events, no mutation of model state — a run with a registry attached is
event-for-event identical to one without.
"""

from __future__ import annotations

import math
import typing

from repro.metrics.accumulators import Counter, TimeWeightedGauge
from repro.metrics.histogram import StreamingHistogram

#: Latency classes the stack records (any other name is accepted too;
#: these are the ones the wiring produces).
LATENCY_CLASSES = ("user-read", "user-write", "recon-read", "recon-write", "scrub")


class ProgressSeries:
    """A bounded (time, built_count) series for one reconstruction.

    Recording every one of the paper-scale ~10⁴ rebuilt units would
    bloat cached results, so points are decimated to roughly
    ``max_points`` evenly spaced milestones; the first and final units
    are always recorded.
    """

    def __init__(self, total_units: int, max_points: int = 256):
        if total_units < 1:
            raise ValueError("a reconstruction rebuilds at least one unit")
        if max_points < 2:
            raise ValueError("need at least the first and last point")
        self.total_units = total_units
        self.points: typing.List[typing.Tuple[float, int]] = []
        self._step = max(1, math.ceil(total_units / max_points))
        self._next_mark = 0

    def record(self, now_ms: float, built_count: int) -> None:
        if built_count >= self._next_mark or built_count >= self.total_units:
            self.points.append((now_ms, built_count))
            self._next_mark = built_count + self._step

    def to_dict(self) -> dict:
        return {
            "total_units": self.total_units,
            "points": [[at_ms, built] for at_ms, built in self.points],
        }


class MetricsRegistry:
    """Counters, latency histograms, gauges, and progress for one run."""

    def __init__(self, measure_since_ms: float = 0.0):
        self.measure_since_ms = measure_since_ms
        self._counters: typing.Dict[str, Counter] = {}
        self._latency: typing.Dict[str, StreamingHistogram] = {}
        self._queue_depth: typing.Dict[int, TimeWeightedGauge] = {}
        self.recon_progress: typing.List[ProgressSeries] = []
        self._disk_rows: typing.List[dict] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def latency_histogram(self, klass: str) -> StreamingHistogram:
        """The histogram for one latency class, created on first use.

        Hot recording paths (the controller's per-request completion)
        hold onto this directly and apply the warmup filter inline,
        skipping the per-sample registry dispatch; empty histograms are
        omitted from :meth:`to_dict`, so eager creation is invisible.
        """
        histogram = self._latency.get(klass)
        if histogram is None:
            histogram = self._latency[klass] = StreamingHistogram()
        return histogram

    def record_latency(self, klass: str, value_ms: float, now_ms: float) -> None:
        """Record one completion; samples inside warmup are discarded,
        mirroring how the response recorder filters its samples."""
        if now_ms < self.measure_since_ms:
            return
        self.latency_histogram(klass).record(value_ms)

    def queue_gauge(self, disk_id: int) -> TimeWeightedGauge:
        """The queue-depth gauge for one array slot (shared across a
        slot's replacement spindles, so the series spans the repair)."""
        gauge = self._queue_depth.get(disk_id)
        if gauge is None:
            gauge = self._queue_depth[disk_id] = TimeWeightedGauge(
                since_ms=self.measure_since_ms
            )
        return gauge

    def start_recon_progress(self, total_units: int) -> ProgressSeries:
        """A fresh progress series (campaigns repair more than once)."""
        series = ProgressSeries(total_units)
        self.recon_progress.append(series)
        return series

    def set_disk_rows(self, rows: typing.Sequence[dict]) -> None:
        """End-of-run per-disk totals, assembled by the runner (the
        registry never imports the disk layer)."""
        self._disk_rows = [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self, end_ms: float) -> dict:
        """The JSON-safe ``metrics`` block for one finished run."""
        disks = []
        for row in self._disk_rows:
            row = dict(row)
            gauge = self._queue_depth.get(row.get("disk"))
            if gauge is not None:
                depth = gauge.summary(end_ms)
                row["queue_depth_mean"] = depth["mean"]
                row["queue_depth_max"] = depth["max"]
            disks.append(row)
        return {
            "measure_since_ms": self.measure_since_ms,
            "end_ms": end_ms,
            "window_ms": max(0.0, end_ms - self.measure_since_ms),
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "latency_ms": {
                klass: self._latency[klass].to_dict()
                for klass in sorted(self._latency)
                if self._latency[klass].count
            },
            "disks": disks,
            "recon_progress": [series.to_dict() for series in self.recon_progress],
        }
