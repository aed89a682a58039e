"""Progress reporting and per-sweep summaries.

The reporter is deliberately plain: per-point progress lines (count,
throughput, ETA) go to the stream only when it is a TTY — piped and
captured output stays clean — and the one-line end-of-sweep summary
prints whenever reporting is enabled, because the summary's cache-hit
and failure counts are how a caller verifies what actually ran.
"""

from __future__ import annotations

# simlint: disable-file=DET001 (progress/ETA display reads the wall clock; elapsed_s is measurement metadata, never part of a cached result)

import sys
import time
import typing
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SweepEvent:
    """One observable step of a running sweep.

    Emitted through ``SweepOptions.on_event`` so an embedding caller (a
    progress bar, the job service's streaming endpoint) can follow a
    sweep without polling. ``kind`` is one of ``"cache-hit"``,
    ``"executed"``, ``"failed"``, ``"retried"`` (requeued after its
    worker process died), or ``"note"``.

    For completed points (``cache-hit``/``executed``) ``result`` holds
    the serialized result document — the same dict the cache stores,
    already written there — so a consumer can summarize each point as
    it lands without waiting for the whole sweep. ``completed``/``total``
    give running progress including failures.
    """

    kind: str
    index: typing.Optional[int] = None
    config_key: typing.Optional[dict] = None
    result: typing.Optional[dict] = field(default=None, repr=False)
    message: typing.Optional[str] = None
    completed: int = 0
    total: int = 0


@dataclass
class SweepSummary:
    """What one sweep did: the accounting a repeated run is judged by."""

    total: int
    executed: int = 0
    cache_hits: int = 0
    failures: int = 0
    retries: int = 0
    elapsed_s: float = 0.0

    @property
    def completed(self) -> int:
        return self.executed + self.cache_hits

    def format(self) -> str:
        parts = [
            f"{self.total} points",
            f"{self.executed} executed",
            f"{self.cache_hits} cache hits",
        ]
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.failures:
            parts.append(f"{self.failures} FAILED")
        line = f"sweep summary: {', '.join(parts)} in {self.elapsed_s:.1f}s"
        if self.executed and self.elapsed_s > 0:
            line += f" ({self.executed / self.elapsed_s:.1f} points/s simulated)"
        return line


class ProgressReporter:
    """Counts sweep events and narrates them to a stream.

    Parameters
    ----------
    total:
        Points in the sweep (for percentages and ETA).
    enabled:
        Print the end-of-sweep summary (and, on a TTY, per-point
        progress lines). Counting happens regardless, so the returned
        :class:`SweepSummary` is always accurate.
    stream:
        Defaults to ``sys.stderr``.
    """

    def __init__(
        self,
        total: int,
        enabled: bool = False,
        stream: typing.Optional[typing.TextIO] = None,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self._show_points = enabled and getattr(self.stream, "isatty", lambda: False)()
        self._summary = SweepSummary(total=total)
        self._started = time.monotonic()

    @property
    def summary(self) -> SweepSummary:
        return self._summary

    def cache_hit(self) -> None:
        self._summary.cache_hits += 1
        self._point_line()

    def executed(self) -> None:
        self._summary.executed += 1
        self._point_line()

    def retried(self) -> None:
        self._summary.retries += 1

    def failed(self) -> None:
        self._summary.failures += 1
        self._point_line()

    def note(self, message: str) -> None:
        """An out-of-band event worth narrating (fallbacks, failures)."""
        if self.enabled:
            print(f"[sweep] {message}", file=self.stream)

    def progress_line(self) -> str:
        """E.g. ``[sweep] 3/12 points (1 cached) — 2.3 points/s — ETA 4s``."""
        s = self._summary
        done = s.completed + s.failures
        elapsed = max(time.monotonic() - self._started, 1e-9)
        rate = done / elapsed
        line = f"[sweep] {done}/{s.total} points"
        if s.cache_hits:
            line += f" ({s.cache_hits} cached)"
        line += f" — {rate:.1f} points/s"
        if 0 < done < s.total:
            line += f" — ETA {(s.total - done) / rate:.0f}s"
        return line

    def _point_line(self) -> None:
        if self._show_points:
            print(self.progress_line(), file=self.stream)

    def finish(self) -> SweepSummary:
        """Freeze the elapsed time, print the summary line, return it."""
        self._summary.elapsed_s = time.monotonic() - self._started
        if self.enabled:
            print(f"[sweep] {self._summary.format()}", file=self.stream)
        return self._summary
