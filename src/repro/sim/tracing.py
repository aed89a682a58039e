"""Kernel-level event tracing for debugging simulations.

Registers an observer on an :class:`~repro.sim.environment.Environment`
that records every dispatched event as a ``(time, kind, name)`` tuple.
Traces answer the questions that arise when a simulation misbehaves —
what fired at t, in what order, which processes were alive — without
sprinkling prints through model code.

The environment calls the observer after each dispatch of its one run
loop (and of ``step()``), so a trace is a faithful record of the
untraced dispatch sequence, and a tracer attached mid-run records the
rest of that run. Tracing costs a callback per event; enable it for
diagnosis, not for benchmark runs.
"""

from __future__ import annotations

import collections
import typing
from dataclasses import dataclass

from repro.sim.environment import Environment
from repro.sim.events import Timeout
from repro.sim.process import Process


@dataclass(frozen=True)
class TraceEntry:
    """One dispatched event."""

    at_ms: float
    kind: str      # "timeout", "process", "event"
    name: str
    ok: bool


class EnvironmentTracer:
    """Records every event the environment dispatches.

    Parameters
    ----------
    env:
        Environment to observe. The tracer registers a dispatch
        observer (:meth:`Environment.add_observer`); :meth:`detach`
        removes it.
    capacity:
        Oldest entries are dropped beyond this bound, so long runs
        cannot exhaust memory.
    """

    def __init__(self, env: Environment, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        # A bounded deque keeps _record O(1); a list's pop(0) would make
        # a long saturated trace O(n²).
        self.entries: typing.Deque[TraceEntry] = collections.deque(maxlen=capacity)
        self.dropped = 0
        # One cached bound method: add/remove_observer match by
        # identity, and each `self._on_event` attribute access would
        # build a fresh bound-method object.
        self._observer = self._on_event
        env.add_observer(self._observer)

    def detach(self) -> None:
        """Stop tracing: remove this tracer's observer.

        Tracers nest; they must detach innermost-first, exactly once
        (:meth:`Environment.remove_observer` enforces this — detaching
        out of order would silently disturb the live observer stack).

        Raises
        ------
        RuntimeError
            If another tracer is attached on top of this one, or this
            tracer was already detached.
        """
        self.env.remove_observer(self._observer)

    def _on_event(self, event) -> None:
        if isinstance(event, Process):
            kind, name = "process", event.name
        elif isinstance(event, Timeout):
            kind, name = "timeout", f"delay={event.delay}"
        else:
            kind, name = "event", type(event).__name__
        self._record(TraceEntry(at_ms=self.env.now, kind=kind, name=name,
                                ok=event.ok))

    def _record(self, entry: TraceEntry) -> None:
        if len(self.entries) == self.capacity:
            self.dropped += 1  # the deque evicts the oldest entry itself
        self.entries.append(entry)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def between(self, start_ms: float, end_ms: float) -> typing.List[TraceEntry]:
        """Entries dispatched in the half-open window [start, end)."""
        return [e for e in self.entries if start_ms <= e.at_ms < end_ms]

    def of_kind(self, kind: str) -> typing.List[TraceEntry]:
        return [e for e in self.entries if e.kind == kind]

    def format_tail(self, count: int = 20) -> str:
        """The last ``count`` entries, one per line."""
        tail = list(self.entries)[-count:] if count > 0 else []
        lines = [
            f"{e.at_ms:12.3f}  {e.kind:8s}  {'ok ' if e.ok else 'ERR'}  {e.name}"
            for e in tail
        ]
        if self.dropped:
            lines.insert(0, f"... {self.dropped} earlier entries dropped ...")
        return "\n".join(lines)
