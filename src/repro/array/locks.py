"""Per-parity-stripe mutual exclusion.

Every operation that reads-then-writes stripe state (read-modify-write
parity updates, write folding, reconstruct-writes, on-the-fly
reconstruction reads, and reconstruction sweep cycles) serializes on
its stripe's lock, exactly as the Sprite striping driver serialized
stripe updates. Locks are created on demand and discarded when free,
so the table stays proportional to the number of in-flight operations,
not the number of stripes.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Environment


class _Mutex:
    """FIFO mutex built on kernel events."""

    def __init__(self, env: "Environment"):
        self.env = env
        self.locked = False
        self.waiters: collections.deque = collections.deque()

    def acquire(self):
        """An event firing when the caller holds the lock."""
        event = Event(self.env)
        if not self.locked:
            self.locked = True
            event.succeed()
        else:
            self.waiters.append(event)
        return event

    def release(self) -> None:
        if not self.locked:
            raise RuntimeError("release of an unlocked mutex")
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
            self.locked = False

    @property
    def idle(self) -> bool:
        return not self.locked and not self.waiters


class StripeLockTable:
    """On-demand mutexes keyed by parity stripe number.

    ``monitor`` is an opt-in observation hook (the simsan lock-order
    sanitizer). It is None in every normal run: the two ``if`` checks
    below are the entire overhead when it is off, and the monitor API
    is purely observational — it must never touch lock state, so an
    instrumented run stays bit-identical to an uninstrumented one.
    """

    def __init__(self, env: "Environment", monitor=None):
        self.env = env
        self.monitor = monitor
        self._locks: typing.Dict[int, _Mutex] = {}

    def acquire(self, stripe: int):
        """Event firing when the caller holds stripe ``stripe``'s lock."""
        mutex = self._locks.get(stripe)
        if mutex is None:
            mutex = _Mutex(self.env)
            self._locks[stripe] = mutex
        if self.monitor is not None:
            granted = not mutex.locked
            event = mutex.acquire()
            self.monitor.on_acquire(stripe, event, granted)
            return event
        return mutex.acquire()

    def release(self, stripe: int) -> None:
        mutex = self._locks.get(stripe)
        if self.monitor is not None:
            # Observe before mutating so the monitor can flag a release
            # nobody holds (SAN003) before the KeyError below.
            next_event = (
                mutex.waiters[0] if mutex is not None and mutex.waiters else None
            )
            self.monitor.on_release(stripe, next_event)
        if mutex is None:
            raise KeyError(stripe)
        mutex.release()
        if mutex.idle:
            del self._locks[stripe]

    @property
    def held_count(self) -> int:
        """Stripes currently locked or awaited (for leak tests)."""
        return len(self._locks)
