"""The simulation environment: clock, event schedule, and run loop.

The schedule has two lanes:

- a **heap** for events scheduled into the future (positive delays),
  keyed by ``(time, seq)``, where ``seq`` counts heap pushes and only
  breaks ties among heap entries at the same time; and
- an **immediate deque** for events scheduled *at the current time* —
  ``succeed``/``fail``, zero-delay timeouts, and process kickoffs, which
  together are the majority of all schedules in an array simulation.
  Its order is its append order, and its entries carry no key.

Dispatch takes the heap's head while its time is ``<= now`` and the
deque's head otherwise, so the lane choice compares times only. That is
the order a single heap over every schedule, keyed by ``(time, global
schedule count)``, would produce, by two invariants:

1. While the immediate deque is non-empty, every entry in it is due at
   ``now`` (entries are appended at the then-current time, and the run
   loop never advances the clock past a non-empty deque), and the deque
   holds them in the order they were scheduled.
2. A heap entry at ``time == now`` was necessarily pushed *before*
   ``now`` was reached (a push at ``now`` itself requires a positive
   delay and therefore lands strictly later), so it was scheduled
   before every immediate entry, all of which were appended *at*
   ``now``.

Only heap pushes advance ``seq``: a zero-delay schedule is an O(1)
allocation-free append that touches no counter, and its dispatch is an
O(1) popleft — instead of two O(log n) sift passes through the heap.
Bit-identical ordering is pinned by
``tests/integration/test_golden_trace.py``.

:meth:`Environment.run` and :meth:`Environment.step` both take one
event at a time by that rule and call every attached observer
(:meth:`Environment.add_observer`, used by
:class:`~repro.sim.tracing.EnvironmentTracer`) after each dispatch.
``run`` is the most executed code in the project, so it inlines the
body of ``Event._run_callbacks`` and reads event state through the
``_state``/``_exception`` slots directly.
"""

from __future__ import annotations

import typing
from collections import deque
from heapq import heappop

from repro.sim.events import PROCESSED, AllOf, AnyOf, Event, SimulationError, Timeout
from repro.sim.process import GeneratorType, Process


class Environment:
    """Coordinates simulated time and event dispatch.

    Time is a float in **milliseconds** by convention throughout this
    project (disk service times are naturally expressed in ms), though
    the kernel itself is unit-agnostic.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = initial_time
        self._heap: list = []
        #: Events scheduled at the current instant, in append order.
        #: Bare event objects: every entry is due at ``now`` and the
        #: deque keeps the order they were scheduled in, so no key
        #: tuple is allocated (see the module docstring).
        self._imm: typing.Deque = deque()
        #: Pre-bound ``self._imm.append`` — one attribute lookup instead
        #: of two on every zero-delay schedule (``close()`` clears the
        #: deque in place, so the binding never goes stale).
        self._imm_append = self._imm.append
        #: Heap pushes so far: the tie-breaker that keeps FIFO order
        #: among heap entries due at the same time. Immediate-lane
        #: schedules do not advance it.
        self._seq = 0
        self._closed = False
        #: Per-dispatch observers (see :meth:`add_observer`).
        self._observers: list = []

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event, to be succeeded/failed by user code."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: GeneratorType, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """An event firing once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """An event firing once any event in ``events`` has fired."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and the run loop
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the environment down: drop pending events, refuse new ones.

        After ``close()`` every way into the schedule — ``succeed``,
        ``fail``, a new :class:`~repro.sim.events.Timeout` and a new
        process's kick-off — raises :class:`SimulationError`. Used when
        a scenario ends mid-flight (e.g. a mission deadline) and stray
        completions must not fire.
        Closing from inside a callback also drops the events still due
        at the current instant.
        """
        self._closed = True
        self._heap.clear()
        self._imm.clear()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_observer(self, observer: typing.Callable[[Event], None]) -> None:
        """Register a per-dispatch hook, called as ``observer(event)``.

        :meth:`run` and :meth:`step` call the hook after the event's
        callbacks have completed, and only when dispatch did not raise.
        An observer attached from inside a callback sees that event and
        every later one, including the rest of the current ``run()``.
        Observers stack; remove them in reverse attach order via
        :meth:`remove_observer`.
        """
        self._observers.append(observer)

    def remove_observer(self, observer: typing.Callable[[Event], None]) -> None:
        """Unregister the most recently attached observer.

        Raises
        ------
        RuntimeError
            If ``observer`` is not the most recently attached one —
            observers must be removed in reverse attach order, exactly
            once. Removing blindly out of order would silently detach a
            live observer or "remove" one that is already gone.
        """
        if not self._observers or self._observers[-1] is not observer:
            raise RuntimeError(
                "cannot remove observer: not the most recently attached "
                "(observers must be removed in reverse attach order, "
                "exactly once)"
            )
        self._observers.pop()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none.

        A non-empty immediate lane means "an event at ``now``": the heap
        never holds an entry earlier than ``now``, because every push
        lands a positive delay after the then-current time and the clock
        only advances to the heap's head or to a deadline before it.
        """
        if self._imm:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Advance to the next event and run its callbacks."""
        imm = self._imm
        heap = self._heap
        if imm:
            # Heap entries at `now` were scheduled before every
            # immediate entry (module docstring, invariant 2), so the
            # heap goes first whenever its head time is <= now.
            if heap and heap[0][0] <= self._now:
                when, _seq, event = heappop(heap)
                self._now = when
            else:
                event = imm.popleft()
        elif heap:
            when, _seq, event = heappop(heap)
            self._now = when
        else:
            raise SimulationError("step() on an empty schedule")
        event._run_callbacks()
        if event._exception is not None and not event.defused:
            raise event._exception
        for observe in self._observers:
            observe(event)

    def run(self, until: typing.Union[None, float, Event] = None) -> object:
        """Run until the schedule drains, a deadline, or an event fires.

        Parameters
        ----------
        until:
            ``None`` runs until no events remain. A number runs until the
            clock reaches that time, which must be ``>= now``. An
            :class:`Event` runs until that event has fired, returning its
            value.

        Every mode runs the same loop: it dispatches events one at a
        time, in the order :meth:`step` would, until the next event lies
        beyond the deadline (``inf`` unless ``until`` is a number) or the
        ``until`` event has been dispatched.

        Raises
        ------
        SimulationError
            If the deadline is not ``>= now`` (NaN included), or the
            schedule drains before the ``until`` event fires.
        """
        stop_on = None
        deadline = float("inf")
        if isinstance(until, Event):
            if until._state == PROCESSED:
                return until.value
            stop_on = until
        elif until is not None:
            deadline = float(until)
            if not deadline >= self._now:  # NaN compares false both ways
                raise SimulationError(
                    f"run(until={deadline!r}) needs a deadline >= now "
                    f"(now={self._now!r})"
                )
        heap = self._heap
        imm = self._imm
        popleft = imm.popleft
        observers = self._observers
        processed = PROCESSED
        while True:
            if imm:
                # Invariant 2: a heap entry at `now` precedes every
                # immediate entry. None is ever earlier than `now` (see
                # peek), so this pop leaves the clock where it is.
                if heap and heap[0][0] <= self._now:
                    event = heappop(heap)[2]
                else:
                    event = popleft()
            elif heap and heap[0][0] <= deadline:
                when, _seq, event = heappop(heap)
                self._now = when
            else:
                break
            # Event._run_callbacks, inlined; keep the two in sync.
            event._state = processed
            callbacks = event._callbacks
            if callbacks:
                event._callbacks = None
                if len(callbacks) == 1:  # one waiter is the common case
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
            if event._exception is not None and not event.defused:
                raise event._exception
            if observers:
                for observe in observers:
                    observe(event)
            if event is stop_on:
                return event.value
        if stop_on is not None:
            raise SimulationError("schedule drained before `until` event fired")
        if until is not None:
            self._now = deadline
        return None
