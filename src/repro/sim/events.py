"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence: it starts *pending*, is
*triggered* exactly once with either a value (``succeed``) or an
exception (``fail``), and then has its callbacks run by the environment.
Processes suspend by yielding events; the environment resumes them from
the event's callback list.

Hot-path notes
--------------
This module is the innermost loop of every simulation: a 21-disk
scenario dispatches tens of thousands of events per simulated second,
and the Monte Carlo reliability campaign multiplies that by mission
hours. The implementation therefore trades a little elegance for
throughput, under one inviolable constraint — **bit-identical event
ordering** (pinned by ``tests/integration/test_golden_trace.py``):

- every class carries ``__slots__`` (no per-event ``__dict__``);
- state checks read ``_state`` directly instead of going through the
  ``triggered``/``processed`` properties (kept for the public API);
- :class:`Timeout` skips pending-state bookkeeping entirely: it is
  born triggered and enters the schedule directly;
- ``succeed``/``fail`` append the event itself to the environment's
  immediate lane (``env._imm`` — see :mod:`repro.sim.environment`)
  instead of paying a heap push. The lane is ordered by append, so no
  key tuple is allocated and the sequence counter is not touched:
  ``seq`` only breaks ties among heap entries, and only heap pushes
  advance it;
- the callback list is lazy: events are born with ``_callbacks = None``
  and the list is only allocated when the first waiter attaches (many
  events — bare completion signals, unwaited timeouts — never get one).
  The public ``callbacks`` property materializes the list on demand, so
  ``event.callbacks.append(cb)`` keeps working unchanged; kernel-internal
  attach sites use the ``_callbacks`` slot directly. A dispatched
  event's list is released (``_callbacks = None``) and the property then
  returns ``None`` — appending after dispatch is a bug and still raises
  ``AttributeError``, exactly as before. Check ``processed`` first, as
  :class:`Condition` and ``Process._resume`` do;
- ``defused`` is likewise lazy (a property over a ``_defused`` slot set
  only when a failure is actually consumed), saving a store on every
  construction.
"""

from __future__ import annotations

import typing
from heapq import heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, yielding non-events...)."""


# Event lifecycle states.
PENDING = 0
TRIGGERED = 1
PROCESSED = 2


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The environment that will dispatch this event's callbacks.
    """

    __slots__ = ("env", "_callbacks", "_state", "_value", "_exception", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callback list; ``None`` while no waiter has attached and
        #: again once dispatched (the environment releases the list).
        self._callbacks: typing.Optional[list] = None
        self._state = PENDING
        self._value: object = None
        self._exception: typing.Optional[BaseException] = None

    @property
    def callbacks(self) -> typing.Optional[list]:
        """Callbacks run at dispatch; ``None`` once dispatched.

        Reading this on a not-yet-dispatched event materializes the
        lazy list, so ``event.callbacks.append(cb)`` works as always;
        after dispatch it returns ``None`` and appending raises
        ``AttributeError`` (check ``processed`` first).
        """
        cbs = self._callbacks
        if cbs is None and self._state != PROCESSED:
            cbs = self._callbacks = []
        return cbs

    @property
    def defused(self) -> bool:
        """True once a waiter consumed this event's failure, so the
        kernel does not complain about an unhandled exception."""
        return getattr(self, "_defused", False)

    @defused.setter
    def defused(self, consumed: bool) -> None:
        self._defused = consumed

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value or error."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the environment has run this event's callbacks."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._state >= TRIGGERED and self._exception is None

    @property
    def value(self) -> object:
        """The value the event succeeded with.

        Raises
        ------
        SimulationError
            If the event has not been triggered yet.
        """
        if self._state == PENDING:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} already triggered")
        env = self.env
        if env._closed:
            raise SimulationError("cannot schedule on a closed environment")
        self._state = TRIGGERED
        self._value = value
        env._imm_append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, delivered to waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._state != PENDING:
            raise SimulationError(f"{self!r} already triggered")
        env = self.env
        if env._closed:
            raise SimulationError("cannot schedule on a closed environment")
        self._state = TRIGGERED
        self._exception = exception
        env._imm_append(self)
        return self

    def _run_callbacks(self) -> None:
        """Invoked by ``Environment.step`` when the event is dispatched.

        ``Environment.run`` inlines this body — keep the two in sync.
        """
        self._state = PROCESSED
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Timeouts are the most common event by far (every disk service slice
    and every arrival delay is one), so construction is the fast path:
    the event is born ``TRIGGERED`` — skipping ``succeed()``'s
    pending-state bookkeeping — and enters the schedule directly: the
    heap for positive delays, keyed ``(time, seq)`` like every heap
    entry, and the immediate lane for zero, preserving dispatch order
    exactly.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None):
        if env._closed:
            # Every way into the schedule refuses a closed environment,
            # and this one checks before anything else: a Timeout must
            # never mark itself TRIGGERED and then fail to enter the
            # schedule (it could then be succeed()ed a second time with
            # no record of the first).
            raise SimulationError("cannot schedule a Timeout on a closed environment")
        self.env = env
        self._callbacks = None
        self._state = TRIGGERED
        self._value = value
        self._exception = None
        self.delay = delay
        if delay:
            # The range check rides inside the truthy branch: a zero
            # delay (the hot case) needs no comparison. `not > 0` also
            # refuses NaN, which would otherwise become a heap key that
            # compares false with every deadline.
            if not delay > 0:
                raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
            heappush(env._heap, (env._now + delay, env._seq, self))
            env._seq += 1
        else:
            env._imm_append(self)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Condition(Event):
    """Base for composite events over a fixed list of child events.

    The condition fires once ``_target`` children have fired — every
    child for :class:`AllOf`, one for :class:`AnyOf` — and at once when
    there are no children. A failing child fails the whole condition
    immediately. A condition succeeds with no value: joins are waited
    on, never read.
    """

    __slots__ = ("_fired_count", "_target")

    #: Children that must fire; ``None`` means all of them.
    _needed: typing.ClassVar[typing.Optional[int]] = None

    def __init__(self, env: "Environment", events: typing.Sequence[Event]):
        super().__init__(env)
        self._fired_count = 0
        self._target = self._needed or len(events)
        if not events:
            self.succeed()
            return
        for event in events:
            if event.env is not env:
                raise SimulationError("condition mixes events from different environments")
        on_child = self._on_child
        for event in events:
            if event._state == PROCESSED:
                on_child(event)
            else:
                cbs = event._callbacks
                if cbs is None:
                    event._callbacks = [on_child]
                else:
                    cbs.append(on_child)

    def _on_child(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
            return
        self._fired_count += 1
        if self._fired_count == self._target:
            self.succeed()


class AllOf(Condition):
    """Fires when every child event has fired (a join / barrier)."""

    __slots__ = ()


class AnyOf(Condition):
    """Fires as soon as any single child event fires."""

    __slots__ = ()
    _needed = 1
