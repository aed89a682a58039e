"""Generator-based simulation processes.

A process wraps a Python generator. The generator yields events; the
process registers itself as a callback on each yielded event and resumes
the generator with the event's value (or throws the event's exception
into it) when the event fires. A :class:`Process` is itself an
:class:`~repro.sim.events.Event` that fires when the generator returns,
so processes can wait on each other by yielding them.

``_resume`` runs once per yield of every process in the simulation, so
it reads event state through the ``_state``/``_exception`` slots
directly; the kickoff event in ``__init__`` is likewise scheduled
inline. Both must schedule exactly the same events in the same order as
the straightforward ``succeed()`` spelling — bit-identical ordering is
pinned by ``tests/integration/test_golden_trace.py``.
"""

from __future__ import annotations

import typing

from repro.sim.events import PENDING, PROCESSED, TRIGGERED, Event, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment

GeneratorType = typing.Generator[Event, object, object]


class Process(Event):
    """A running simulation process (and the event of its completion)."""

    __slots__ = ("name", "_generator", "_send", "_throw", "_resume_cb")

    def __init__(self, env: "Environment", generator: GeneratorType, name: str = ""):
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise SimulationError(
                f"process body must be a generator, got {generator!r}"
            ) from None
        super().__init__(env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # One bound method for the process's whole life: registering
        # ``self._resume`` directly would allocate a fresh bound-method
        # object on every yield. It refers back to the process, so
        # ``_resume`` drops it when the generator finishes, leaving a
        # finished process to reference counting, not the cyclic
        # collector.
        self._resume_cb = self._resume
        # Kick the process off via an immediately-scheduled event so that
        # creation order does not matter within a time step. Inline of
        # env.schedule(start) with delay 0, guard included.
        if env._closed:
            raise SimulationError("cannot schedule on a closed environment")
        start = Event(env)
        start._callbacks = [self._resume_cb]
        start._state = TRIGGERED
        env._imm_append(start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome."""
        try:
            if event._exception is None:
                next_event = self._send(event._value)
            else:
                event.defused = True
                next_event = self._throw(event._exception)
        except StopIteration as stop:
            self._resume_cb = None
            self.succeed(stop.value)
            return
        # simlint: disable=ERR001 (kernel trampoline: the caught exception is forwarded verbatim into the process event via self.fail, so DataLossError propagates to whoever joins the process; nothing is swallowed)
        except BaseException as exc:
            self._resume_cb = None
            self.fail(exc)
            return
        # Duck-typed validity check: reading `_state` replaces an
        # isinstance(next_event, Event) call — zero-cost on success
        # (Python 3.11 try), and any non-event yield lacks the slot.
        try:
            state = next_event._state
        except AttributeError:
            error = SimulationError(
                f"process {self.name!r} yielded {next_event!r}, which is not an Event"
            )
            self._generator.close()
            self._resume_cb = None
            self.fail(error)
            return
        if state == PROCESSED:
            # Already fired and dispatched: resume on a fresh tick so the
            # value/exception is still delivered exactly once.
            relay = Event(self.env)
            relay._callbacks = [self._resume_cb]
            if next_event._exception is None:
                relay.succeed(next_event._value)
            else:
                next_event.defused = True
                relay.fail(next_event._exception)
        else:
            cbs = next_event._callbacks
            if cbs is None:
                next_event._callbacks = [self._resume_cb]
            else:
                cbs.append(self._resume_cb)

    def __repr__(self) -> str:
        status = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {status}>"
