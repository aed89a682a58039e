"""Bare-kernel microbenchmarks: events dispatched per wall-clock second.

Each benchmark builds a fresh :class:`~repro.sim.Environment`, runs a
fixed deterministic event workload to completion, and reports how many
events the kernel dispatched and how long that took. The workloads are
chosen to isolate the hot paths of the kernel:

- ``kernel.timeout_churn``   — ``Timeout`` scheduling + process resume
  (the shape of every disk service and arrival delay);
- ``kernel.event_relay``     — bare ``Event.succeed`` and callback
  dispatch (the shape of request completion hand-offs);
- ``kernel.condition_fanin`` — ``AllOf``/``AnyOf`` fan-in (the shape of
  parallel stripe-unit accesses joining);
- ``kernel.cohort_dispatch`` — wide same-instant bursts on both lanes
  (the shape of batch completions landing on one tick). The name
  predates the one-event-at-a-time run loop; it stays because the
  committed bench baseline is keyed on it.

No random numbers are drawn and no tracer is attached: the simulated
event sequence is bit-identical on every run, so wall-clock is the
only variable being measured.
"""

from __future__ import annotations

# simlint: disable-file=DET001 (wall-clock measurement IS the benchmark deliverable; the simulated workload itself is fixed and draws no randomness)

import time
import typing

from repro.sim.environment import Environment

#: Spread of delays the churn benchmark cycles through, so the heap
#: does genuine out-of-order work rather than FIFO appends.
_CHURN_DELAYS = (3.0, 1.0, 7.0, 2.0, 5.0)


def _measure(build_and_run: typing.Callable[[], Environment]) -> typing.Dict[str, float]:
    """Time one workload; events = every kernel dispatch it caused."""
    started = time.perf_counter()
    env = build_and_run()
    wall_s = time.perf_counter() - started
    # The schedule drained, so sequence numbers issued == events
    # dispatched; counting here keeps the timed loop instrumentation-free.
    events = env._seq
    return {
        "events": events,
        "wall_s": wall_s,
        "events_per_s": (events / wall_s) if wall_s > 0 else 0.0,
    }


def timeout_churn(processes: int = 100, iterations: int = 1500) -> typing.Dict[str, float]:
    """Processes looping on staggered timeouts."""

    def body(env: Environment, offset: int):
        delays = _CHURN_DELAYS
        for index in range(iterations):
            yield env.timeout(delays[(index + offset) % len(delays)])

    def build_and_run() -> Environment:
        env = Environment()
        for offset in range(processes):
            env.process(body(env, offset), name=f"churn-{offset}")
        env.run()
        return env

    return _measure(build_and_run)


def event_relay(pairs: int = 25, laps: int = 2000) -> typing.Dict[str, float]:
    """Ping-pong pairs passing bare events: succeed + callback dispatch.

    Each lap is two ``Event.succeed`` calls and two process resumes,
    with no timeouts involved — the pure event hand-off path.
    """

    def pinger(env: Environment, wake_box, reply_box):
        for lap in range(laps):
            reply = reply_box[0] = env.event()
            wake_box[0].succeed(lap)
            yield reply
        wake_box[0].succeed(None)

    def ponger(env: Environment, wake_box, reply_box):
        while True:
            value = yield wake_box[0]
            if value is None:
                return
            wake_box[0] = env.event()
            reply_box[0].succeed(value)

    def build_and_run() -> Environment:
        env = Environment()
        for _ in range(pairs):
            wake_box = [env.event()]
            reply_box: typing.List = [None]
            env.process(ponger(env, wake_box, reply_box), name="ponger")
            env.process(pinger(env, wake_box, reply_box), name="pinger")
        env.run()
        return env

    return _measure(build_and_run)


def condition_fanin(iterations: int = 6000, fan: int = 8) -> typing.Dict[str, float]:
    """AllOf/AnyOf joins over timeout fans, alternating each iteration."""

    def body(env: Environment):
        for index in range(iterations):
            fans = [env.timeout(float(1 + (index + k) % 5)) for k in range(fan)]
            if index % 2:
                yield env.any_of(fans)
            else:
                yield env.all_of(fans)

    def build_and_run() -> Environment:
        env = Environment()
        env.process(body(env), name="fanin")
        env.run()
        return env

    return _measure(build_and_run)


def cohort_dispatch(
    width: int = 512, heap_width: int = 64, rounds: int = 80
) -> typing.Dict[str, float]:
    """Wide same-instant bursts on both scheduler lanes.

    Each round a driver fires ``width`` zero-delay timeouts (all in the
    immediate lane at the current instant) and ``heap_width`` unit-delay
    timeouts (all on the heap at the next instant), then advances.
    Every dispatched event shares its instant with dozens to hundreds of
    peers. The mix is immediate-heavy on purpose: zero-delay schedules
    (completions, hand-offs, kickoffs) are the majority of all
    schedules in an array simulation (see :mod:`repro.sim.environment`),
    and the heap burst each round keeps the heap lane covered.
    """

    def driver(env: Environment):
        timeout = env.timeout  # hoisted: measure the kernel, not the lookup
        for _ in range(rounds):
            for _ in range(width):
                timeout(0.0)
            for _ in range(heap_width):
                timeout(1.0)
            yield timeout(1.0)

    def build_and_run() -> Environment:
        env = Environment()
        env.process(driver(env), name="cohort-driver")
        env.run()
        return env

    return _measure(build_and_run)


#: name -> zero-argument benchmark callable (defaults are the suite).
MICRO_BENCHMARKS: typing.Dict[str, typing.Callable[[], typing.Dict[str, float]]] = {
    "kernel.timeout_churn": timeout_churn,
    "kernel.event_relay": event_relay,
    "kernel.condition_fanin": condition_fanin,
    "kernel.cohort_dispatch": cohort_dispatch,
}
