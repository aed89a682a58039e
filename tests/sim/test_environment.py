"""Unit tests for the environment's run loop."""

import pytest

from repro.sim import Environment, SimulationError


class TestRunModes:
    def test_run_until_empty(self):
        env = Environment()
        env.timeout(3.0)
        env.run()
        assert env.now == 3.0

    def test_run_until_time_stops_clock_there(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_time_processes_earlier_events(self):
        env = Environment()
        fired = []
        t = env.timeout(2.0)
        t.callbacks.append(lambda e: fired.append(True))
        env.run(until=5.0)
        assert fired == [True]

    def test_run_until_event_returns_value(self):
        env = Environment()

        def body(env):
            yield env.timeout(2.0)
            return "finished"

        process = env.process(body(env))
        assert env.run(until=process) == "finished"
        assert env.now == 2.0

    def test_run_until_past_raises(self):
        env = Environment()
        env.timeout(5.0)
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_run_until_nan_rejected(self):
        # NaN compares false with every time: only a `>= now` test
        # catches it, before the run drains the whole schedule.
        env = Environment()
        env.timeout(5.0)
        with pytest.raises(SimulationError, match="until=nan"):
            env.run(until=float("nan"))
        assert env.now == 0.0
        assert env.peek() == 5.0  # nothing was dispatched

    def test_nan_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError, match="nan"):
            env.timeout(float("nan"))
        event = env.event()
        event._state = 1  # pretend triggered; schedule directly
        with pytest.raises(SimulationError, match="nan"):
            env.schedule(event, delay=float("nan"))
        assert env.peek() == float("inf")

    def test_run_until_unreachable_event_raises(self):
        env = Environment()
        orphan = env.event()  # never succeeded
        with pytest.raises(SimulationError, match="drained"):
            env.run(until=orphan)

    def test_step_on_empty_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.step()

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(7.0)
        assert env.peek() == 7.0

    def test_initial_time(self):
        env = Environment(initial_time=100.0)
        env.timeout(1.0)
        env.run()
        assert env.now == 101.0

    def test_schedule_negative_delay_rejected(self):
        env = Environment()
        event = env.event()
        event._state = 1  # pretend triggered; schedule directly
        with pytest.raises(SimulationError):
            env.schedule(event, delay=-0.5)

    def test_resuming_run_continues(self):
        env = Environment()
        log = []

        def body(env):
            for _ in range(3):
                yield env.timeout(10.0)
                log.append(env.now)

        env.process(body(env))
        env.run(until=15.0)
        assert log == [10.0]
        env.run()
        assert log == [10.0, 20.0, 30.0]


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()

        def body(env):
            yield env.all_of([env.timeout(1.0), env.timeout(5.0), env.timeout(3.0)])
            return env.now

        process = env.process(body(env))
        assert env.run(until=process) == 5.0

    def test_any_of_fires_on_first(self):
        env = Environment()

        def body(env):
            yield env.any_of([env.timeout(4.0), env.timeout(2.0)])
            return env.now

        process = env.process(body(env))
        assert env.run(until=process) == 2.0

    def test_all_of_empty_fires_immediately(self):
        env = Environment()

        def body(env):
            yield env.all_of([])
            return env.now

        process = env.process(body(env))
        assert env.run(until=process) == 0.0

    def test_any_of_empty_fires_immediately(self):
        env = Environment()

        def body(env):
            value = yield env.any_of([])
            return env.now, value

        process = env.process(body(env))
        assert env.run(until=process) == (0.0, None)

    def test_all_of_with_already_processed_event(self):
        env = Environment()
        early = env.timeout(1.0)
        env.run()  # early is processed

        def body(env):
            yield env.all_of([early, env.timeout(2.0)])
            return env.now

        process = env.process(body(env))
        assert env.run(until=process) == 3.0

    def test_failing_child_fails_condition(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1.0)
            raise RuntimeError("child died")

        def body(env):
            try:
                yield env.all_of([env.process(failing(env)), env.timeout(100.0)])
            except RuntimeError as exc:
                return f"caught: {exc}"

        process = env.process(body(env))
        assert env.run(until=process) == "caught: child died"

    def test_condition_rejects_foreign_events(self):
        env_a, env_b = Environment(), Environment()
        with pytest.raises(SimulationError):
            env_a.all_of([env_b.timeout(1.0)])
