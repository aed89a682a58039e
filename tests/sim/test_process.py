"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Environment, SimulationError


class TestProcessBasics:
    def test_process_runs_to_completion(self):
        env = Environment()
        log = []

        def body(env):
            yield env.timeout(1.0)
            log.append(env.now)
            yield env.timeout(2.0)
            log.append(env.now)

        env.process(body(env))
        env.run()
        assert log == [1.0, 3.0]

    def test_process_return_value_is_event_value(self):
        env = Environment()

        def body(env):
            yield env.timeout(1.0)
            return "result"

        process = env.process(body(env))
        assert env.run(until=process) == "result"

    def test_process_receives_event_value(self):
        env = Environment()
        received = []

        def body(env):
            value = yield env.timeout(1.0, value="hello")
            received.append(value)

        env.process(body(env))
        env.run()
        assert received == ["hello"]

    def test_processes_wait_on_each_other(self):
        env = Environment()

        def child(env):
            yield env.timeout(4.0)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return (env.now, result)

        parent_process = env.process(parent(env))
        assert env.run(until=parent_process) == (4.0, "child-result")

    def test_waiting_on_already_finished_process(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1.0)
            return 7

        quick_process = env.process(quick(env))

        def late(env):
            yield env.timeout(10.0)
            value = yield quick_process
            return value

        late_process = env.process(late(env))
        assert env.run(until=late_process) == 7

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def body(env):
            yield 42

        env.process(body(env))
        with pytest.raises(SimulationError, match="not an Event"):
            env.run()

    def test_exception_in_process_propagates(self):
        env = Environment()

        def body(env):
            yield env.timeout(1.0)
            raise ValueError("inside process")

        env.process(body(env))
        with pytest.raises(ValueError, match="inside process"):
            env.run()

    def test_waiter_sees_child_exception(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            raise ValueError("child error")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                return f"caught: {exc}"

        parent_process = env.process(parent(env))
        assert env.run(until=parent_process) == "caught: child error"

    def test_is_alive(self):
        env = Environment()

        def body(env):
            yield env.timeout(5.0)

        process = env.process(body(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive

