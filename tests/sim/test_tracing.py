"""Unit tests for kernel event tracing."""

import pytest

from repro.sim import Environment
from repro.sim.tracing import EnvironmentTracer


def run_sample(env):
    def worker(env):
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(worker(env), name="sample-worker")
    env.run()


class TestTracer:
    def test_records_timeouts_and_processes(self):
        env = Environment()
        tracer = EnvironmentTracer(env)
        run_sample(env)
        kinds = {entry.kind for entry in tracer.entries}
        assert "timeout" in kinds
        assert "process" in kinds
        names = {e.name for e in tracer.of_kind("process")}
        assert "sample-worker" in names

    def test_timestamps_are_ordered(self):
        env = Environment()
        tracer = EnvironmentTracer(env)
        run_sample(env)
        times = [e.at_ms for e in tracer.entries]
        assert times == sorted(times)

    def test_between_window(self):
        env = Environment()
        tracer = EnvironmentTracer(env)
        run_sample(env)
        early = tracer.between(0.0, 1.5)
        assert all(e.at_ms < 1.5 for e in early)
        assert early  # the t=1.0 timeout is in the window

    def test_capacity_bound_drops_oldest(self):
        env = Environment()
        tracer = EnvironmentTracer(env, capacity=3)
        for _ in range(10):
            env.timeout(1.0)
        env.run()
        assert len(tracer.entries) == 3
        assert tracer.dropped == 7

    def test_capacity_keeps_the_newest_entries(self):
        env = Environment()
        tracer = EnvironmentTracer(env, capacity=3)
        for i in range(10):
            env.timeout(float(i + 1))
        env.run()
        assert [e.at_ms for e in tracer.entries] == [8.0, 9.0, 10.0]

    def test_detach_restores_step(self):
        env = Environment()
        tracer = EnvironmentTracer(env)
        tracer.detach()
        run_sample(env)
        assert list(tracer.entries) == []

    def test_format_tail(self):
        env = Environment()
        tracer = EnvironmentTracer(env, capacity=2)
        run_sample(env)
        text = tracer.format_tail()
        assert "dropped" in text
        assert "ok" in text

    def test_failure_marked(self):
        env = Environment()
        tracer = EnvironmentTracer(env)

        def failing(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        def catcher(env):
            try:
                yield env.process(failing(env), name="dying")
            except RuntimeError:
                pass

        env.process(catcher(env))
        env.run()
        dying = [e for e in tracer.of_kind("process") if e.name == "dying"]
        assert dying and not dying[0].ok

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EnvironmentTracer(Environment(), capacity=0)

    def test_nested_tracers_detach_in_reverse_order(self):
        env = Environment()
        outer = EnvironmentTracer(env)
        inner = EnvironmentTracer(env)
        inner.detach()
        outer.detach()
        run_sample(env)
        assert list(outer.entries) == []
        assert list(inner.entries) == []

    def test_out_of_order_detach_raises_and_keeps_tracing(self):
        env = Environment()
        outer = EnvironmentTracer(env)
        inner = EnvironmentTracer(env)
        with pytest.raises(RuntimeError, match="reverse attach order"):
            outer.detach()
        # The refused detach must not have disturbed the stack: the
        # inner tracer still observes events, then unwinding works.
        run_sample(env)
        assert inner.entries
        inner.detach()
        outer.detach()

    def test_double_detach_raises(self):
        env = Environment()
        tracer = EnvironmentTracer(env)
        tracer.detach()
        with pytest.raises(RuntimeError, match="exactly once"):
            tracer.detach()

    def test_tracer_attached_mid_run_records_the_rest_of_the_run(self):
        # The tracer attaches from inside the t=1 timeout's callback,
        # so it sees that event and everything after it, within the
        # same run() call and exactly as a step() loop would.
        def trace(drive):
            env = Environment()
            tracers = []

            def attacher(env):
                yield env.timeout(1.0)
                tracers.append(EnvironmentTracer(env))
                yield env.timeout(2.0)

            env.process(attacher(env), name="attacher")
            drive(env)
            return [(e.at_ms, e.kind, e.name) for e in tracers[0].entries]

        def step_until_empty(env):
            while env.peek() != float("inf"):
                env.step()

        expected = [
            (1.0, "timeout", "delay=1.0"),
            (3.0, "timeout", "delay=2.0"),
            (3.0, "process", "attacher"),
        ]
        assert trace(step_until_empty) == expected
        assert trace(Environment.run) == expected

    def test_tracing_does_not_change_simulation_results(self):
        def simulate(traced):
            env = Environment()
            if traced:
                EnvironmentTracer(env)
            results = []

            def worker(env):
                for _ in range(5):
                    yield env.timeout(1.5)
                    results.append(env.now)

            env.process(worker(env))
            env.run()
            return results

        assert simulate(True) == simulate(False)
