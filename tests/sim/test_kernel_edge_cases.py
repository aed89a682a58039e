"""Edge cases in the kernel that the array stack depends on."""

import pytest

from repro.sim import Environment, SimulationError


class TestConditionEdges:
    def test_any_of_ignores_later_children(self):
        env = Environment()
        late_fired = []
        late = env.timeout(10.0)
        late.callbacks.append(lambda e: late_fired.append(True))

        def body(env):
            yield env.any_of([env.timeout(1.0), late])
            return env.now

        process = env.process(body(env))
        assert env.run(until=process) == 1.0
        env.run()  # the late child still fires harmlessly
        assert late_fired == [True]

    def test_any_of_with_failing_first_child(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1.0)
            raise RuntimeError("early death")

        def body(env):
            try:
                yield env.any_of([env.process(failing(env)), env.timeout(5.0)])
            except RuntimeError:
                return "caught"

        process = env.process(body(env))
        assert env.run(until=process) == "caught"

    def test_nested_conditions(self):
        env = Environment()

        def body(env):
            inner = env.all_of([env.timeout(1.0), env.timeout(2.0)])
            yield env.all_of([inner, env.timeout(3.0)])
            return env.now

        process = env.process(body(env))
        assert env.run(until=process) == 3.0


class TestSchedulingDiscipline:
    def test_zero_delay_events_run_before_later_ones(self):
        env = Environment()
        order = []

        def body(env):
            order.append("start")
            yield env.timeout(0.0)
            order.append("after-zero")
            yield env.timeout(1.0)
            order.append("after-one")

        env.process(body(env))
        t = env.timeout(0.5)
        t.callbacks.append(lambda e: order.append("half"))
        env.run()
        assert order == ["start", "after-zero", "half", "after-one"]

    def test_failed_event_not_consumed_raises_at_step(self):
        env = Environment()
        env.event().fail(ValueError("nobody listening"))
        with pytest.raises(ValueError):
            env.run()


class TestAnyOfFailureDefusing:
    def test_failing_child_is_defused_and_fails_the_condition(self):
        env = Environment()
        doomed = env.event()

        def bomber(env):
            yield env.timeout(1.0)
            doomed.fail(RuntimeError("child blew up"))

        outcome = []

        def waiter(env):
            try:
                yield env.any_of([doomed, env.timeout(5.0)])
            except RuntimeError as error:
                outcome.append((env.now, str(error)))

        env.process(bomber(env))
        env.process(waiter(env))
        env.run()
        assert outcome == [(1.0, "child blew up")]
        # The losing child was defused when the condition consumed its
        # failure, so the kernel did not re-raise it at dispatch.
        assert doomed.defused

    def test_all_of_failing_child_defuses_too(self):
        env = Environment()
        doomed = env.event()
        caught = []

        def waiter(env):
            try:
                yield env.all_of([env.timeout(1.0), doomed])
            except KeyError:
                caught.append(env.now)

        env.process(waiter(env))
        doomed.fail(KeyError("lost"))
        env.run()
        assert caught == [0.0]
        assert doomed.defused


class TestAllOfZeroEvents:
    def test_fires_immediately_at_current_sim_time(self):
        env = Environment()
        seen = []

        def body(env):
            yield env.timeout(3.5)
            result = yield env.all_of([])
            seen.append((env.now, result))

        env.process(body(env))
        env.run()
        # The empty join fires on the same tick it was created, with no
        # value — no time may pass.
        assert seen == [(3.5, None)]

    def test_empty_all_of_is_already_triggered(self):
        env = Environment()
        join = env.all_of([])
        assert join.triggered and not join.processed
        env.run()
        assert join.processed and join.value is None


class TestSameInstantTimeoutFIFO:
    @pytest.mark.parametrize("delay", [0.0, 1.0])
    def test_fifo_across_100_seeded_shuffles(self, delay):
        # Same-instant timeouts must dispatch in creation order no
        # matter what order the creating code enumerates them in —
        # delay 0.0 exercises the immediate lane, 1.0 the heap.
        import random

        for seed in range(100):
            env = Environment()
            tags = list(range(20))
            random.Random(seed).shuffle(tags)
            order = []
            for tag in tags:
                t = env.timeout(delay)
                t.callbacks.append(lambda e, tag=tag: order.append(tag))
            env.run()
            assert order == tags, f"seed {seed} broke FIFO order"

    def test_fifo_across_100_seeded_shuffles_mixed_lanes(self):
        # Both lanes meeting at one instant, plus events created
        # mid-instant: a driver timeout at t=1 (heap, earliest seq) fires
        # zero-delay timeouts (immediate lane, created AT t=1) while the
        # heap still holds the shuffled t=1 timeouts created up front.
        # The dispatch order must be: driver, then the heap entries in
        # creation order (they were scheduled before reaching t=1), then
        # the zero-delay entries in creation order (invariants 1-2 in
        # repro.sim.environment).
        import random

        for seed in range(100):
            rng = random.Random(seed)
            env = Environment()
            order = []

            heap_tags = [f"h{i}" for i in range(10)]
            imm_tags = [f"z{i}" for i in range(10)]
            shuffled_imm = imm_tags[:]
            rng.shuffle(shuffled_imm)

            def fire_immediates(event, tags=tuple(shuffled_imm), env=env):
                order.append("driver")
                for tag in tags:
                    t = env.timeout(0.0)
                    t.callbacks.append(lambda e, tag=tag: order.append(tag))

            driver = env.timeout(1.0)
            driver.callbacks.append(fire_immediates)
            shuffled_heap = heap_tags[:]
            rng.shuffle(shuffled_heap)
            for tag in shuffled_heap:
                t = env.timeout(1.0)
                t.callbacks.append(lambda e, tag=tag: order.append(tag))
            env.run()
            assert order == ["driver"] + shuffled_heap + shuffled_imm, (
                f"seed {seed} broke cohort order"
            )

    def test_merge_path_after_external_step_interleave(self):
        # A manual step() can leave the immediate lane non-empty while
        # the heap still holds entries at `now`. The heap entry (scheduled
        # first) must dispatch first, in run() as in step().
        env = Environment()
        order = []
        a = env.timeout(1.0)
        a.callbacks.append(
            lambda e: env.timeout(0.0).callbacks.append(lambda e2: order.append("C"))
        )
        b = env.timeout(1.0)
        b.callbacks.append(lambda e: order.append("B"))
        env.step()  # dispatches A at t=1; C now sits in the immediate lane
        assert env.peek() == 1.0
        env.run()
        assert order == ["B", "C"]


class TestMidCohortControlFlow:
    """``close()``, an exception, or an ``until`` stop partway through
    the events of one instant (a "cohort")."""

    def _tagged_timeout(self, env, order, tag):
        t = env.timeout(0.0)
        t.callbacks.append(lambda e: order.append(tag))
        return t

    def test_close_mid_cohort_drops_remainder(self):
        env = Environment()
        order = []
        self._tagged_timeout(env, order, 1)
        closer = env.timeout(0.0)
        closer.callbacks.append(lambda e: env.close())
        self._tagged_timeout(env, order, 3)
        self._tagged_timeout(env, order, 4)
        env.run()
        assert order == [1]
        assert env.closed

    def test_exception_mid_cohort_requeues_remainder(self):
        env = Environment()
        order = []
        self._tagged_timeout(env, order, 1)
        boom = env.event()
        boom.fail(RuntimeError("mid-cohort"))
        self._tagged_timeout(env, order, 3)
        self._tagged_timeout(env, order, 4)
        with pytest.raises(RuntimeError, match="mid-cohort"):
            env.run()
        # The undispatched remainder survived the exception and fires,
        # in order, on the next run.
        assert order == [1]
        env.run()
        assert order == [1, 3, 4]

    def test_until_event_mid_cohort_requeues_remainder(self):
        env = Environment()
        order = []
        self._tagged_timeout(env, order, 1)
        target = env.event()
        target.succeed("stop-here")
        self._tagged_timeout(env, order, 3)
        assert env.run(until=target) == "stop-here"
        assert order == [1]
        env.run()
        assert order == [1, 3]


class TestClosedEnvironment:
    def test_timeout_on_closed_env_raises(self):
        env = Environment()
        env.close()
        # Both the heap path (positive delay) and the immediate lane
        # (zero delay) bypass Environment.schedule, so each replicates
        # the closed guard; this is the double-schedule regression
        # fix's contract.
        with pytest.raises(SimulationError):
            env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.timeout(0.0)

    def test_succeed_fail_schedule_process_on_closed_env_raise(self):
        env = Environment()
        pending = env.event()
        env.close()
        with pytest.raises(SimulationError):
            pending.succeed()
        with pytest.raises(SimulationError):
            env.event().fail(RuntimeError("late"))
        with pytest.raises(SimulationError):
            env.schedule(env.event())

        def body(env):
            yield env.timeout(1.0)

        with pytest.raises(SimulationError):
            env.process(body(env))

    def test_close_drops_pending_events(self):
        env = Environment()
        fired = []
        t = env.timeout(5.0)
        t.callbacks.append(lambda e: fired.append(e))
        env.run(until=2.0)
        env.close()
        env.run()  # schedule is empty; nothing fires
        assert fired == []
        assert env.closed
        assert env.peek() == float("inf")

    def test_timeout_is_born_triggered_so_succeed_is_double_schedule(self):
        # A live Timeout enters the schedule in __init__; a second
        # trigger would enqueue it twice. succeed() must refuse.
        env = Environment()
        t = env.timeout(1.0)
        with pytest.raises(SimulationError):
            t.succeed()
        env.run()
        assert t.processed
