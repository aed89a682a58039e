"""Tests for the embeddable-engine surface of run_sweep.

``SweepOptions.on_event`` must narrate every observable step (with the
serialized result attached to completed points, so a consumer can
summarize points as they land), and ``SweepOptions.cancel`` must stop
the sweep at the next point boundary with :class:`SweepCancelled`.
"""

import threading

import pytest

from repro.sweep import (
    SweepCancelled,
    SweepError,
    SweepOptions,
    SweepSpec,
    result_from_dict,
    run_sweep,
)

from tests.sweep.conftest import (
    always_fail_execute,
    fake_execute,
    fake_result,
    micro_spec_base,
)


def tiny_spec():
    return SweepSpec(axes=[("stripe_size", (4, 5, 6))], base=micro_spec_base())


class TestEvents:
    def test_executed_events_carry_results_in_order(self):
        spec = tiny_spec()
        events = []
        run_sweep(
            spec, SweepOptions(on_event=events.append), execute=fake_execute
        )
        assert [e.kind for e in events] == ["executed"] * 3
        assert [e.index for e in events] == [0, 1, 2]
        assert [e.completed for e in events] == [1, 2, 3]
        assert all(e.total == 3 for e in events)
        for event, config in zip(events, spec.configs()):
            assert event.config_key == config.to_key()
            assert result_from_dict(event.result) == fake_result(config)

    def test_cache_hits_emit_the_cached_result(self, tmp_path):
        spec = tiny_spec()
        options = SweepOptions(cache=tmp_path)
        run_sweep(spec, options, execute=fake_execute)  # warm the cache
        events = []
        run_sweep(
            spec,
            SweepOptions(cache=tmp_path, on_event=events.append),
            execute=always_fail_execute,  # a cache miss would blow up
        )
        assert [e.kind for e in events] == ["cache-hit"] * 3
        for event, config in zip(events, spec.configs()):
            assert result_from_dict(event.result) == fake_result(config)

    def test_failures_emit_failed_once(self):
        events = []
        with pytest.raises(SweepError):
            run_sweep(
                tiny_spec(),
                SweepOptions(on_event=events.append),
                execute=always_fail_execute,
            )
        per_point = [e.kind for e in events if e.index == 0]
        assert per_point == ["failed"]
        failed = [e for e in events if e.kind == "failed"]
        assert len(failed) == 3
        assert all("never succeeds" in e.message for e in failed)
        assert failed[-1].completed == 3  # failures count as progress

    def test_events_are_optional(self):
        outcome = run_sweep(tiny_spec(), SweepOptions(), execute=fake_execute)
        assert outcome.summary.executed == 3


class TestCancellation:
    def test_preset_token_cancels_before_any_point(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(SweepCancelled):
            run_sweep(
                tiny_spec(), SweepOptions(cancel=cancel), execute=fake_execute
            )

    def test_cancel_fires_at_the_next_point_boundary(self, tmp_path):
        spec = tiny_spec()
        cancel = threading.Event()
        completed = []

        def on_event(event):
            completed.append(event.index)
            cancel.set()  # cancel as soon as the first point lands

        with pytest.raises(SweepCancelled):
            run_sweep(
                spec,
                SweepOptions(cache=tmp_path, cancel=cancel, on_event=on_event),
                execute=fake_execute,
            )
        assert completed == [0]
        # The completed point made it into the cache: a resumed run
        # starts from there instead of re-simulating.
        events = []
        run_sweep(
            spec,
            SweepOptions(cache=tmp_path, on_event=events.append),
            execute=fake_execute,
        )
        assert [e.kind for e in events] == ["cache-hit", "executed", "executed"]

    def test_preset_token_cancels_pool_mode(self):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(SweepCancelled):
            run_sweep(
                tiny_spec(),
                SweepOptions(jobs=2, cancel=cancel),
                execute=fake_execute,
            )
