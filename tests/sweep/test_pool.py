"""Tests for sweep execution: serial, pooled, failures, caching.

Pool-mode tests use jobs=2 and the module-level execute helpers from
``tests.sweep.conftest`` (they must pickle into worker processes).
"""

import io

import pytest

from repro.array.faults import DataLossError
from repro.sweep import (
    ResultCache,
    SweepError,
    SweepOptions,
    SweepSpec,
    result_to_dict,
    run_sweep,
)

from tests.sweep.conftest import (
    always_fail_execute,
    clear_markers,
    data_loss_execute,
    die_once_execute,
    fail_once_execute,
    fake_execute,
    fake_result,
    micro_spec_base,
)


def tiny_spec():
    return SweepSpec(axes=[("stripe_size", (4, 5))], base=micro_spec_base())


class TestSerial:
    def test_results_in_point_order(self):
        spec = tiny_spec()
        outcome = run_sweep(spec, execute=fake_execute)
        assert outcome.results == [fake_result(c) for c in spec.configs()]
        assert outcome.summary.total == 2
        assert outcome.summary.executed == 2
        assert outcome.summary.cache_hits == 0
        assert outcome.summary.failures == 0

    def test_accepts_a_plain_config_iterable(self):
        configs = tiny_spec().configs()
        outcome = run_sweep(configs, execute=fake_execute)
        assert outcome.results == [fake_result(c) for c in configs]

    def test_empty_sweep(self):
        outcome = run_sweep([], execute=fake_execute)
        assert outcome.results == []
        assert outcome.summary.total == 0

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(tiny_spec(), SweepOptions(jobs=0), execute=fake_execute)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_point_runs_once(self, jobs):
        # A point's result is a pure function of its key, so a raise is
        # the point's verdict: the second attempt that would succeed
        # here never runs.
        spec = tiny_spec()
        clear_markers(spec)
        events = []
        try:
            with pytest.raises(SweepError, match="injected worker failure"):
                run_sweep(
                    spec,
                    SweepOptions(jobs=jobs, on_event=events.append),
                    execute=fail_once_execute,
                )
        finally:
            clear_markers(spec)
        assert sorted(e.kind for e in events) == ["failed", "failed"]

    def test_failures_carry_the_scenario_key(self):
        spec = tiny_spec()
        with pytest.raises(SweepError) as exc_info:
            run_sweep(spec, execute=always_fail_execute)
        assert exc_info.value.scenario_key == spec.points()[0].config.to_key()
        assert (
            exc_info.value.__cause__.scenario_key
            == spec.points()[0].config.to_key()
        )


class TestDataLoss:
    """DataLossError is a deterministic result, never a retried flake."""

    def test_data_loss_is_not_retried(self):
        events = []
        with pytest.raises(SweepError, match=r"\+1 more failed points"):
            run_sweep(
                tiny_spec(),
                SweepOptions(on_event=events.append),
                execute=data_loss_execute,
            )
        assert [e.kind for e in events] == ["failed", "failed"]

    def test_data_loss_surfaces_with_key(self):
        spec = tiny_spec()
        with pytest.raises(SweepError) as exc_info:
            run_sweep(spec, execute=data_loss_execute)
        cause = exc_info.value.__cause__
        assert isinstance(cause, DataLossError)
        assert cause.scenario_key == spec.points()[0].config.to_key()
        assert exc_info.value.scenario_key == cause.scenario_key

    def test_pool_mode_fails_fast_on_data_loss(self):
        events = []
        with pytest.raises(SweepError):
            run_sweep(
                tiny_spec(),
                SweepOptions(jobs=2, on_event=events.append),
                execute=data_loss_execute,
            )
        assert sorted(e.kind for e in events) == ["failed", "failed"]


class TestCacheFlow:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, SweepOptions(cache=tmp_path), execute=fake_execute)
        assert (first.summary.executed, first.summary.cache_hits) == (2, 0)
        second = run_sweep(spec, SweepOptions(cache=tmp_path), execute=fake_execute)
        assert (second.summary.executed, second.summary.cache_hits) == (0, 2)
        assert second.results == first.results

    def test_cache_accepts_a_ready_instance(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(tiny_spec(), SweepOptions(cache=cache), execute=fake_execute)
        assert len(cache) == 2

    def test_partial_hits_run_only_the_misses(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        point = spec.points()[0]
        cache.put_dict(point.config, fake_execute(point.config.to_key()))
        outcome = run_sweep(spec, SweepOptions(cache=cache), execute=fake_execute)
        assert (outcome.summary.executed, outcome.summary.cache_hits) == (1, 1)
        assert outcome.results == [fake_result(c) for c in spec.configs()]

    def test_no_cache_never_touches_disk(self, tmp_path):
        run_sweep(tiny_spec(), SweepOptions(cache=None), execute=fake_execute)
        assert list(tmp_path.iterdir()) == []


class TestPool:
    def test_pool_matches_serial(self, tmp_path):
        spec = tiny_spec()
        serial = run_sweep(spec, SweepOptions(jobs=1), execute=fake_execute)
        pooled = run_sweep(spec, SweepOptions(jobs=2), execute=fake_execute)
        assert pooled.results == serial.results
        assert pooled.summary.executed == 2

    def test_pool_populates_cache_for_serial_rerun(self, tmp_path):
        spec = tiny_spec()
        pooled = run_sweep(
            spec, SweepOptions(jobs=2, cache=tmp_path), execute=fake_execute
        )
        rerun = run_sweep(
            spec, SweepOptions(jobs=1, cache=tmp_path), execute=fake_execute
        )
        assert (rerun.summary.executed, rerun.summary.cache_hits) == (0, 2)
        assert rerun.results == pooled.results

    def test_worker_failure_is_retried(self):
        # A worker process that dies says nothing about its point: the
        # pool is replaced and the point requeued, the one retry a
        # sweep makes.
        spec = tiny_spec()
        clear_markers(spec)
        try:
            outcome = run_sweep(
                spec, SweepOptions(jobs=2), execute=die_once_execute
            )
        finally:
            clear_markers(spec)
        assert outcome.results == [fake_result(c) for c in spec.configs()]
        assert outcome.summary.retries >= 1
        assert outcome.summary.failures == 0

    def test_falls_back_to_serial_when_pool_unavailable(self, monkeypatch):
        import repro.sweep.pool as pool_module

        def broken_pool(*args, **kwargs):
            raise OSError("no process support here")

        monkeypatch.setattr(
            pool_module.concurrent.futures, "ProcessPoolExecutor", broken_pool
        )
        stream = io.StringIO()
        spec = tiny_spec()
        outcome = run_sweep(
            spec,
            SweepOptions(jobs=4, progress=True, stream=stream),
            execute=fake_execute,
        )
        assert outcome.results == [fake_result(c) for c in spec.configs()]
        assert "process pool unavailable" in stream.getvalue()


class TestRealSimulation:
    """End-to-end: the actual simulation, at micro scale."""

    def test_pool_serial_and_cache_agree_exactly(self, tmp_path):
        spec = SweepSpec(
            axes=[("mode", ("fault-free", "degraded"))],
            base=dict(micro_spec_base(), stripe_size=4),
        )
        serial = run_sweep(spec, SweepOptions(jobs=1))
        pooled = run_sweep(spec, SweepOptions(jobs=2, cache=tmp_path))
        cached = run_sweep(spec, SweepOptions(jobs=1, cache=tmp_path))
        assert (cached.summary.executed, cached.summary.cache_hits) == (0, 2)
        serial_docs = [result_to_dict(r) for r in serial.results]
        assert [result_to_dict(r) for r in pooled.results] == serial_docs
        assert [result_to_dict(r) for r in cached.results] == serial_docs
