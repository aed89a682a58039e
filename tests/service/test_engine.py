"""Engine-level tests: resume-from-cache identity and metric condensing.

The acceptance property pinned here: a campaign interrupted mid-run
and resumed (fresh process, same store, same result cache) produces a
result document identical — same rows, same per-trial summaries — to
an uninterrupted run of the same spec.
"""

import threading

import pytest

from repro.experiments.campaign import rows_from_summaries, trial_summary
from repro.service.engine import (
    EngineOptions,
    JobCancelled,
    condense_metrics,
    execute_job,
)
from repro.service.jobs import RUNNING, Job, JobStore
from repro.service.spec import parse_spec
from repro.sweep import ResultCache, SweepError

from tests.service.conftest import fake_campaign_execute, fake_campaign_result

CAMPAIGN_SPEC = {
    "kind": "campaign",
    "scale": "tiny",
    "stripe_sizes": [4, 6],
    "trials": 2,
    "seed": 11,
    "mission_hours": 3.0,
}


def make_campaign_job():
    spec = parse_spec(CAMPAIGN_SPEC)
    return Job(id=spec.job_id(), kind="campaign", spec=spec.document, seq=1)


class CrashAfter:
    """Execute hook that fails every trial after the first N."""

    def __init__(self, successes):
        self.successes = successes
        self.calls = 0

    def __call__(self, key):
        if self.calls >= self.successes:
            raise RuntimeError("simulated kill")
        self.calls += 1
        return fake_campaign_execute(key)


class TestCampaignResume:
    def test_interrupted_plus_resumed_equals_uninterrupted(self, tmp_path):
        # Uninterrupted reference run.
        ref_store = JobStore(tmp_path / "ref")
        ref_job = make_campaign_job()
        reference = execute_job(
            ref_job, ref_store, EngineOptions(execute=fake_campaign_execute)
        )

        # Interrupted run: only 2 of 4 trials finish...
        cache = ResultCache(tmp_path / "cache")
        store = JobStore(tmp_path / "real")
        job = make_campaign_job()
        job.state = RUNNING
        store.save(job)
        with pytest.raises(SweepError, match="simulated kill"):
            execute_job(
                job, store, EngineOptions(cache=cache, execute=CrashAfter(2))
            )
        assert len(cache) == 2
        # ...the job was left RUNNING on disk; restart recovery requeues
        # it, and the finished trials come back from the cache.
        recovered = JobStore(tmp_path / "real").recover()
        assert [j.id for j in recovered] == [job.id]
        resumed_job = recovered[0]
        assert resumed_job.resumes == 1
        resumed = execute_job(
            resumed_job, store,
            EngineOptions(cache=cache, execute=fake_campaign_execute),
            progress=lambda event: None,
        )

        assert resumed["rows"] == reference["rows"]
        assert resumed["trials"] == reference["trials"]
        assert resumed["sweep"]["cache_hits"] == 2
        assert resumed["sweep"]["executed"] == 2  # only the missing trials ran

    def test_rows_match_the_cli_aggregation_path(self, tmp_path):
        store = JobStore(tmp_path)
        job = make_campaign_job()
        document = execute_job(
            job, store, EngineOptions(execute=fake_campaign_execute)
        )
        spec = parse_spec(CAMPAIGN_SPEC)
        summaries = [
            trial_summary(fake_campaign_result(config))
            for config in spec.configs
        ]
        assert document["rows"] == rows_from_summaries(
            summaries, trials=2, mission_hours=3.0
        )

    def test_result_document_is_persisted(self, tmp_path):
        store = JobStore(tmp_path)
        job = make_campaign_job()
        document = execute_job(
            job, store, EngineOptions(execute=fake_campaign_execute)
        )
        assert store.load_result(job.id) == document

    def test_cancel_token_raises_job_cancelled(self, tmp_path):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(JobCancelled):
            execute_job(
                make_campaign_job(), JobStore(tmp_path),
                EngineOptions(execute=fake_campaign_execute), cancel=cancel,
            )


class TestCondenseMetrics:
    def test_none_passthrough(self):
        assert condense_metrics(None) is None
        assert condense_metrics({}) is None

    def test_keeps_counters_and_quantiles_only(self):
        condensed = condense_metrics(
            {
                "window_ms": 3000.0,
                "counters": {"requests-completed": 10},
                "latency_ms": {
                    "user-read": {
                        "count": 10, "mean": 5.0, "min": 1.0, "max": 9.0,
                        "p50": 4.0, "p90": 8.0, "p99": 9.0,
                        "bounds": [1.0], "counts": [0, 10],
                    },
                },
                "disks": [{"disk": 0}],
            }
        )
        assert condensed == {
            "window_ms": 3000.0,
            "counters": {"requests-completed": 10},
            "latency_ms": {
                "user-read": {
                    "count": 10, "mean": 5.0,
                    "p50": 4.0, "p90": 8.0, "p99": 9.0,
                },
            },
        }
