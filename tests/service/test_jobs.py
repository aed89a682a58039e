"""Tests for the persistent job store."""

import json

from repro.service.jobs import (
    DONE,
    QUEUED,
    RUNNING,
    Job,
    JobStore,
)


def make_job(job_id="abc123", seq=1, **overrides):
    fields = dict(
        id=job_id,
        kind="scenario",
        spec={"kind": "scenario", "configs": [{"stripe_size": 4}]},
        seq=seq,
    )
    fields.update(overrides)
    return Job(**fields)


class TestJobStore:
    def test_save_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        job = make_job(state=RUNNING, progress={"total": 3, "completed": 1})
        store.save(job)
        loaded = store.load(job.id)
        assert loaded == job

    def test_load_missing_returns_none(self, tmp_path):
        assert JobStore(tmp_path).load("nope") is None

    def test_load_rejects_unknown_format(self, tmp_path):
        store = JobStore(tmp_path)
        store.jobs_dir.mkdir(parents=True)
        store.job_path("old").write_text(
            json.dumps({"format": 999, "id": "old"}), encoding="utf-8"
        )
        assert store.load("old") is None

    def test_load_tolerates_corrupt_record(self, tmp_path):
        store = JobStore(tmp_path)
        store.jobs_dir.mkdir(parents=True)
        store.job_path("bad").write_text('{"truncated', encoding="utf-8")
        assert store.load("bad") is None
        assert store.list() == []

    def test_list_orders_by_sequence_and_skips_sidecars(self, tmp_path):
        store = JobStore(tmp_path)
        second = make_job("bbb", seq=2)
        first = make_job("aaa", seq=1)
        store.save(second)
        store.save(first)
        store.save_result("bbb", {"kind": "scenario"})
        assert [job.id for job in store.list()] == ["aaa", "bbb"]

    def test_next_seq_monotonic(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.next_seq() == 1
        store.save(make_job("aaa", seq=store.next_seq()))
        assert store.next_seq() == 2

    def test_results_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.load_result("abc") is None
        store.save_result("abc", {"kind": "scenario", "points": []})
        assert store.load_result("abc") == {"kind": "scenario", "points": []}

    def test_recover_requeues_interrupted_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(make_job("running1", seq=2, state=RUNNING))
        store.save(make_job("queued1", seq=1, state=QUEUED))
        store.save(make_job("done1", seq=3, state=DONE))
        runnable = store.recover()
        assert [job.id for job in runnable] == ["queued1", "running1"]
        recovered = store.load("running1")
        assert recovered.state == QUEUED
        assert recovered.resumes == 1  # persisted, so restarts accumulate
        assert store.load("done1").state == DONE

