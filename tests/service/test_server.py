"""HTTP lifecycle tests against the live in-process service.

Every test here talks to the real asyncio server over a real socket;
only the simulation itself is replaced by an injectable execute hook.
"""

import asyncio
import threading

import pytest

from repro.service.server import Service

from tests.service.conftest import (
    LiveService,
    fake_campaign_execute,
    micro_scenario_spec,
    micro_sweep_spec,
)
from tests.sweep.conftest import fake_execute


class GatedExecute:
    """Execute hook that blocks (per call index) until released."""

    def __init__(self, gate_calls=(0,)):
        self.gate_calls = set(gate_calls)
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, key):
        call = self.calls
        self.calls += 1
        if call in self.gate_calls:
            self.started.set()
            assert self.release.wait(timeout=30.0), "gate never released"
        return fake_execute(key)


class TestBasics:
    def test_health_and_index(self, live_service):
        assert live_service.get("/healthz") == (200, {"ok": True})
        status, index = live_service.get("/")
        assert status == 200
        assert index["service"] == "repro"

    def test_unknown_route_is_404(self, live_service):
        status, body = live_service.get("/bogus")
        assert status == 404
        assert "no route" in body["error"]

    def test_wrong_method_is_405(self, live_service):
        status, body = live_service.request("POST", "/healthz")
        assert status == 404 or status == 405


class TestSubmitAndResult:
    def test_scenario_runs_to_done_with_report(self, live_service):
        status, job = live_service.post("/jobs", micro_scenario_spec())
        assert status == 201
        assert job["created"] is True
        final, events = live_service.wait_for(job["id"])
        assert final["state"] == "done"
        assert final["progress"] == {"total": 1, "completed": 1}
        status, body = live_service.get(f"/jobs/{job['id']}/result")
        assert status == 200
        result = body["result"]
        assert result["kind"] == "scenario"
        assert result["sweep"]["executed"] == 1
        # The per-point report is document_report output — same shape
        # as `repro report --json`.
        report = result["points"][0]["report"]
        assert "scenario" in report and "response_summary" in report

    def test_events_stream_in_order(self, live_service):
        status, job = live_service.post("/jobs", micro_sweep_spec((4, 5)))
        _final, events = live_service.wait_for(job["id"])
        kinds = [(e["event"], e.get("state") or e.get("kind")) for e in events]
        assert kinds[0] == ("state", "queued")
        assert kinds[1] == ("state", "running")
        assert ("point", "executed") in kinds
        assert kinds[-1] == ("state", "done")
        points = [e for e in events if e["event"] == "point"]
        assert [p["completed"] for p in points] == [1, 2]

    def test_malformed_spec_is_400_with_message(self, live_service):
        status, body = live_service.post("/jobs", {"kind": "bogus"})
        assert status == 400
        assert "kind" in body["error"]
        assert "Traceback" not in body["error"]

    def test_invalid_json_body_is_400(self, live_service):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            live_service.base + "/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10.0)
        with info.value as error:
            assert error.code == 400

    def test_result_before_done_is_409(self, tmp_path):
        gated = GatedExecute()
        service = LiveService(tmp_path / "data", execute=gated)
        try:
            _status, job = service.post("/jobs", micro_scenario_spec())
            assert gated.started.wait(timeout=10.0)
            status, body = service.get(f"/jobs/{job['id']}/result")
            assert status == 409
            assert "not done" in body["error"]
        finally:
            gated.release.set()
            service.stop()

    def test_unknown_job_is_404_everywhere(self, live_service):
        for method, path in [
            ("GET", "/jobs/feedbeef"),
            ("GET", "/jobs/feedbeef/result"),
            ("GET", "/jobs/feedbeef/events"),
            ("POST", "/jobs/feedbeef/cancel"),
        ]:
            status, body = live_service.request(method, path)
            assert status == 404, (method, path)
            assert "no such job" in body["error"]


class TestDedup:
    def test_identical_spec_returns_the_same_job(self, live_service):
        status, first = live_service.post("/jobs", micro_scenario_spec())
        assert status == 201
        live_service.wait_for(first["id"])
        status, second = live_service.post("/jobs", micro_scenario_spec())
        assert status == 200
        assert second["id"] == first["id"]
        assert second["created"] is False
        assert second["state"] == "done"

    def test_warm_resubmission_after_restart_is_served_inline(self, tmp_path):
        """Same cache, fresh job store: the job completes at submit time."""
        spec = micro_scenario_spec()
        first = LiveService(
            tmp_path / "data1", cache_dir=tmp_path / "cache", execute=fake_execute
        )
        try:
            _status, job = first.post("/jobs", spec)
            first.wait_for(job["id"])
        finally:
            first.stop()

        def no_workers(key):
            raise AssertionError("warm resubmission must not execute anything")

        second = LiveService(
            tmp_path / "data2", cache_dir=tmp_path / "cache", execute=no_workers
        )
        try:
            status, job = second.post("/jobs", spec)
            assert status == 201  # new job record in this store...
            assert job["state"] == "done"  # ...but already done: all cache
            _status, body = second.get(f"/jobs/{job['id']}/result")
            assert body["result"]["sweep"]["cache_hits"] == 1
            assert body["result"]["sweep"]["executed"] == 0
        finally:
            second.stop()

    def test_failed_job_requeues_on_resubmission(self, tmp_path):
        boom = {"count": 0}

        def flaky(key):
            boom["count"] += 1
            if boom["count"] == 1:
                raise RuntimeError("transient outage")
            return fake_execute(key)

        service = LiveService(tmp_path / "data", execute=flaky)
        try:
            _status, job = service.post("/jobs", micro_scenario_spec())
            final, _events = service.wait_for(job["id"])
            assert final["state"] == "failed"
            assert "transient outage" in final["error"]
            status, again = service.post("/jobs", micro_scenario_spec())
            assert status == 200
            assert again["id"] == job["id"]
            final, _events = service.wait_for(job["id"])
            assert final["state"] == "done"
            assert final["error"] is None
        finally:
            service.stop()

    def test_following_a_resubmitted_job_waits_for_the_new_attempt(self, tmp_path):
        # The log keeps the first attempt's `failed`; a follower must not
        # stop there while the second attempt runs.
        second_started = threading.Event()
        release = threading.Event()
        calls = {"count": 0}

        def fail_then_gate(key):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient outage")
            second_started.set()
            assert release.wait(timeout=30.0), "gate never released"
            return fake_execute(key)

        service = LiveService(tmp_path / "data", execute=fail_then_gate)
        releaser = threading.Timer(0.5, release.set)
        try:
            _status, job = service.post("/jobs", micro_scenario_spec())
            final, _events = service.wait_for(job["id"])
            assert final["state"] == "failed"
            service.post("/jobs", micro_scenario_spec())
            assert second_started.wait(timeout=10.0)
            # The follower connects while the second attempt is gated.
            releaser.start()
            final, events = service.wait_for(job["id"])
            states = [e["state"] for e in events if e.get("event") == "state"]
            assert states == ["queued", "running", "failed", "queued", "running", "done"]
            assert final["state"] == "done"
        finally:
            releaser.cancel()
            release.set()
            service.stop()


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        gated = GatedExecute()
        service = LiveService(tmp_path / "data", execute=gated, max_jobs=1)
        try:
            _status, running = service.post("/jobs", micro_scenario_spec(4))
            assert gated.started.wait(timeout=10.0)
            _status, queued = service.post("/jobs", micro_scenario_spec(5))
            assert queued["state"] == "queued"
            status, cancelled = service.post(f"/jobs/{queued['id']}/cancel")
            assert status == 200
            assert cancelled["state"] == "cancelled"  # immediate: never ran
            gated.release.set()
            final, _events = service.wait_for(running["id"])
            assert final["state"] == "done"  # the running job is unaffected
        finally:
            gated.release.set()
            service.stop()

    def test_cancel_running_job_stops_at_the_point_boundary(self, tmp_path):
        gated = GatedExecute(gate_calls=(0,))
        service = LiveService(tmp_path / "data", execute=gated)
        try:
            _status, job = service.post("/jobs", micro_sweep_spec((4, 5, 6)))
            assert gated.started.wait(timeout=10.0)
            status, body = service.post(f"/jobs/{job['id']}/cancel")
            assert status == 200
            assert body["cancel_requested"] is True
            gated.release.set()
            final, _events = service.wait_for(job["id"])
            assert final["state"] == "cancelled"
            assert gated.calls == 1  # points 2 and 3 never started
        finally:
            gated.release.set()
            service.stop()

    def test_cancel_terminal_job_is_409(self, live_service):
        _status, job = live_service.post("/jobs", micro_scenario_spec())
        live_service.wait_for(job["id"])
        status, body = live_service.post(f"/jobs/{job['id']}/cancel")
        assert status == 409
        assert "already done" in body["error"]


class TestEventLog:
    def test_emit_starts_no_task(self, tmp_path):
        # An event wakes its readers through an asyncio.Event, not a
        # task per event that nothing holds on to.
        async def tasks_started_by_five_emits():
            service = Service(tmp_path / "data", cache_dir=tmp_path / "cache")
            before = asyncio.all_tasks()
            for n in range(5):
                service._emit("job", {"event": "progress", "n": n})
            started = len(asyncio.all_tasks() - before)
            await service.close()
            return started

        assert asyncio.run(tasks_started_by_five_emits()) == 0


def stream_with_epoch(service, path):
    """Like LiveService.stream but also returns the stream-epoch header."""
    import json
    import urllib.request

    request = urllib.request.Request(service.base + path)
    with urllib.request.urlopen(request, timeout=30.0) as response:
        epoch = response.headers.get("X-Repro-Stream-Epoch")
        events = [json.loads(line) for line in response if line.strip()]
    return events, epoch


class TestResumableStream:
    """seq numbering + ?since/?epoch replay for reconnecting watchers."""

    def test_events_carry_monotonic_seq(self, live_service):
        _status, job = live_service.post("/jobs", micro_sweep_spec((4, 5)))
        _final, events = live_service.wait_for(job["id"])
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))

    def test_epoch_header_identifies_the_server_process(self, live_service):
        _status, job = live_service.post("/jobs", micro_scenario_spec())
        live_service.wait_for(job["id"])
        _events, epoch = stream_with_epoch(
            live_service, f"/jobs/{job['id']}/events"
        )
        assert epoch == live_service.service.epoch
        assert epoch  # non-empty opaque token

    def test_since_with_matching_epoch_skips_seen_events(self, live_service):
        _status, job = live_service.post("/jobs", micro_sweep_spec((4, 5)))
        _final, events = live_service.wait_for(job["id"])
        cut = events[1]["seq"]  # pretend we disconnected after two events
        resumed, _epoch = stream_with_epoch(
            live_service,
            f"/jobs/{job['id']}/events"
            f"?since={cut}&epoch={live_service.service.epoch}",
        )
        assert resumed == events[cut:]

    def test_stale_epoch_replays_everything(self, live_service):
        """After a restart seq numbers restart too; 'since' is meaningless."""
        _status, job = live_service.post("/jobs", micro_sweep_spec((4, 5)))
        _final, events = live_service.wait_for(job["id"])
        replayed, _epoch = stream_with_epoch(
            live_service,
            f"/jobs/{job['id']}/events?since={len(events)}&epoch=deadbeef",
        )
        assert replayed == events

    def test_since_past_the_end_of_a_done_job_resends_the_terminal(
        self, live_service
    ):
        # A watcher that saw everything but whose connection tore right
        # at the terminal event must not hang: the stream re-sends the
        # final event and closes.
        _status, job = live_service.post("/jobs", micro_scenario_spec())
        _final, events = live_service.wait_for(job["id"])
        tail, _epoch = stream_with_epoch(
            live_service,
            f"/jobs/{job['id']}/events"
            f"?since={len(events)}&epoch={live_service.service.epoch}",
        )
        assert tail == [events[-1]]
        assert tail[0]["state"] == "done"

    def test_bad_since_is_400(self, live_service):
        _status, job = live_service.post("/jobs", micro_scenario_spec())
        live_service.wait_for(job["id"])
        for bad in ("abc", "-1"):
            status, body = live_service.get(
                f"/jobs/{job['id']}/events?since={bad}"
            )
            assert status == 400
            assert "since" in body["error"]


class TestCampaignOverHttp:
    def test_campaign_job_streams_trials_and_returns_rows(self, tmp_path):
        service = LiveService(tmp_path / "data", execute=fake_campaign_execute)
        try:
            spec = {
                "kind": "campaign",
                "scale": "tiny",
                "stripe_sizes": [4, 6],
                "trials": 2,
                "seed": 11,
                "mission_hours": 3.0,
            }
            _status, job = service.post("/jobs", spec)
            final, events = service.wait_for(job["id"])
            assert final["state"] == "done"
            trials = [e for e in events if e["event"] == "trial"]
            assert [t["index"] for t in trials] == [0, 1, 2, 3]
            assert all(t["metrics"] is None for t in trials)  # fakes carry none
            _status, body = service.get(f"/jobs/{job['id']}/result")
            result = body["result"]
            assert result["kind"] == "campaign"
            assert [row["g"] for row in result["rows"]] == [4, 6]
            assert result["sweep"]["executed"] == 4
            assert [trial["index"] for trial in result["trials"]] == [0, 1, 2, 3]
            # Every trial is in the cache, which is what a resumed job
            # would read back.
            assert len(service.service.cache) == 4
        finally:
            service.stop()
