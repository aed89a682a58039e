"""End-to-end: the real service, a real kill, a real resume.

Drives ``python -m repro serve`` as a subprocess with real (micro
scale) simulations:

1. submit a Monte Carlo campaign job, let at least one trial finish,
   then SIGKILL the service;
2. restart it over the same data directory and result cache: the job
   must resume itself, read every trial finished before the kill back
   from the cache (not rerun it), and complete;
3. the resumed result must be identical — same rows, same per-trial
   summaries — to an uninterrupted run of the same spec;
4. an identical resubmission against a warm cache must be served
   entirely from cache, with no trial executed.

The result cache is the only state that carries finished trials across
the kill, so the killed run and the reference run use separate caches.
"""

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.sweep import ResultCache

REPO = pathlib.Path(__file__).resolve().parents[2]

CAMPAIGN_SPEC = {
    "kind": "campaign",
    "scale": "tiny",
    "stripe_sizes": [4, 6],
    "trials": 2,
    "seed": 11,
    "mission_hours": 3.0,
}

DEADLINE_S = 120.0


class ServeProcess:
    def __init__(self, data_dir, cache_dir, port_file, port=0):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(port),
                "--data-dir", str(data_dir),
                "--cache-dir", str(cache_dir),
                "--port-file", str(port_file),
            ],
            cwd=str(REPO),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        self.base = f"http://127.0.0.1:{self._wait_for_port(port_file)}"

    def _wait_for_port(self, port_file):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                out = self.process.stdout.read().decode("utf-8", "replace")
                raise AssertionError(f"serve exited early:\n{out}")
            try:
                return json.loads(port_file.read_text(encoding="utf-8"))["port"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.05)
        raise AssertionError("serve never wrote its port file")

    def request(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method=method,
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read())

    def wait_until(self, path, predicate, deadline_s=DEADLINE_S):
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            _status, body = self.request("GET", path)
            if predicate(body):
                return body
            time.sleep(0.2)
        raise AssertionError(f"timed out waiting on {path}; last: {body}")

    def kill(self):
        self.process.kill()
        self.process.wait(timeout=10.0)

    def terminate(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)


def terminal(body):
    return body["state"] in ("done", "failed", "cancelled")


@pytest.mark.slow
def test_kill_resume_identity_and_warm_cache(tmp_path):
    data_dir = tmp_path / "data"
    resume_cache_dir = tmp_path / "resume-cache"
    ref_dir = tmp_path / "data-reference"
    warm_dir = tmp_path / "data-warm"
    cache_dir = tmp_path / "cache"
    total = len(CAMPAIGN_SPEC["stripe_sizes"]) * CAMPAIGN_SPEC["trials"]

    # -- 1: start, submit, kill mid-campaign ---------------------------
    serve = ServeProcess(data_dir, resume_cache_dir, tmp_path / "port1.json")
    try:
        status, job = serve.request("POST", "/jobs", CAMPAIGN_SPEC)
        assert status == 201 and job["state"] in ("queued", "running")
        job_id = job["id"]
        serve.wait_until(
            f"/jobs/{job_id}",
            lambda body: body["progress"].get("completed", 0) >= 1 or terminal(body),
        )
    finally:
        serve.kill()  # SIGKILL: no shutdown handler runs

    finished_before_kill = len(ResultCache(resume_cache_dir))
    assert 1 <= finished_before_kill <= total

    # -- 2: restart over the same store; the job resumes itself --------
    serve = ServeProcess(data_dir, resume_cache_dir, tmp_path / "port2.json")
    try:
        resumed_job = serve.wait_until(f"/jobs/{job_id}", terminal)
        assert resumed_job["state"] == "done"
        assert resumed_job["resumes"] >= 1
        _status, body = serve.request("GET", f"/jobs/{job_id}/result")
        resumed = body["result"]
    finally:
        serve.terminate()
    assert resumed["sweep"]["cache_hits"] == finished_before_kill
    assert resumed["sweep"]["executed"] == total - finished_before_kill

    # -- 3: uninterrupted reference run of the same spec ---------------
    serve = ServeProcess(ref_dir, cache_dir, tmp_path / "port3.json")
    try:
        _status, ref_job = serve.request("POST", "/jobs", CAMPAIGN_SPEC)
        assert ref_job["id"] == job_id  # same spec, same content address
        serve.wait_until(f"/jobs/{job_id}", lambda b: b["state"] == "done")
        _status, body = serve.request("GET", f"/jobs/{job_id}/result")
        reference = body["result"]
    finally:
        serve.terminate()

    assert resumed["rows"] == reference["rows"]
    assert resumed["trials"] == reference["trials"]

    # -- 4: identical resubmission against the warm cache --------------
    serve = ServeProcess(warm_dir, cache_dir, tmp_path / "port4.json")
    try:
        status, warm_job = serve.request("POST", "/jobs", CAMPAIGN_SPEC)
        # All trials are cached: the job is already done in the submit
        # response — no worker ran, nothing was queued.
        assert warm_job["state"] == "done"
        _status, body = serve.request("GET", f"/jobs/{job_id}/result")
        warm = body["result"]
    finally:
        serve.terminate()
    assert warm["sweep"]["executed"] == 0
    assert warm["sweep"]["cache_hits"] == total
    assert warm["rows"] == reference["rows"]


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.slow
def test_watch_reconnects_across_a_server_restart(tmp_path):
    """``repro job watch`` must ride out a killed-and-restarted server.

    The watcher is the real CLI in a subprocess. Mid-campaign the
    server is SIGKILLed; the watcher's stream tears, its reconnect
    attempts get connection-refused, and once the server restarts (same
    port, same data dir) the resumed job streams to ``done`` — the
    watcher exits 0 having printed a terminal event, with reconnect
    notices on stderr.
    """
    data_dir = tmp_path / "data"
    cache_dir = tmp_path / "cache"
    port = free_port()

    serve = ServeProcess(data_dir, cache_dir, tmp_path / "port1.json", port=port)
    watcher = None
    try:
        status, job = serve.request("POST", "/jobs", CAMPAIGN_SPEC)
        assert status == 201
        job_id = job["id"]
        watcher = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "job",
                "--server", f"http://127.0.0.1:{port}",
                "watch", job_id,
                "--retries", "40",
                "--backoff", "0.2",
            ],
            cwd=str(REPO),
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # Let at least one trial land so the watcher has streamed real
        # progress before the crash.
        serve.wait_until(
            f"/jobs/{job_id}",
            lambda body: body["progress"].get("completed", 0) >= 1
            or terminal(body),
        )
        serve.kill()  # SIGKILL: the watcher's stream tears mid-flight

        # A gap with no server at all: the watcher must retry through
        # connection-refused, not just a torn stream.
        time.sleep(1.0)
        serve = ServeProcess(
            data_dir, cache_dir, tmp_path / "port2.json", port=port
        )
        out, err = watcher.communicate(timeout=DEADLINE_S)
    finally:
        if watcher is not None and watcher.poll() is None:
            watcher.kill()
            watcher.communicate(timeout=10.0)
        serve.terminate()

    err_text = err.decode("utf-8", "replace")
    assert watcher.returncode == 0, f"watch failed:\n{err_text}"
    assert "reconnecting from seq" in err_text
    events = [
        json.loads(line)
        for line in out.decode("utf-8").splitlines()
        if line.strip()
    ]
    assert events, "watcher printed no events"
    finals = [e for e in events if e.get("event") == "state"]
    assert finals[-1]["state"] == "done"
    # Both server processes contributed events: the stream carries the
    # pre-kill epoch and the post-restart epoch.
    assert any(e.get("event") in ("trial", "point") for e in events)
    seqs = [e["seq"] for e in events]
    assert seqs.count(1) >= 2, "no replay from the restarted process"
