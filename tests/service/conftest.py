"""Shared helpers for job-service tests.

``live_service`` boots the real asyncio HTTP server in a background
thread (its own event loop, ephemeral port) with an injectable execute
hook replacing the simulation, so tests drive the full submit → run →
stream → result path over real sockets in milliseconds.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import pathlib
import threading
import urllib.error
import urllib.request

import pytest

from repro.experiments.runner import ScenarioConfig
from repro.service.server import Service
from repro.sweep import result_to_dict

from tests.sweep.conftest import MICRO, fake_result, micro_spec_base


def micro_scenario_spec(stripe_size=4, **overrides):
    """A scenario job spec for one MICRO config."""
    config = ScenarioConfig(
        **micro_spec_base(stripe_size=stripe_size, **overrides)
    )
    return {"kind": "scenario", "config": config.to_key()}


def micro_sweep_spec(stripe_sizes=(4, 5)):
    base = micro_spec_base()
    base["scale"] = dataclasses.asdict(MICRO)
    return {
        "kind": "sweep",
        "axes": [["stripe_size", list(stripe_sizes)]],
        "base": base,
    }


def fake_campaign_result(config: ScenarioConfig):
    """A campaign-shaped fake: fault summary derived from the trial seed."""
    seed = config.fault_profile.seed
    return dataclasses.replace(
        fake_result(config),
        simulated_ms=3_600_000.0,
        fault_summary={
            "data_lost": seed % 2 == 1,
            "disk_failures": 2,
            "repairs_completed": 1,
            "mean_repair_ms": 1_000.0 + seed,
        },
    )


def fake_campaign_execute(key: dict) -> dict:
    return result_to_dict(fake_campaign_result(ScenarioConfig.from_key(key)))


class LiveService:
    """The real Service + HTTP server, on a thread, with sync helpers.

    Without ``cache_dir`` the result cache is ``cache`` next to
    ``data_dir``, so a test never writes into a shared cache.
    """

    def __init__(self, data_dir, cache_dir=None, execute=None, max_jobs=1):
        if cache_dir is None:
            cache_dir = pathlib.Path(data_dir).parent / "cache"
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="live-service", daemon=True
        )
        self._thread.start()
        self.service, self._server, self.port = asyncio.run_coroutine_threadsafe(
            self._start(data_dir, cache_dir, execute, max_jobs), self._loop
        ).result(timeout=30.0)
        self.base = f"http://127.0.0.1:{self.port}"

    async def _start(self, data_dir, cache_dir, execute, max_jobs):
        service = Service(
            data_dir, cache_dir=cache_dir, max_jobs=max_jobs, execute=execute
        )
        await service.start()
        server = await asyncio.start_server(
            service.handle_client, "127.0.0.1", 0
        )
        return service, server, server.sockets[0].getsockname()[1]

    def stop(self):
        async def _stop():
            self._server.close()
            await self._server.wait_closed()
            await self.service.close()

        asyncio.run_coroutine_threadsafe(_stop(), self._loop).result(timeout=30.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()

    # -- sync HTTP helpers -------------------------------------------------
    def request(self, method, path, payload=None, timeout=30.0):
        """(status, parsed JSON body) — HTTP errors returned, not raised."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method=method,
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            with error:
                return error.code, json.loads(error.read())

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, payload=None):
        return self.request("POST", path, payload)

    def stream(self, path, timeout=30.0):
        """Read an NDJSON stream to EOF; returns the parsed events."""
        request = urllib.request.Request(self.base + path)
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return [
                json.loads(line) for line in response if line.strip()
            ]

    def wait_for(self, job_id, states=("done", "failed", "cancelled")):
        """Follow the event stream until the job reaches ``states``."""
        events = self.stream(f"/jobs/{job_id}/events")
        final = [
            e for e in events
            if e.get("event") == "state" and e.get("state") in states
        ]
        assert final, f"stream ended without {states}: {events}"
        status, job = self.get(f"/jobs/{job_id}")
        assert status == 200
        return job, events


@pytest.fixture
def live_service(tmp_path):
    """Server with the plain fake execute and a cache; auto-stopped."""
    from tests.sweep.conftest import fake_execute

    service = LiveService(
        tmp_path / "data", cache_dir=tmp_path / "cache", execute=fake_execute
    )
    yield service
    service.stop()
