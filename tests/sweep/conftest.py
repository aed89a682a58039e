"""Shared helpers for the sweep subsystem tests.

Most orchestration tests substitute :func:`fake_execute` for the real
simulation: a deterministic result document derived from the config
key alone, so cache/pool/failure behaviour is tested in milliseconds.
The handful of end-to-end equivalence tests run real (micro-sized)
simulations. Helpers that cross the process boundary in pool-mode
tests must stay module-level so they pickle.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile

from repro.experiments.runner import ScenarioConfig, ScenarioResult
from repro.experiments.scales import ScalePreset
from repro.sweep import result_to_dict
from repro.workload.recorder import ResponseSummary

#: Sub-tiny preset so real-simulation tests stay around a second.
MICRO = ScalePreset(
    name="micro",
    cylinders=13,
    steady_duration_ms=1_500.0,
    warmup_ms=300.0,
    note="test-only",
)


def micro_spec_base(**overrides):
    base = dict(user_rate_per_s=105.0, read_fraction=1.0, scale=MICRO, seed=7)
    base.update(overrides)
    return base


def fake_result(config: ScenarioConfig) -> ScenarioResult:
    """A synthetic result whose numbers identify the config that made it."""
    summary = ResponseSummary(
        count=10,
        mean_ms=float(config.stripe_size),
        std_ms=0.25,
        min_ms=1.0,
        max_ms=float(config.stripe_size) * 2,
        p90_ms=1.5,
        p99_ms=1.9,
    )
    return ScenarioResult(
        config=config,
        response=summary,
        read_response=summary,
        write_response=summary,
        simulated_ms=1000.0,
        requests_completed=10,
        mapped_units_per_disk=42,
        disk_utilization=[0.5, 0.25, 0.125],
        reconstruction=None,
        integrity_errors=[],
    )


def fake_execute(key: dict) -> dict:
    """Drop-in for the worker entry point, minus the simulation."""
    return result_to_dict(fake_result(ScenarioConfig.from_key(key)))


def _marker_path(key: dict, kind: str) -> pathlib.Path:
    digest = hashlib.sha1(
        json.dumps(key, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()
    return pathlib.Path(tempfile.gettempdir()) / f"repro-sweep-{kind}-{digest}"


def clear_markers(spec) -> None:
    for point in spec.points():
        for kind in ("flaky", "dying"):
            marker = _marker_path(point.config.to_key(), kind)
            if marker.exists():
                marker.unlink()


def fail_once_execute(key: dict) -> dict:
    """Raises on the first attempt per key (marker file), succeeds after.

    The marker lives on disk so the behaviour holds across worker
    processes. A sweep runs each point once, so the first raise fails
    the point.
    """
    marker = _marker_path(key, "flaky")
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError("injected worker failure")
    return fake_execute(key)


def die_once_execute(key: dict) -> dict:
    """Kills its worker process on the first attempt per key.

    ``os._exit`` skips every handler, as a crashed interpreter would:
    the pool breaks with ``BrokenProcessPool``, the one failure a sweep
    requeues. Pool mode only — in-process it would end the test run.
    """
    marker = _marker_path(key, "dying")
    if not marker.exists():
        marker.write_text("attempted")
        os._exit(1)
    return fake_execute(key)


def always_fail_execute(key: dict) -> dict:
    raise RuntimeError("this point never succeeds")


def data_loss_execute(key: dict) -> dict:
    from repro.array.faults import DataLossError

    raise DataLossError("array lost data", failed_disks=(1, 3))
