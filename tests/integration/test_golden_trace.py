"""Golden event traces: the kernel optimization safety net.

Every hot-path optimization of the event kernel must preserve
*bit-identical event ordering*: same events, same timestamps, same
dispatch order. These tests pin that property with checked-in golden
traces recorded by :class:`~repro.sim.tracing.EnvironmentTracer` over
two deterministic scenarios (fault-free service, and reconstruction
under load). Any change that reorders, adds, or drops a single kernel
dispatch fails here with the first diverging line.

Regenerating (ONLY when an intentional semantic change alters event
ordering — never to make an optimization pass):

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_golden_trace.py -q

A change that alters kernel dispatch but claims bit-identical simulated
results (for example, one that removes processes from a request's path)
may re-record these fixtures only if the disk-I/O golden traces in
``tests/integration/test_golden_io.py`` pass unchanged on it: those pin
every completed disk request of the same scenarios. Name the re-recorded
fixtures and the reason in CHANGES.md.
"""

import os
import pathlib

import pytest

from repro.recon import Reconstructor
from repro.sim.tracing import EnvironmentTracer
from repro.workload import SyntheticWorkload, WorkloadConfig
from tests.conftest import build_array

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Enough for every scenario below; an overflowing trace would silently
#: drop the oldest entries and defeat the comparison.
TRACE_CAPACITY = 400_000


def _serialize(tracer: EnvironmentTracer) -> str:
    assert tracer.dropped == 0, "trace overflowed; raise TRACE_CAPACITY"
    lines = [
        f"{entry.at_ms!r} {entry.kind} {entry.name} {int(entry.ok)}"
        for entry in tracer.entries
    ]
    return "\n".join(lines) + "\n"


def trace_fault_free() -> str:
    """~1.5 simulated seconds of steady fault-free service, C=21 G=5."""
    array = build_array(num_disks=21, stripe_size=5, with_datastore=False)
    tracer = EnvironmentTracer(array.env, capacity=TRACE_CAPACITY)
    workload = SyntheticWorkload(
        array.controller,
        WorkloadConfig(access_rate_per_s=210.0, read_fraction=0.5, seed=1992),
    )
    workload.run(duration_ms=1_500.0)
    array.env.run(until=1_500.0)
    text = _serialize(tracer)
    tracer.detach()
    return text


def trace_reconstruction() -> str:
    """Failure, replacement, and a 2-way rebuild under load, C=5 G=4.

    A 3-cylinder disk keeps the whole rebuild (252 units/disk) small
    enough that the golden fixture stays reviewable.
    """
    array = build_array(
        num_disks=5, stripe_size=4, cylinders=3, with_datastore=False
    )
    tracer = EnvironmentTracer(array.env, capacity=TRACE_CAPACITY)
    workload = SyntheticWorkload(
        array.controller,
        WorkloadConfig(access_rate_per_s=120.0, read_fraction=0.5, seed=7),
    )
    workload.run(duration_ms=float("inf"))
    array.env.run(until=400.0)
    array.controller.fail_disk(2)
    array.env.run(until=800.0)
    array.controller.install_replacement()
    Reconstructor(array.controller, workers=2).start()
    # A bounded window into the rebuild keeps the fixture reviewable;
    # the dispatch order of a partial rebuild pins the same hot paths
    # (sweep cycles, stripe locks, on-the-fly reads) as a full one.
    array.env.run(until=1_400.0)
    workload.stop()
    text = _serialize(tracer)
    tracer.detach()
    return text


SCENARIOS = {
    "trace_fault_free.txt": trace_fault_free,
    "trace_reconstruction.txt": trace_reconstruction,
}


def _first_divergence(expected: str, actual: str) -> str:
    expected_lines = expected.splitlines()
    actual_lines = actual.splitlines()
    for index, (want, got) in enumerate(zip(expected_lines, actual_lines)):
        if want != got:
            return f"first divergence at entry {index}:\n  golden: {want}\n  actual: {got}"
    return (
        f"length mismatch: golden has {len(expected_lines)} entries, "
        f"actual has {len(actual_lines)}"
    )


@pytest.mark.parametrize("fixture_name", sorted(SCENARIOS))
def test_trace_matches_golden(fixture_name):
    path = GOLDEN_DIR / fixture_name
    actual = SCENARIOS[fixture_name]()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual, encoding="utf-8")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden fixture {path} missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, _first_divergence(expected, actual)


def test_trace_is_reproducible_in_process():
    """The same scenario traced twice in one process is identical —
    guards the fixtures themselves against hidden global state."""
    assert trace_fault_free() == trace_fault_free()
