"""Golden disk-I/O traces: every completed disk request, one per line.

Each line is one request as the drive completed it: disk id; submit,
start-of-service and completion times (``repr``, so every float bit
shows); start sector; sector count; write flag; kind; and the seek,
rotation and transfer times ``DiskStats.record`` received. Three
deterministic scenarios are pinned:

- the two scenarios of ``test_golden_trace.py`` (fault-free service at
  C=21 G=5, and a failure, replacement and 2-way rebuild at C=5 G=4);
- one simulated second of 100% writes under SPTF at C=21 G=5, where
  queues build, so the fixture pins every SPTF pick (a different pick
  moves the start times and service components of what follows).

These fixtures are the simulated-result contract for refactors of the
controller, workload and process structure. The kernel traces in
``test_golden_trace.py`` also record process kick-offs and completions,
which such a refactor may remove by design; this trace records only
what the disks did, so it must pass unchanged across any change that
claims bit-identical results.

Regenerating (ONLY when an intentional change alters simulated
results — never to make a refactor pass):

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_golden_io.py -q
"""

import os
import pathlib

import pytest

from repro.disk.drive import Disk
from repro.workload import SyntheticWorkload, WorkloadConfig
from tests.conftest import build_array
from tests.integration.test_golden_trace import (
    _first_divergence,
    trace_fault_free,
    trace_reconstruction,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def writes_sptf() -> None:
    """One simulated second of 100% writes at 300/s under SPTF, C=21 G=5."""
    array = build_array(num_disks=21, stripe_size=5, policy="sptf")
    workload = SyntheticWorkload(
        array.controller,
        WorkloadConfig(access_rate_per_s=300.0, read_fraction=0.0, seed=1992),
    )
    workload.run(duration_ms=1_000.0)
    array.env.run(until=1_000.0)


SCENARIOS = {
    "io_fault_free.txt": trace_fault_free,
    "io_reconstruction.txt": trace_reconstruction,
    "io_writes_sptf.txt": writes_sptf,
}


def record_io(monkeypatch) -> list:
    """Collect one line per completed request of every disk built from now on.

    Wraps each new drive's ``stats.record``, so replacement disks
    installed mid-run are traced too.
    """
    lines = []
    original_init = Disk.__init__

    def traced_init(disk, *args, **kwargs):
        original_init(disk, *args, **kwargs)
        record = disk.stats.record

        def traced_record(request, seek_ms, rotation_ms, transfer_ms):
            lines.append(
                f"{disk.disk_id} {request.submit_ms!r} "
                f"{request.start_service_ms!r} {request.complete_ms!r} "
                f"{request.start_sector} {request.sector_count} "
                f"{int(request.is_write)} {request.kind} "
                f"{seek_ms!r} {rotation_ms!r} {transfer_ms!r}"
            )
            record(request, seek_ms, rotation_ms, transfer_ms)

        disk.stats.record = traced_record

    monkeypatch.setattr(Disk, "__init__", traced_init)
    return lines


@pytest.mark.parametrize("fixture_name", sorted(SCENARIOS))
def test_io_matches_golden(fixture_name, monkeypatch):
    lines = record_io(monkeypatch)
    SCENARIOS[fixture_name]()
    assert lines, "the scenario completed no disk requests"
    actual = "\n".join(lines) + "\n"
    path = GOLDEN_DIR / fixture_name
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        path.write_text(actual, encoding="utf-8")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden fixture {path} missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, _first_divergence(expected, actual)
