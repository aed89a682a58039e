"""Golden disk-I/O traces: every completed disk request, one per line.

Each line is one request as the drive completed it: disk id; submit,
start-of-service and completion times (``repr``, so every float bit
shows); start sector; sector count; write flag; kind; and the seek,
rotation and transfer times ``DiskStats.record`` received. Six
deterministic scenarios are pinned:

- the two scenarios of ``test_golden_trace.py`` (fault-free service at
  C=21 G=5, and a failure, replacement and 2-way rebuild at C=5 G=4);
- one simulated second of 100% writes under SPTF at C=21 G=5, where
  queues build, so the fixture pins every SPTF pick (a different pick
  moves the start times and service components of what follows);
- a P+Q array with two failed disks: double-degraded reads and writes,
  and a rebuild that continues through the second failure;
- one fault-profile trial with transient timeouts, retries and latent
  sector errors;
- the same trial with frequent timeouts and a low escalation threshold,
  so retries run out, sick disks are declared failed and a second
  failure loses data gracefully.

Lines of the last three also end with the request's ``error`` (``None``,
``media`` or ``timeout``), which decides the controller's next step.
The escalation trial's fault log is pinned too, one line per event
(``faultlog_fault_escalation.txt``: time, kind, disk, stripe, offset
and detail): the disk lines do not show the retry, escalation and
data-loss records the controller writes.

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
from repro.faults.injector import FaultInjector
from repro.faults.log import (
    DATA_LOSS,
    DATA_LOSS_ACCESS,
    ESCALATION,
    RETRY_EXHAUSTED,
    FaultLog,
)
from repro.faults.profile import FaultProfile
from repro.recon import Reconstructor
from repro.workload import SyntheticWorkload, WorkloadConfig
from tests.conftest import build_array, build_dual_array
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


def pq_double_failure() -> None:
    """Two failed disks on a P+Q array (SQS(8), G=4, 3 cylinders).

    Disk 1 fails at 200 ms and a 2-way rebuild onto its replacement
    starts at once; disk 5 fails at 400 ms, mid-sweep, and the run stops
    at 1,200 ms with the rebuild still going. User reads and writes run
    throughout, so stripes that lost both disks take double-degraded
    reads and writes.
    """
    array = build_dual_array(cylinders=3, with_datastore=False)
    controller = array.controller
    workload = SyntheticWorkload(
        controller,
        WorkloadConfig(access_rate_per_s=150.0, read_fraction=0.5, seed=7),
    )
    workload.run(duration_ms=float("inf"))
    array.env.run(until=200.0)
    controller.fail_disk(1)
    controller.install_replacement(1)
    Reconstructor(controller, workers=2, disk=1).start()
    array.env.run(until=400.0)
    controller.fail_disk(5)
    array.env.run(until=1_200.0)
    workload.stop()


def _fault_profile_trial(profile: FaultProfile) -> FaultLog:
    """One simulated second of ``profile`` at C=5 G=4; returns the fault log."""
    array = build_array(
        num_disks=5, stripe_size=4, cylinders=3, with_datastore=False,
        fault_profile=profile,
    )
    FaultInjector(array.controller).start()
    workload = SyntheticWorkload(
        array.controller,
        WorkloadConfig(access_rate_per_s=200.0, read_fraction=0.5, seed=7),
    )
    workload.run(duration_ms=1_000.0)
    array.env.run(until=1_000.0)
    return array.controller.fault_log


def fault_trial() -> None:
    """One simulated second of a fault-profile trial at C=5 G=4.

    Every access times out with probability 0.05 (retried with backoff),
    and the injector plants latent sector errors at 50 per disk per
    simulated second, which reads then hit as media errors.
    """
    _fault_profile_trial(FaultProfile(
        transient_error_prob=0.05, latent_errors_per_hour=180_000.0, seed=11
    ))


def fault_escalation() -> FaultLog:
    """``fault_trial`` with timeouts at 0.4 and an escalation threshold of 2.

    Five accesses exhaust their retries, four disks cross the threshold
    and are declared failed, and the failures beyond the first lose
    data gracefully: 84 user accesses then take the ``data-loss`` path.
    Returns the run's fault log.
    """
    return _fault_profile_trial(FaultProfile(
        transient_error_prob=0.4, latent_errors_per_hour=180_000.0, seed=11,
        escalation_threshold=2,
    ))


SCENARIOS = {
    "io_fault_free.txt": trace_fault_free,
    "io_reconstruction.txt": trace_reconstruction,
    "io_writes_sptf.txt": writes_sptf,
    "io_pq_double_failure.txt": pq_double_failure,
    "io_fault_trial.txt": fault_trial,
    "io_fault_escalation.txt": fault_escalation,
}

#: Fixtures whose lines also carry each request's ``error``.
WITH_ERRORS = frozenset(
    {"io_pq_double_failure.txt", "io_fault_trial.txt", "io_fault_escalation.txt"}
)


def record_io(monkeypatch, with_errors: bool = False) -> list:
    """Collect one line per completed request of every disk built from now on.

    Wraps each new drive's ``stats.record``, so replacement disks
    installed mid-run are traced too. ``with_errors`` appends the
    request's ``error`` to each line.
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
                + (f" {request.error}" if with_errors else "")
            )
            record(request, seek_ms, rotation_ms, transfer_ms)

        disk.stats.record = traced_record

    monkeypatch.setattr(Disk, "__init__", traced_init)
    return lines


@pytest.mark.parametrize("fixture_name", sorted(SCENARIOS))
def test_io_matches_golden(fixture_name, monkeypatch):
    lines = record_io(monkeypatch, with_errors=fixture_name in WITH_ERRORS)
    SCENARIOS[fixture_name]()
    assert lines, "the scenario completed no disk requests"
    _assert_golden(fixture_name, "\n".join(lines) + "\n")


def test_fault_log_matches_golden():
    log = fault_escalation()
    for kind in (RETRY_EXHAUSTED, ESCALATION, DATA_LOSS, DATA_LOSS_ACCESS):
        assert log.count(kind), f"the escalation trial logged no {kind!r}"
    _assert_golden("faultlog_fault_escalation.txt", "".join(
        f"{event.at_ms!r} {event.kind} {event.disk} {event.stripe} "
        f"{event.offset} {event.detail!r}\n"
        for event in log.events
    ))


def _assert_golden(fixture_name: str, actual: str) -> None:
    path = GOLDEN_DIR / fixture_name
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        path.write_text(actual, encoding="utf-8")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden fixture {path} missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, _first_divergence(expected, actual)
