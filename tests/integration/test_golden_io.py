"""Golden disk-I/O traces: every completed disk request, one per line.

Each line is one request as the drive completed it: disk id; submit,
start-of-service and completion times (``repr``, so every float bit
shows); start sector; sector count; write flag; kind; and the seek,
rotation and transfer times ``DiskStats.record`` received. Twelve
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
  failure loses data gracefully;
- a 4-way redirect+piggyback rebuild at C=5 G=4, which takes every
  degraded single-parity path and makes piggyback writes;
- one second each of G=3 and G=2 (mirrored) arrays, for the
  small-stripe write, large writes and mirrored-read balancing;
- latent sector errors during a single-parity rebuild, where unreadable
  peers end on-the-fly reads, repairs and sweep cycles;
- a single-parity array with a fault profile failing past its
  tolerance, where writes fold into a lost parity unit;
- a redirect+piggyback P+Q array with latent sector errors, two failed
  disks and 2-unit writes, which takes every P+Q path, makes piggyback
  writes and repairs a latent unit inside the rebuild's decode;
- a user-writes P+Q rebuild whose replacement arrives while degraded
  writes are decoding.

Lines of the fault-profile scenarios and the P+Q double failure also
end with the request's ``error`` (``None``, ``media`` or ``timeout``),
which decides the controller's next step. The fault logs of the
escalation trial and the P+Q fault scenario are pinned too, one line
per event (``faultlog_*.txt``: time, kind, disk, stripe, offset and
detail): the disk lines do not show the retry, repair, escalation and
data-loss records the controller writes.

Together the scenarios take every access path either family of
controller can record, and each family makes piggyback writes.
``test_every_access_path_is_pinned`` checks that and pins each
scenario's count of every path label and of piggyback writes
(``paths.txt``), which the disk lines alone do not show.

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

from repro.array.controller import ArrayController
from repro.disk.drive import Disk
from repro.faults.injector import FaultInjector
from repro.faults.log import (
    DATA_LOSS,
    DATA_LOSS_ACCESS,
    ESCALATION,
    FOREGROUND_REPAIR,
    MEDIA_ERROR,
    RETRY_EXHAUSTED,
    FaultLog,
)
from repro.faults.profile import FaultProfile
from repro.recon import Reconstructor
from repro.recon.algorithms import REDIRECT_PIGGYBACK, USER_WRITES
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


def recon_redirect_piggyback() -> None:
    """A 4-way redirect+piggyback rebuild under load, C=5 G=4.

    Disk 2 fails at 400 ms, so writes fold into parity or skip a lost
    parity unit until the replacement goes in at 800 ms. From then on
    writes to the failed disk go to the replacement, reads of rebuilt
    units are redirected, and on-the-fly reads store what they recover.
    The run stops at 1,600 ms with the rebuild still going.
    """
    array = build_array(
        num_disks=5, stripe_size=4, cylinders=3, with_datastore=False,
        algorithm=REDIRECT_PIGGYBACK,
    )
    controller = array.controller
    workload = SyntheticWorkload(
        controller,
        WorkloadConfig(access_rate_per_s=120.0, read_fraction=0.5, seed=7),
    )
    workload.run(duration_ms=float("inf"))
    array.env.run(until=400.0)
    controller.fail_disk(2)
    array.env.run(until=800.0)
    controller.install_replacement()
    Reconstructor(controller, workers=4).start()
    array.env.run(until=1_600.0)
    workload.stop()


def small_stripes() -> None:
    """One simulated second each of a G=3 and a G=2 (mirrored) array.

    Each runs 150/s of 1-unit accesses plus 50/s of (G-1)-unit ones
    at 50% reads: G=3 single-unit writes take the small-stripe write,
    aligned 2-unit writes are large writes, and every G=2 write is a
    large write while its reads balance over the two copies.
    """
    for num_disks, stripe_size in ((5, 3), (4, 2)):
        array = build_array(
            num_disks=num_disks, stripe_size=stripe_size, cylinders=3,
            with_datastore=False,
        )
        for units, rate, seed in ((1, 150.0, 7), (stripe_size - 1, 50.0, 8)):
            SyntheticWorkload(
                array.controller,
                WorkloadConfig(
                    access_rate_per_s=rate, read_fraction=0.5,
                    access_units=units, seed=seed,
                ),
            ).run(duration_ms=1_000.0)
        array.env.run(until=1_000.0)


def fault_rebuild() -> None:
    """Latent sector errors during a single-parity rebuild, C=5 G=4.

    Latent errors arrive at 50 per disk per simulated second. Disk 2
    fails at 200 ms and a 2-way baseline rebuild starts at once; the
    run stops at 1,000 ms. Media errors on surviving peers end
    on-the-fly reads, foreground repairs and sweep cycles as lost data.
    """
    array = build_array(
        num_disks=5, stripe_size=4, cylinders=3, with_datastore=False,
        fault_profile=FaultProfile(latent_errors_per_hour=180_000.0, seed=7),
    )
    controller = array.controller
    FaultInjector(controller).start()
    workload = SyntheticWorkload(
        controller,
        WorkloadConfig(access_rate_per_s=200.0, read_fraction=0.5, seed=7),
    )
    workload.run(duration_ms=float("inf"))
    array.env.run(until=200.0)
    controller.fail_disk(2)
    controller.install_replacement()
    Reconstructor(controller, workers=2).start()
    array.env.run(until=1_000.0)
    workload.stop()


def fault_second_failure() -> None:
    """Single parity past its tolerance, C=5 G=3, with a fault profile.

    Latent errors arrive at 50 per disk per simulated second, 5% of
    accesses time out and four hard errors fail a disk. Traffic is
    150/s of 1-unit accesses plus 40/s of 2-unit ones. Disk 1 fails at
    200 ms, a replacement and a 2-way baseline rebuild start at 300 ms,
    and disk 3 fails at 600 ms, beyond the tolerance; run to 1,500 ms.
    Writes then meet units on a down slot whose parity disk is lost,
    which single parity folds into the dead parity even when the unit
    is rebuilt (P+Q would write the live unit instead).
    """
    array = build_array(
        num_disks=5, stripe_size=3, cylinders=3, with_datastore=False,
        fault_profile=FaultProfile(
            latent_errors_per_hour=180_000.0, transient_error_prob=0.05,
            seed=3, escalation_threshold=4,
        ),
    )
    controller = array.controller
    FaultInjector(controller).start()
    workloads = _start_workloads(controller, units=2)
    array.env.run(until=200.0)
    controller.fail_disk(1)
    array.env.run(until=300.0)
    controller.install_replacement(1)
    Reconstructor(controller, workers=2, disk=1).start()
    array.env.run(until=600.0)
    controller.fail_disk(3)
    array.env.run(until=1_500.0)
    for workload in workloads:
        workload.stop()


def pq_replacement_mid_decode() -> None:
    """A user-writes P+Q rebuild whose replacement arrives mid-write.

    Full-width P+Q over 6 disks (cyclic RAID 6), 3 cylinders, no fault
    profile. Traffic is 150/s of 1-unit accesses plus 40/s of 4-unit
    ones. Disk 1 fails at 300 ms; its replacement and a 2-way rebuild
    start at 500 ms, while degraded writes are decoding, so those writes
    must choose reconstruct-write over fold after the decode; run to
    1,500 ms.
    """
    array = build_dual_array(
        num_disks=6, cylinders=3, with_datastore=False, algorithm=USER_WRITES
    )
    controller = array.controller
    workloads = _start_workloads(controller, units=4)
    array.env.run(until=300.0)
    controller.fail_disk(1)
    array.env.run(until=500.0)
    controller.install_replacement(1)
    Reconstructor(controller, workers=2, disk=1).start()
    array.env.run(until=1_500.0)
    for workload in workloads:
        workload.stop()


def _start_workloads(controller, units: int) -> list:
    """150/s of 1-unit accesses at 50% reads plus 40/s of ``units``-unit
    ones at 30% reads, running until stopped."""
    workloads = [
        SyntheticWorkload(controller, WorkloadConfig(
            access_rate_per_s=150.0, read_fraction=0.5, seed=11,
        )),
        SyntheticWorkload(controller, WorkloadConfig(
            access_rate_per_s=40.0, read_fraction=0.3, access_units=units, seed=12,
        )),
    ]
    for workload in workloads:
        workload.run(duration_ms=float("inf"))
    return workloads


def pq_faults() -> FaultLog:
    """Latent errors, two failures and a redirect+piggyback P+Q rebuild.

    SQS(8) G=4 P+Q over 3 cylinders, with latent sector errors at
    50 per disk per simulated second. Traffic is 150/s of 1-unit
    accesses plus 30/s of 2-unit writes. Disk 1 fails at 200 ms and a
    2-way rebuild onto its replacement starts at once; disk 5 fails at
    400 ms. Media errors trigger foreground repairs and one repair by
    the rebuild's own decode, and sick disks escalate until stripes
    lose data. The run stops at 2,000 ms. Returns the run's fault log.
    """
    array = build_dual_array(
        cylinders=3, with_datastore=False, algorithm=REDIRECT_PIGGYBACK,
        fault_profile=FaultProfile(latent_errors_per_hour=180_000.0, seed=11),
    )
    controller = array.controller
    FaultInjector(controller).start()
    workloads = [
        SyntheticWorkload(controller, WorkloadConfig(
            access_rate_per_s=150.0, read_fraction=0.5, seed=7,
        )),
        SyntheticWorkload(controller, WorkloadConfig(
            access_rate_per_s=30.0, read_fraction=0.0, access_units=2, seed=9,
        )),
    ]
    for workload in workloads:
        workload.run(duration_ms=float("inf"))
    array.env.run(until=200.0)
    controller.fail_disk(1)
    controller.install_replacement(1)
    Reconstructor(controller, workers=2, disk=1).start()
    array.env.run(until=400.0)
    controller.fail_disk(5)
    array.env.run(until=2_000.0)
    for workload in workloads:
        workload.stop()
    return controller.fault_log


SCENARIOS = {
    "io_fault_free.txt": trace_fault_free,
    "io_reconstruction.txt": trace_reconstruction,
    "io_writes_sptf.txt": writes_sptf,
    "io_pq_double_failure.txt": pq_double_failure,
    "io_fault_trial.txt": fault_trial,
    "io_fault_escalation.txt": fault_escalation,
    "io_recon_redirect_piggyback.txt": recon_redirect_piggyback,
    "io_small_stripes.txt": small_stripes,
    "io_fault_rebuild.txt": fault_rebuild,
    "io_fault_second_failure.txt": fault_second_failure,
    "io_pq_faults.txt": pq_faults,
    "io_pq_replacement_mid_decode.txt": pq_replacement_mid_decode,
}

#: Fixtures whose lines also carry each request's ``error``.
WITH_ERRORS = frozenset({
    "io_pq_double_failure.txt", "io_fault_trial.txt",
    "io_fault_escalation.txt", "io_fault_rebuild.txt",
    "io_fault_second_failure.txt", "io_pq_faults.txt",
})

#: Every access-path label each family can record, by syndrome count.
FAMILY_PATHS = {
    1: frozenset({
        "read", "redirected-read", "on-the-fly-read", "repaired-read",
        "data-loss", "rmw-write", "small-stripe-write", "large-write",
        "fold-write", "reconstruct-write", "data-only-write",
    }),
    2: frozenset({
        "read", "redirected-read", "on-the-fly-read", "double-degraded-read",
        "repaired-read", "data-loss", "pq-rmw-write", "pq-degraded-write",
        "pq-fold-write", "pq-reconstruct-write", "large-write",
    }),
}


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
    _assert_fault_log("faultlog_fault_escalation.txt", fault_escalation(), (
        RETRY_EXHAUSTED, ESCALATION, DATA_LOSS, DATA_LOSS_ACCESS,
    ))


def test_pq_fault_log_matches_golden():
    _assert_fault_log("faultlog_pq_faults.txt", pq_faults(), (
        MEDIA_ERROR, FOREGROUND_REPAIR, ESCALATION, DATA_LOSS_ACCESS,
    ))


def _assert_fault_log(fixture_name: str, log: FaultLog, kinds) -> None:
    for kind in kinds:
        assert log.count(kind), f"{fixture_name}: the run logged no {kind!r}"
    _assert_golden(fixture_name, "".join(
        f"{event.at_ms!r} {event.kind} {event.disk} {event.stripe} "
        f"{event.offset} {event.detail!r}\n"
        for event in log.events
    ))


def test_every_access_path_is_pinned(monkeypatch):
    """The golden scenarios take every path label of both families, and
    each family makes at least one piggyback write."""
    controllers = []
    original_init = ArrayController.__init__

    def recording_init(controller, *args, **kwargs):
        original_init(controller, *args, **kwargs)
        controllers.append(controller)

    monkeypatch.setattr(ArrayController, "__init__", recording_init)
    lines = []
    for fixture_name, scenario in sorted(SCENARIOS.items()):
        first = len(controllers)
        scenario()
        for controller in controllers[first:]:
            stats = controller.stats
            lines.append(
                f"{fixture_name} {controller.layout.num_syndromes} "
                f"piggyback={stats.piggyback_writes} "
                + " ".join(f"{path}={n}" for path, n in sorted(stats.by_path.items()))
                + "\n"
            )
    for num_syndromes, labels in FAMILY_PATHS.items():
        family = [
            c.stats for c in controllers if c.layout.num_syndromes == num_syndromes
        ]
        taken = set().union(*(stats.by_path for stats in family))
        assert taken == labels, (
            f"{num_syndromes} syndrome(s): missing {sorted(labels - taken)}, "
            f"unexpected {sorted(taken - labels)}"
        )
        assert sum(stats.piggyback_writes for stats in family) > 0
    _assert_golden("paths.txt", "".join(lines))


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
