"""End-to-end: fault-free service → failure → degraded service →
replacement → reconstruction under load → verified recovery.

This is the paper's continuous-operation story, executed with real data
contents and verified bit-exactly for each of the four reconstruction
algorithms and for RAID 5 as well as declustered layouts.
"""

import pytest

from repro.layout.base import PARITY_ROLE
from repro.recon import ALGORITHMS, Reconstructor
from repro.workload import SyntheticWorkload, WorkloadConfig
from tests.conftest import build_array

FAILED_DISK = 2


def continuous_operation_story(array, algorithm_workers=4, rate=60.0, seed=13):
    """Run the full lifecycle; returns (workload, reconstructor)."""
    env = array.env
    controller = array.controller
    workload = SyntheticWorkload(
        controller,
        WorkloadConfig(access_rate_per_s=rate, read_fraction=0.5, seed=seed),
    )
    workload.run(duration_ms=float("inf"))
    env.run(until=1_000.0)              # fault-free service
    workload.pause_verification()
    controller.fail_disk(FAILED_DISK)
    env.run(until=2_500.0)              # degraded service
    controller.install_replacement()
    reconstructor = Reconstructor(controller, workers=algorithm_workers)
    done = reconstructor.start()
    env.run(until=done)                 # recovery under load
    env.run(until=env.now + 2_000.0)    # post-repair service
    workload.stop()
    env.run(until=workload.drained())
    return workload, reconstructor


def assert_array_fully_recovered(array):
    """All stripes consistent; the rebuilt disk agrees with its peers."""
    controller = array.controller
    store = controller.datastore
    layout = array.layout
    assert controller.faults.fault_free
    for stripe in range(array.addressing.num_stripes):
        assert store.stripe_is_consistent(stripe), f"stripe {stripe}"
    for offset in range(array.addressing.mapped_units_per_disk):
        stripe, _role = layout.stripe_of(FAILED_DISK, offset)
        expected = 0
        for unit in layout.stripe_units(stripe):
            if unit.disk != FAILED_DISK:
                expected ^= store.read_unit(unit.disk, unit.offset)
        assert store.read_unit(FAILED_DISK, offset) == expected, f"offset {offset}"


class TestContinuousOperation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
    def test_full_lifecycle_each_algorithm(self, algorithm):
        array = build_array(algorithm=algorithm)
        workload, reconstructor = continuous_operation_story(array)
        assert workload.integrity_errors == []
        assert_array_fully_recovered(array)
        result = reconstructor.result()
        assert result.swept_units + result.user_built_units == result.total_units

    def test_raid5_full_lifecycle(self):
        array = build_array(stripe_size=5)
        workload, _ = continuous_operation_story(array)
        assert workload.integrity_errors == []
        assert_array_fully_recovered(array)

    def test_g3_full_lifecycle(self):
        array = build_array(stripe_size=3)
        workload, _ = continuous_operation_story(array)
        assert workload.integrity_errors == []
        assert_array_fully_recovered(array)

    def test_paper_21_disk_array_lifecycle(self):
        # The paper's C=21, G=4 configuration, scaled-down disks.
        array = build_array(num_disks=21, stripe_size=4, cylinders=2)
        workload, _ = continuous_operation_story(array, rate=100.0)
        assert workload.integrity_errors == []
        assert_array_fully_recovered(array)

    def test_second_failure_after_repair_is_survivable(self):
        array = build_array()
        continuous_operation_story(array)
        # Fail a *different* disk now; data must still be recoverable.
        controller = array.controller
        controller.fail_disk(0)
        controller.install_replacement()
        reconstructor = Reconstructor(controller, workers=4)
        array.env.run(until=reconstructor.start())
        assert controller.faults.fault_free
        store = controller.datastore
        for stripe in range(array.addressing.num_stripes):
            assert store.stripe_is_consistent(stripe)

    def test_service_never_stops(self):
        # Continuous operation: requests complete in every phase.
        array = build_array()
        workload, _ = continuous_operation_story(array)
        completions = sorted(
            complete for complete, _resp, _w in workload.recorder._samples
        )
        # No service gap longer than a second anywhere in the run.
        gaps = [b - a for a, b in zip(completions, completions[1:])]
        assert max(gaps) < 1_000.0


class TestParityRolesSurviveRecovery:
    def test_rebuilt_parity_units_match_recomputation(self):
        array = build_array()
        continuous_operation_story(array)
        layout = array.layout
        store = array.controller.datastore
        parity_offsets = [
            offset
            for offset in range(array.addressing.mapped_units_per_disk)
            if layout.stripe_of(FAILED_DISK, offset)[1] == PARITY_ROLE
        ]
        assert parity_offsets  # the failed disk held parity units too
        for offset in parity_offsets:
            stripe, _role = layout.stripe_of(FAILED_DISK, offset)
            expected = 0
            for unit in layout.stripe_units(stripe)[: layout.data_units_per_stripe]:
                expected ^= store.read_unit(unit.disk, unit.offset)
            assert store.read_unit(FAILED_DISK, offset) == expected
