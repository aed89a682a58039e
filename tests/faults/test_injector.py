"""Integration tests for the stochastic fault injector."""

import pytest

from repro.array.sparing import SparePool
from repro.faults.injector import FaultInjector
from repro.faults.log import DATA_LOSS, LATENT_ERROR, REPAIR_COMPLETE
from repro.faults.profile import FaultProfile
from tests.conftest import build_array

# An accelerated clock: 1000 ms mean disk lifetime, so a 5-disk array
# sees its first failure after a couple hundred simulated ms.
FAST_MTTF_HOURS = 1000.0 / 3_600_000.0


def build_faulty_array(**profile_kwargs):
    profile = FaultProfile(seed=11, **profile_kwargs)
    return build_array(cylinders=3, fault_profile=profile)


class TestConstruction:
    def test_requires_a_fault_profile(self, small_array):
        with pytest.raises(ValueError, match="FaultProfile"):
            FaultInjector(small_array.controller)

    def test_double_start_rejected(self):
        array = build_faulty_array(disk_mttf_hours=FAST_MTTF_HOURS)
        injector = FaultInjector(array.controller).start()
        with pytest.raises(RuntimeError, match="already started"):
            injector.start()

    def test_installs_escalation_callback(self):
        array = build_faulty_array()
        injector = FaultInjector(array.controller)
        assert array.controller.on_disk_failure == injector.inject_disk_failure


class TestLifetimeClocks:
    def test_unattended_array_loses_data(self):
        # No spare pool: the first failure degrades the array, the
        # second loses data — gracefully, terminating the campaign.
        array = build_faulty_array(disk_mttf_hours=FAST_MTTF_HOURS)
        injector = FaultInjector(array.controller).start()
        array.env.run(until=injector.data_loss_event)
        faults = array.controller.faults
        assert injector.data_lost
        assert faults.data_lost
        assert faults.failed_disk is not None
        assert len(faults.lost_disks) == 1
        assert injector.disk_failures == 2
        assert array.controller.fault_log.count(DATA_LOSS) == 1
        assert injector.data_loss_event.value == array.env.now

    def test_spare_pool_repairs_keep_the_array_alive(self):
        array = build_faulty_array(disk_mttf_hours=FAST_MTTF_HOURS)
        pool = SparePool(array.controller, spares=64, replacement_delay_ms=0.0)
        injector = FaultInjector(array.controller, monitor=pool).start()
        horizon = array.env.timeout(20_000.0)
        array.env.run(until=array.env.any_of([horizon, injector.data_loss_event]))
        assert injector.disk_failures >= 2
        assert len(pool.repairs) >= 1
        assert array.controller.fault_log.count(REPAIR_COMPLETE) == len(
            pool.repairs
        )
        # Every routed failure consumed a spare (completed repairs and
        # any repair still in flight when the horizon fired).
        assert pool.spares_remaining < 64
        assert pool.spares_remaining <= 64 - len(pool.repairs)

    def test_failure_on_dead_disk_is_a_no_op(self):
        array = build_faulty_array()
        injector = FaultInjector(array.controller)
        array.controller.fail_disk(2)
        before = injector.disk_failures
        injector.inject_disk_failure(2)
        assert injector.disk_failures == before
        assert array.controller.faults.failed_disk == 2


class TestLatentArrivals:
    def test_arrivals_plant_latent_state(self):
        # 3600 errors/disk-hour = one per simulated second per disk.
        array = build_faulty_array(latent_errors_per_hour=3600.0)
        injector = FaultInjector(array.controller).start()
        array.env.run(until=array.env.timeout(3_000.0))
        planted = array.controller.fault_log.count(LATENT_ERROR)
        assert planted >= 1
        extents = sum(
            disk.fault_state.latent_extents for disk in array.controller.disks
        )
        assert 1 <= extents <= planted
        assert not injector.data_lost
