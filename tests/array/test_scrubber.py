"""Unit tests for background parity scrubbing."""

import pytest

from repro.array.scrubber import ParityScrubber
from repro.faults.profile import FaultProfile
from repro.workload import SyntheticWorkload, WorkloadConfig
from tests.conftest import build_array, build_dual_array


def corrupt_parity(array, stripe):
    parity = array.layout.stripe_unit(stripe, array.layout.data_units_per_stripe)
    store = array.controller.datastore
    store.write_unit(parity.disk, parity.offset, store.read_unit(*parity) ^ 0xFF)


class TestCleanScrub:
    def test_clean_array_has_no_mismatches(self, small_array):
        scrubber = ParityScrubber(small_array.controller)
        report = small_array.env.run(until=scrubber.start())
        assert report.stripes_checked == small_array.addressing.num_stripes
        assert report.mismatches_found == 0
        assert report.duration_ms > 0

    def test_scrub_reads_every_unit(self, small_array):
        scrubber = ParityScrubber(small_array.controller)
        small_array.env.run(until=scrubber.start())
        total_reads = sum(
            disk.stats.completed_by_kind.get("recon", 0)
            for disk in small_array.controller.disks
        )
        expected = small_array.addressing.num_stripes * small_array.layout.stripe_size
        assert total_reads == expected


class TestRepair:
    def test_detects_and_repairs_corruption(self, small_array):
        for stripe in (0, 7, 12):
            corrupt_parity(small_array, stripe)
        scrubber = ParityScrubber(small_array.controller)
        report = small_array.env.run(until=scrubber.start())
        assert report.mismatches_found == 3
        assert sorted(report.mismatched_stripes) == [0, 7, 12]
        assert report.repairs_written == 3
        store = small_array.controller.datastore
        for stripe in range(small_array.addressing.num_stripes):
            assert store.stripe_is_consistent(stripe)

    def test_scrub_under_user_load_stays_consistent(self):
        array = build_array()
        workload = SyntheticWorkload(
            array.controller,
            WorkloadConfig(access_rate_per_s=40, read_fraction=0.5),
        )
        workload.run(duration_ms=float("inf"))
        corrupt_parity(array, 3)
        scrubber = ParityScrubber(array.controller)
        report = array.env.run(until=scrubber.start())
        workload.stop()
        array.env.run(until=workload.drained())
        assert report.mismatches_found >= 1
        assert workload.integrity_errors == []
        store = array.controller.datastore
        for stripe in range(array.addressing.num_stripes):
            assert store.stripe_is_consistent(stripe)


class TestLifecycle:
    def test_throttle_slows_the_scrub(self):
        fast = build_array()
        slow = build_array()
        fast.env.run(until=ParityScrubber(fast.controller).start())
        slow.env.run(
            until=ParityScrubber(slow.controller, cycle_delay_ms=5.0).start()
        )
        assert slow.env.now > fast.env.now

    def test_degraded_array_rejected(self, small_array):
        small_array.controller.fail_disk(1)
        with pytest.raises(RuntimeError, match="fault-free"):
            ParityScrubber(small_array.controller).start()

    def test_double_start_rejected(self, small_array):
        scrubber = ParityScrubber(small_array.controller)
        scrubber.start()
        with pytest.raises(RuntimeError, match="already"):
            scrubber.start()

    def test_negative_delay_rejected(self, small_array):
        with pytest.raises(ValueError):
            ParityScrubber(small_array.controller, cycle_delay_ms=-1.0)


def plant_latent(array, unit):
    """Mark one stripe unit latent-unreadable on its disk."""
    sector = array.addressing.unit_to_sector(unit)
    state = array.controller.disks[unit.disk].fault_state
    state.add_latent(sector, array.addressing.sectors_per_unit)
    return state


class TestLatentErrorScrub:
    """Satellite: the scrub detects and repairs latent sector errors."""

    def build_faulty_array(self):
        # A quiescent profile arms the error-outcome paths without any
        # stochastic fault source perturbing the scrub.
        return build_array(fault_profile=FaultProfile(seed=3))

    def test_latent_unit_is_detected_and_repaired(self):
        array = self.build_faulty_array()
        unit = array.layout.stripe_units(4)[1]
        state = plant_latent(array, unit)
        report = array.env.run(until=ParityScrubber(array.controller).start())
        assert report.media_errors_found == 1
        assert report.media_repairs == 1
        # The rewrite remapped the extent and restored the value.
        assert state.latent_extents == 0
        store = array.controller.datastore
        for stripe in range(array.addressing.num_stripes):
            assert store.stripe_is_consistent(stripe)

    def test_repaired_parity_passes_the_parity_check(self):
        array = self.build_faulty_array()
        parity = array.layout.stripe_unit(7, array.layout.data_units_per_stripe)
        plant_latent(array, parity)
        report = array.env.run(until=ParityScrubber(array.controller).start())
        assert report.media_repairs == 1
        assert report.mismatches_found == 0

    def test_two_latent_units_in_one_stripe_cannot_be_rebuilt(self):
        array = self.build_faulty_array()
        units = array.layout.stripe_units(9)
        plant_latent(array, units[0])
        plant_latent(array, units[2])
        report = array.env.run(until=ParityScrubber(array.controller).start())
        assert report.media_errors_found == 2
        assert report.media_repairs == 0

    def test_clean_faulty_array_scrubs_clean(self):
        array = self.build_faulty_array()
        report = array.env.run(until=ParityScrubber(array.controller).start())
        assert report.media_errors_found == 0
        assert report.media_repairs == 0
        assert report.mismatches_found == 0


class TestPQLatentErrorScrub:
    """A P+Q scrub decodes latent units from the values it has just read."""

    def scrub(self, latent_positions):
        """Scrub the SQS(8) array with latent units in stripe 4; return
        the array, the report, the planted disks' fault states, and the
        disk I/Os beyond one read of every unit."""
        # A quiescent profile arms the error-outcome paths without any
        # stochastic fault source perturbing the scrub.
        array = build_dual_array(fault_profile=FaultProfile(seed=3))
        units = array.layout.stripe_units(4)
        states = [plant_latent(array, units[i]) for i in latent_positions]
        report = array.env.run(until=ParityScrubber(array.controller).start())
        ios = sum(disk.stats.completed for disk in array.controller.disks)
        reads = array.addressing.num_stripes * array.layout.stripe_size
        return array, report, states, ios - reads

    def test_clean_scrub_reads_every_unit_once(self):
        _array, report, _states, extra_ios = self.scrub([])
        assert extra_ios == 0
        assert report.media_errors_found == report.media_repairs == 0

    @pytest.mark.parametrize("latent_positions", [[1], [0, 3]], ids=["one", "two"])
    def test_latent_units_are_decoded_without_a_second_read(self, latent_positions):
        array, report, states, extra_ios = self.scrub(latent_positions)
        assert report.media_errors_found == len(latent_positions)
        assert report.media_repairs == len(latent_positions)
        # One write per repaired unit, and no read beyond the scrub's own.
        assert extra_ios == len(latent_positions)
        assert all(state.latent_extents == 0 for state in states)
        store = array.controller.datastore
        for stripe in range(array.addressing.num_stripes):
            assert store.stripe_is_consistent(stripe)

    def test_three_latent_units_are_beyond_the_syndromes(self):
        _array, report, states, extra_ios = self.scrub([0, 1, 3])
        assert report.media_errors_found == 3
        assert report.media_repairs == 0
        assert extra_ios == 0
        assert all(state.latent_extents == 1 for state in states)
