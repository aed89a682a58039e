"""Unit tests for the spare pool."""

import pytest

from repro.array.sparing import SparePool
from repro.faults.log import SPARES_EXHAUSTED, FaultLog


class TestAutomaticRepair:
    def test_hot_spare_repair_completes(self, small_array):
        pool = SparePool(small_array.controller, spares=1, recon_workers=4)
        record = small_array.env.run(until=pool.handle_failure(2))
        assert record.failed_disk == 2
        assert record.replacement_delay_ms == 0.0
        assert record.reconstruction_ms > 0
        assert small_array.controller.faults.fault_free
        assert pool.spares_remaining == 0
        assert pool.repairs == [record]

    def test_replacement_delay_is_honored(self, small_array):
        pool = SparePool(
            small_array.controller, spares=1, replacement_delay_ms=5_000.0,
            recon_workers=4,
        )
        record = small_array.env.run(until=pool.handle_failure(2))
        assert record.replacement_delay_ms == pytest.approx(5_000.0)
        assert record.total_repair_ms == pytest.approx(
            record.replacement_delay_ms + record.reconstruction_ms
        )

    def test_repair_is_bit_exact(self, small_array):
        from tests.recon.test_sweeper import replacement_is_bit_exact

        pool = SparePool(small_array.controller, spares=1, recon_workers=4)
        small_array.env.run(until=pool.handle_failure(1))
        assert replacement_is_bit_exact(small_array)

    def test_sequential_failures_consume_spares(self, small_array):
        pool = SparePool(small_array.controller, spares=2, recon_workers=4)
        small_array.env.run(until=pool.handle_failure(0))
        small_array.env.run(until=pool.handle_failure(3))
        assert pool.spares_remaining == 0
        assert [r.failed_disk for r in pool.repairs] == [0, 3]


class TestExhaustion:
    def test_no_spares_enters_degraded_forever_state(self, small_array):
        controller = small_array.controller
        controller.fault_log = FaultLog()
        pool = SparePool(controller, spares=0)
        assert pool.handle_failure(2) is None
        assert not controller.faults.fault_free
        assert pool.exhausted
        assert pool.degraded_disks == [2]
        assert pool.repairs == []
        events = controller.fault_log.of_kind(SPARES_EXHAUSTED)
        assert len(events) == 1
        assert events[0].disk == 2

    def test_degraded_forever_array_keeps_serving(self, small_array):
        """Exhaustion is not an outage: reads of the dead disk decode
        on the fly, indefinitely."""
        controller = small_array.controller
        pool = SparePool(controller, spares=0)
        pool.handle_failure(2)
        done = controller.read(0, num_units=controller.addressing.num_data_units)
        request = small_array.env.run(until=done)
        assert "on-the-fly-read" in request.paths
        assert not request.lost_units

    def test_restock_enables_future_repairs(self, small_array):
        pool = SparePool(small_array.controller, spares=1, recon_workers=4)
        small_array.env.run(until=pool.handle_failure(0))
        pool.restock()
        record = small_array.env.run(until=pool.handle_failure(4))
        assert record.failed_disk == 4

    def test_restock_does_not_resurrect_degraded_disks(self, small_array):
        controller = small_array.controller
        pool = SparePool(controller, spares=0)
        pool.handle_failure(2)
        pool.restock()
        assert pool.degraded_disks == [2]
        assert not controller.faults.fault_free

    def test_validation(self, small_array):
        with pytest.raises(ValueError):
            SparePool(small_array.controller, spares=-1)
        with pytest.raises(ValueError):
            SparePool(small_array.controller, replacement_delay_ms=-1.0)
        pool = SparePool(small_array.controller)
        with pytest.raises(ValueError):
            pool.restock(0)
