"""Unit tests for the fault state machine."""

import pytest

from repro.array import ArrayFaults
from repro.array.faults import DataLossError


class TestFaultTransitions:
    def test_initially_fault_free(self):
        faults = ArrayFaults(5)
        assert faults.fault_free
        assert faults.failed_disks == ()
        assert not any(faults.is_down(d) for d in range(5))
        assert not any(faults.is_unreplaced(d) for d in range(5))

    def test_fail_marks_disk(self):
        faults = ArrayFaults(5)
        faults.fail(2)
        assert not faults.fault_free
        assert faults.failed_disks == (2,)
        assert faults.is_down(2) and faults.is_unreplaced(2)
        assert not faults.is_down(1) and not faults.is_unreplaced(1)

    def test_replacement_transitions_to_reconstructing(self):
        faults = ArrayFaults(5)
        faults.fail(2)
        faults.install_replacement()
        assert faults.failed_disks == (2,)
        assert faults.is_down(2) and not faults.is_unreplaced(2)
        assert not faults.is_down(1) and not faults.is_unreplaced(1)

    def test_repair_complete_restores_fault_free(self):
        faults = ArrayFaults(5)
        faults.fail(2)
        faults.install_replacement()
        faults.repair_complete()
        assert faults.fault_free
        assert not faults.is_down(2) and not faults.is_unreplaced(2)

    def test_second_failure_rejected(self):
        faults = ArrayFaults(5)
        faults.fail(2)
        with pytest.raises(RuntimeError, match="second failure"):
            faults.fail(3)

    def test_failure_cycle_can_repeat_after_repair(self):
        faults = ArrayFaults(5)
        faults.fail(2)
        faults.install_replacement()
        faults.repair_complete()
        faults.fail(4)
        assert faults.failed_disk == 4

    def test_replacement_without_failure_rejected(self):
        with pytest.raises(RuntimeError):
            ArrayFaults(5).install_replacement()

    def test_double_replacement_rejected(self):
        faults = ArrayFaults(5)
        faults.fail(0)
        faults.install_replacement()
        with pytest.raises(RuntimeError):
            faults.install_replacement()

    def test_repair_without_replacement_rejected(self):
        faults = ArrayFaults(5)
        faults.fail(0)
        with pytest.raises(RuntimeError):
            faults.repair_complete()

    def test_out_of_range_disk_rejected(self):
        with pytest.raises(ValueError):
            ArrayFaults(5).fail(5)

    def test_lost_disk_is_down_and_unreplaced(self):
        faults = ArrayFaults(5)
        faults.fail(2)
        faults.install_replacement()
        faults.fail(4, allow_data_loss=True)
        assert faults.failed_disks == (2,)
        assert faults.is_down(4) and faults.is_unreplaced(4)
        assert faults.is_down(2) and not faults.is_unreplaced(2)


class TestDeterministicOrdering:
    """Regression tests pinning the sorted-tuple idiom (simlint DET004).

    Failure records are built from sets; cache keys and result documents
    embed them, so their ordering must not depend on insertion order.
    """

    def test_concurrent_failures_sorted_regardless_of_failure_order(self):
        faults = ArrayFaults(8)
        faults.fail(5)
        faults.fail(1, allow_data_loss=True)
        event = faults.fail(6, allow_data_loss=True)
        assert event.concurrent_failures == (1, 5)
        assert event.all_failed_disks == (1, 5, 6)

    def test_reversed_failure_order_yields_identical_tuples(self):
        forward = ArrayFaults(8)
        forward.fail(1)
        forward.fail(5, allow_data_loss=True)
        backward = ArrayFaults(8)
        backward.fail(5)
        backward.fail(1, allow_data_loss=True)
        next_forward = forward.fail(3, allow_data_loss=True)
        next_backward = backward.fail(3, allow_data_loss=True)
        assert next_forward.concurrent_failures == (1, 5)
        assert (
            next_forward.concurrent_failures
            == next_backward.concurrent_failures
        )
        assert next_forward.all_failed_disks == next_backward.all_failed_disks

    def test_data_loss_error_lists_disks_sorted(self):
        faults = ArrayFaults(8)
        faults.fail(6)
        with pytest.raises(DataLossError) as exc_info:
            faults.fail(2)
        assert exc_info.value.failed_disks == (6, 2)
        # The concurrent (already-down) prefix is sorted; the new disk
        # is appended last so callers can tell which failure lost data.
        assert exc_info.value.failed_disks[:-1] == tuple(
            sorted(exc_info.value.failed_disks[:-1])
        )
