"""Graceful data loss, foreground repair, and hard-error escalation.

These are the controller-level contracts of the fault-injection
subsystem: a second concurrent failure is *recorded* rather than
raised when fault injection is on, requests touching destroyed
stripes take the accounted ``data-loss`` path, latent media errors
are repaired in-line from parity, and a disk that exhausts its
retries too often is escalated to a whole-disk failure.
"""

import pytest

from repro.array import DataLossError
from repro.array.datastore import initial_data_pattern
from repro.faults.log import (
    DATA_LOSS,
    DATA_LOSS_ACCESS,
    ESCALATION,
    FOREGROUND_REPAIR,
    MEDIA_ERROR,
    RETRY,
    RETRY_EXHAUSTED,
)
from repro.faults.profile import FaultProfile
from tests.conftest import build_array

QUIESCENT = FaultProfile(seed=3)  # fault paths armed, no stochastic sources


def find_logical_touching_both(array, disk_a, disk_b):
    """A logical data unit whose stripe has units on both given disks."""
    layout = array.layout
    for logical in range(array.addressing.num_data_units):
        stripe = layout.stripe_of_logical(logical)
        disks = {u.disk for u in layout.stripe_units(stripe)}
        if disk_a in disks and disk_b in disks:
            return logical
    raise AssertionError(f"no stripe touches both disks {disk_a} and {disk_b}")


def find_live_logical_singly_exposed(array, disk_a, disk_b):
    """A logical unit on a live disk whose stripe touches at most one of
    the two given disks (so one XOR recovery still covers it)."""
    layout = array.layout
    for logical in range(array.addressing.num_data_units):
        stripe = layout.stripe_of_logical(logical)
        disks = {u.disk for u in layout.stripe_units(stripe)}
        own = layout.logical_to_physical(logical).disk
        if own not in (disk_a, disk_b) and not {disk_a, disk_b} <= disks:
            return logical
    raise AssertionError(f"every stripe touches both disks {disk_a} and {disk_b}")


class TestGracefulDoubleFailure:
    def test_without_opt_in_the_second_failure_still_raises(self, small_array):
        small_array.controller.fail_disk(1)
        with pytest.raises(DataLossError, match="second failure") as exc_info:
            small_array.controller.fail_disk(2)
        assert exc_info.value.failed_disks == (1, 2)

    def test_data_loss_error_is_a_runtime_error(self):
        # Source compatibility: pre-existing callers catch RuntimeError.
        assert issubclass(DataLossError, RuntimeError)

    def test_opt_in_records_instead_of_raising(self):
        array = build_array(fault_profile=QUIESCENT)
        array.controller.fail_disk(1)
        array.controller.fail_disk(2)  # must not raise
        faults = array.controller.faults
        assert faults.data_lost
        assert not faults.fault_free
        assert faults.failed_disk == 1
        assert faults.lost_disks == {2}
        [event] = faults.data_loss_events
        assert event.disk == 2
        assert event.all_failed_disks == (1, 2)
        assert len(event.exposed_stripes) > 0
        assert array.controller.fault_log.count(DATA_LOSS) == 1

    def test_exposed_stripes_are_exactly_the_double_hits(self):
        array = build_array(fault_profile=QUIESCENT)
        array.controller.fail_disk(1)
        array.controller.fail_disk(2)
        [event] = array.controller.faults.data_loss_events
        expected = [
            stripe
            for stripe in range(array.addressing.num_stripes)
            if {1, 2}
            <= {u.disk for u in array.layout.stripe_units(stripe)}
        ]
        assert list(event.exposed_stripes) == expected


class TestDataLossAccounting:
    def build_lost_array(self):
        array = build_array(fault_profile=QUIESCENT)
        array.controller.fail_disk(1)
        array.controller.fail_disk(2)
        return array

    def test_read_of_a_doubly_exposed_stripe_is_accounted(self):
        array = self.build_lost_array()
        logical = find_logical_touching_both(array, 1, 2)
        request = array.run_op(array.controller.read(logical))
        assert request.data_lost
        assert request.lost_units == [logical]
        assert request.paths == ["data-loss"]
        assert array.controller.fault_log.count(DATA_LOSS_ACCESS) == 1

    def test_write_to_a_doubly_exposed_stripe_is_accounted(self):
        array = self.build_lost_array()
        logical = find_logical_touching_both(array, 1, 2)
        request = array.run_op(array.controller.write(logical, values=[0xDEAD]))
        assert request.data_lost
        assert request.paths == ["data-loss"]

    def test_surviving_stripes_still_serve_reads(self):
        array = self.build_lost_array()
        logical = find_live_logical_singly_exposed(array, 1, 2)
        address = array.addressing.logical_unit_address(logical)
        request = array.run_op(array.controller.read(logical))
        assert not request.data_lost
        assert request.paths == ["read"]
        assert request.read_values == [
            initial_data_pattern(address.disk, address.offset)
        ]


class TestForegroundRepair:
    def test_latent_read_is_repaired_from_parity(self):
        array = build_array(fault_profile=QUIESCENT)
        controller = array.controller
        logical = 0
        address = array.addressing.logical_unit_address(logical)
        sector = array.addressing.unit_to_sector(address)
        state = controller.disks[address.disk].fault_state
        state.add_latent(sector, array.addressing.sectors_per_unit)
        request = array.run_op(controller.read(logical))
        assert request.paths == ["repaired-read"]
        assert request.read_values == [
            initial_data_pattern(address.disk, address.offset)
        ]
        # The rewrite remapped the latent extent: the unit reads
        # cleanly (and cheaply) from then on.
        assert state.latent_extents == 0
        assert controller.fault_log.count(MEDIA_ERROR) == 1
        assert controller.fault_log.count(FOREGROUND_REPAIR) == 1
        # A media error is deterministic: it is repaired, never retried.
        assert controller.fault_log.count(RETRY) == 0
        again = array.run_op(controller.read(logical))
        assert again.paths == ["read"]


class TestRetryAndEscalation:
    def test_retries_back_off_then_give_up(self):
        profile = FaultProfile(transient_error_prob=1.0, escalation_threshold=100,
                               seed=3)
        array = build_array(fault_profile=profile)
        logical = 0
        target = array.addressing.logical_unit_address(logical)
        array.run_op(array.controller.read(logical))
        log = array.controller.fault_log
        target_retries = [e for e in log.of_kind(RETRY) if e.disk == target.disk]
        assert [e.detail for e in target_retries] == [
            "attempt 1, backoff 0.50 ms",
            "attempt 2, backoff 1.00 ms",
            "attempt 3, backoff 2.00 ms",
        ]
        exhausted = [
            e for e in log.of_kind(RETRY_EXHAUSTED) if e.disk == target.disk
        ]
        assert len(exhausted) == 1

    def test_exhausted_retries_escalate_to_disk_failure(self):
        # Satellite contract: a disk whose accesses keep timing out
        # crosses the hard-error threshold and is declared failed.
        profile = FaultProfile(transient_error_prob=1.0, escalation_threshold=1,
                               seed=3)
        array = build_array(fault_profile=profile)
        logical = 0
        target = array.addressing.logical_unit_address(logical)
        array.run_op(array.controller.read(logical))  # must not raise
        log = array.controller.fault_log
        assert log.count(ESCALATION) >= 1
        assert log.of_kind(ESCALATION)[0].disk == target.disk
        assert not array.controller.faults.fault_free

    def test_escalation_routes_through_the_failure_callback(self):
        profile = FaultProfile(transient_error_prob=1.0, escalation_threshold=1,
                               seed=3)
        escalated = []
        array = build_array(fault_profile=profile)
        array.controller.on_disk_failure = escalated.append
        logical = 0
        target = array.addressing.logical_unit_address(logical)
        array.run_op(array.controller.read(logical))
        assert target.disk in escalated
        # The callback owns the failure decision: the controller did
        # not fail the disk itself.
        assert array.controller.faults.fault_free

    def test_a_failed_disk_is_not_escalated_again(self):
        # Logical units 0 and 3 are both on disk 0. The first read to
        # exhaust its retries escalates the disk; the second one's hard
        # error finds it failed already.
        profile = FaultProfile(transient_error_prob=1.0, escalation_threshold=1,
                               seed=3)
        array = build_array(fault_profile=profile)
        controller = array.controller
        assert {array.addressing.logical_unit_address(n).disk for n in (0, 3)} == {0}
        reads = [controller.read(0), controller.read(3)]
        array.env.run(until=array.env.all_of(reads))
        escalated = [e.disk for e in controller.fault_log.of_kind(ESCALATION)]
        assert escalated[0] == 0
        assert len(escalated) == len(set(escalated))
        assert controller.disks[0].fault_state.hard_errors == 2
