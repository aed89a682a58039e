"""Failure injected while requests are in flight.

An operation planned before the failure may touch the now-dead disk;
the driver times the access on the dead spindle, counts it, and keeps
parity arithmetic consistent because its pre-read values were sampled
before the failure poisoned the store.
"""

import pytest

from repro.faults.profile import FaultProfile
from repro.recon import Reconstructor
from tests.array.test_controller_degraded import find_logical_on_disk
from tests.conftest import build_array

FAILED = 2
#: The tolerated failure that comes first when ``FAILED`` is lost.
FIRST = 0


def _write_across_a_loss_past_the_tolerance():
    """A write's pre-reads start; then its disk is lost: it was the
    second concurrent failure of a single-parity array."""
    # Under a fault profile a failure past the tolerance is recorded as
    # data loss instead of raising.
    array = build_array(fault_profile=FaultProfile(seed=3))
    controller = array.controller
    layout = array.layout
    controller.fail_disk(FIRST)
    logical = next(
        logical
        for logical in range(array.addressing.num_data_units)
        if layout.logical_to_physical(logical).disk == FAILED
        and FIRST not in {
            unit.disk for unit in layout.stripe_units(layout.stripe_of_logical(logical))
        }
    )
    done = controller.write(logical, values=[0x5117])
    array.env.run(until=1.0)
    controller.fail_disk(FAILED)
    assert FAILED in controller.faults.lost_disks
    array.env.run(until=done)
    return controller


def _rebuild_onto_the_replacement():
    """The sweep writes every unit of the failed slot's replacement."""
    array = build_array()
    controller = array.controller
    controller.fail_disk(FAILED)
    controller.install_replacement()
    array.env.run(until=Reconstructor(controller, workers=2).start())
    assert controller.disks[FAILED].stats.completed == array.addressing.mapped_units_per_disk
    return controller


class TestStraddlingRequests:
    def test_in_flight_write_counts_straddled_access(self):
        array = build_array()
        controller = array.controller
        logical = find_logical_on_disk(array, FAILED)
        done = controller.write(logical, values=[0x5117])
        # Let the pre-reads start, then fail the disk mid-operation.
        array.env.run(until=1.0)
        controller.fail_disk(FAILED)
        array.env.run(until=done)
        assert controller.stats.straddled_accesses >= 1

    def test_parity_stays_recoverable_after_straddle(self):
        array = build_array()
        controller = array.controller
        logical = find_logical_on_disk(array, FAILED)
        done = controller.write(logical, values=[0x5117])
        array.env.run(until=1.0)
        controller.fail_disk(FAILED)
        array.env.run(until=done)
        # The straddled write's data landed on the dead disk and is
        # lost, but the parity update used pre-failure values, so
        # on-the-fly reconstruction returns the *new* value.
        request = array.run_op(controller.read(logical))
        assert request.read_values == [0x5117]

    def test_reconstruction_after_straddle_is_consistent(self):
        array = build_array()
        controller = array.controller
        logical = find_logical_on_disk(array, FAILED)
        done = controller.write(logical, values=[0xABCD])
        array.env.run(until=1.0)
        controller.fail_disk(FAILED)
        array.env.run(until=done)
        controller.install_replacement()
        array.env.run(until=Reconstructor(controller, workers=2).start())
        request = array.run_op(controller.read(logical))
        assert request.read_values == [0xABCD]
        store = controller.datastore
        for stripe in range(array.addressing.num_stripes):
            assert store.stripe_is_consistent(stripe)

    def test_quiescent_failure_has_no_straddles(self):
        array = build_array()
        controller = array.controller
        array.run_op(controller.write(0, values=[1]))
        controller.fail_disk(FAILED)
        array.run_op(controller.read(0))
        assert controller.stats.straddled_accesses == 0

    @pytest.mark.parametrize(
        "scenario, straddled",
        [(_write_across_a_loss_past_the_tolerance, 1), (_rebuild_onto_the_replacement, 0)],
        ids=["lost-slot-counted", "replaced-slot-not-counted"],
    )
    def test_straddle_count_by_slot_state(self, scenario, straddled):
        assert scenario().stats.straddled_accesses == straddled
