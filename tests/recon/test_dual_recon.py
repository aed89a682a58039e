"""Reconstruction on dual-syndrome arrays.

The tentpole robustness property: a P+Q rebuild interrupted by a
*second* disk failure resumes and completes — decoding each remaining
unit through the other failure via the surviving syndrome — instead of
aborting or surrendering stripes.
"""

from repro.array import syndromes as gf
from repro.array.datastore import initial_data_pattern
from repro.array.sparing import SparePool
from repro.layout.base import PARITY_ROLE, Q_ROLE
from repro.recon import Reconstructor


def disk_is_bit_exact(array, disk):
    """Every unit of ``disk`` matches its pre-failure contents.

    Expected values come from the deterministic initial pattern (no
    user writes run in these tests), so the check stays valid even
    while *another* disk is still dead and poisoned.
    """
    layout = array.layout
    store = array.controller.datastore
    for offset in range(array.addressing.mapped_units_per_disk):
        stripe, role = layout.stripe_of(disk, offset)
        data = [
            initial_data_pattern(unit.disk, unit.offset)
            for unit in layout.stripe_units(stripe)[: layout.data_units_per_stripe]
        ]
        if role == PARITY_ROLE:
            expected = gf.p_of(data)
        elif role == Q_ROLE:
            expected = gf.q_of(data)
        else:
            expected = initial_data_pattern(disk, offset)
        if store.read_unit(disk, offset) != expected:
            return False
    return True


def rebuild(array, disk, workers=4):
    controller = array.controller
    controller.install_replacement(disk)
    reconstructor = Reconstructor(controller, workers=workers, disk=disk)
    done = reconstructor.start()
    array.env.run(until=done)
    return reconstructor


class TestDualRebuild:
    def test_single_failure_rebuild_is_bit_exact(self, dual_array):
        dual_array.controller.fail_disk(2)
        reconstructor = rebuild(dual_array, 2)
        assert dual_array.controller.faults.fault_free
        assert reconstructor.lost_units == 0
        assert disk_is_bit_exact(dual_array, 2)

    def test_rebuild_while_second_disk_is_down(self, dual_array):
        """Both failures present before the first rebuild starts."""
        controller = dual_array.controller
        controller.fail_disk(1)
        controller.fail_disk(5)
        first = rebuild(dual_array, 1)
        assert first.lost_units == 0
        assert disk_is_bit_exact(dual_array, 1)
        second = rebuild(dual_array, 5)
        assert second.lost_units == 0
        assert disk_is_bit_exact(dual_array, 5)
        assert controller.faults.fault_free

    def test_second_failure_mid_sweep_does_not_abort(self, dual_array):
        """The acceptance scenario: a rebuild interrupted by a second
        failure completes, resuming rather than aborting."""
        controller = dual_array.controller
        env = dual_array.env
        controller.fail_disk(1)
        controller.install_replacement(1)
        reconstructor = Reconstructor(controller, workers=1, disk=1)
        done = reconstructor.start()
        # Let the sweep get partway, then kill a second disk under it.
        env.run(until=env.timeout(200.0))
        status = controller.recon_statuses[1]
        assert 0 < status.built_count < status.total_units
        controller.fail_disk(5)
        env.run(until=done)
        assert reconstructor.lost_units == 0
        assert disk_is_bit_exact(dual_array, 1)
        # The second failure is still rebuildable afterwards.
        second = rebuild(dual_array, 5)
        assert second.lost_units == 0
        assert disk_is_bit_exact(dual_array, 5)
        assert controller.faults.fault_free

    def test_concurrent_rebuilds_through_spare_pool(self, dual_array):
        controller = dual_array.controller
        env = dual_array.env
        pool = SparePool(controller, spares=2, recon_workers=2)
        first_done = pool.handle_failure(1)
        env.run(until=env.timeout(100.0))
        second_done = pool.handle_failure(5)
        # Let the second repair process install its replacement; both
        # rebuilds are then in flight at once.
        env.run(until=env.timeout(1.0))
        assert len(controller.recon_statuses) == 2
        env.run(until=env.all_of([first_done, second_done]))
        assert controller.faults.fault_free
        assert pool.spares_remaining == 0
        assert [r.failed_disk for r in pool.repairs] == [1, 5]
        assert disk_is_bit_exact(dual_array, 1)
        assert disk_is_bit_exact(dual_array, 5)
