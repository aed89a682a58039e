"""Dual-syndrome (P+Q) controller paths: degraded reads and writes.

Exercises the RAID-6 machinery end to end against the datastore: a
dual array must serve every data unit bit-exactly with up to two
concurrent disk failures, keep both checks consistent through every
write path, and reject (or gracefully account) a third failure.
"""

import pytest

from repro.array import syndromes as gf
from repro.array.datastore import initial_data_pattern
from repro.array.faults import DataLossError
from repro.recon import REDIRECT_PIGGYBACK
from tests.conftest import build_dual_array


def all_stripes_consistent(array):
    store = array.controller.datastore
    return all(
        store.stripe_is_consistent(stripe)
        for stripe in range(array.addressing.num_stripes)
    )


def find_logical_on_disk(array, disk):
    """A logical unit whose data lives on ``disk``."""
    for logical in range(array.addressing.num_data_units):
        if array.addressing.logical_unit_address(logical).disk == disk:
            return logical
    raise AssertionError(f"no data units on disk {disk}")


def read_all_data(array):
    controller = array.controller
    done = controller.read(0, num_units=array.addressing.num_data_units)
    return array.env.run(until=done)


class TestFaultFreeDual:
    def test_initial_store_is_consistent(self, dual_array):
        assert all_stripes_consistent(dual_array)

    def test_reads_take_the_normal_path(self, dual_array):
        request = read_all_data(dual_array)
        assert set(request.paths) == {"read"}
        assert not request.lost_units

    def test_single_unit_write_is_pq_rmw(self, dual_array):
        request = dual_array.run_op(dual_array.controller.write(0, values=[0xAB]))
        assert request.paths == ["pq-rmw-write"]
        assert all_stripes_consistent(dual_array)

    def test_aligned_write_takes_large_write_path(self, dual_array):
        g_data = dual_array.layout.data_units_per_stripe
        values = list(range(1, g_data + 1))
        request = dual_array.run_op(dual_array.controller.write(0, values=values))
        assert request.paths == ["large-write"]
        assert all_stripes_consistent(dual_array)

    def test_random_writes_keep_both_checks_consistent(self, dual_array):
        controller = dual_array.controller
        num_units = dual_array.addressing.num_data_units
        for step in range(40):
            logical = (step * 17) % num_units
            dual_array.run_op(controller.write(logical, values=[step * 0x1234567]))
        assert all_stripes_consistent(dual_array)


class TestSingleDegradedDual:
    def test_failed_data_decodes_on_the_fly(self, dual_array):
        controller = dual_array.controller
        controller.fail_disk(2)
        request = read_all_data(dual_array)
        assert not request.lost_units
        assert "on-the-fly-read" in request.paths
        assert "double-degraded-read" not in request.paths
        for logical in range(dual_array.addressing.num_data_units):
            assert request.read_values[logical] == initial_data_pattern(
                *astuple(dual_array, logical)
            )

    def test_degraded_writes_fold_into_survivors(self, dual_array):
        controller = dual_array.controller
        failed = 2
        controller.fail_disk(failed)
        logical = find_logical_on_disk(dual_array, failed)
        request = dual_array.run_op(controller.write(logical, values=[0x77]))
        assert request.paths == ["pq-fold-write"]
        # The folded value decodes back out of the survivors.
        read = dual_array.run_op(controller.read(logical))
        assert read.read_values == [0x77]

    def test_write_with_dead_check_is_pq_degraded(self, dual_array):
        controller = dual_array.controller
        layout = dual_array.layout
        # Find a logical unit whose stripe has its P on the failed disk.
        failed = 3
        controller.fail_disk(failed)
        target = None
        for logical in range(dual_array.addressing.num_data_units):
            stripe = layout.stripe_of_logical(logical)
            dead_checks = {unit.disk for unit in layout.stripe_units(stripe)[-2:]}
            if (
                failed in dead_checks
                and dual_array.addressing.logical_unit_address(logical).disk != failed
            ):
                target = logical
                break
        assert target is not None
        request = dual_array.run_op(controller.write(target, values=[0x55]))
        assert request.paths == ["pq-degraded-write"]
        read = dual_array.run_op(controller.read(target))
        assert read.read_values == [0x55]


class TestDoubleDegradedDual:
    def test_all_data_survives_two_failures(self, dual_array):
        controller = dual_array.controller
        controller.fail_disk(1)
        controller.fail_disk(5)
        request = read_all_data(dual_array)
        assert not request.lost_units
        assert "double-degraded-read" in request.paths
        for logical in range(dual_array.addressing.num_data_units):
            assert request.read_values[logical] == initial_data_pattern(
                *astuple(dual_array, logical)
            )

    def test_writes_survive_two_failures(self, dual_array):
        controller = dual_array.controller
        controller.fail_disk(1)
        controller.fail_disk(5)
        num_units = dual_array.addressing.num_data_units
        for logical in range(num_units):
            dual_array.run_op(controller.write(logical, values=[logical * 3 + 1]))
        request = read_all_data(dual_array)
        assert not request.lost_units
        assert request.read_values == [
            logical * 3 + 1 for logical in range(num_units)
        ]

    def test_third_failure_raises_without_opt_in(self, dual_array):
        controller = dual_array.controller
        controller.fail_disk(1)
        controller.fail_disk(5)
        with pytest.raises(DataLossError):
            controller.fail_disk(6)

    def test_double_failure_on_cyclic_raid6(self):
        array = build_dual_array(num_disks=6)
        array.controller.fail_disk(0)
        array.controller.fail_disk(3)
        request = read_all_data(array)
        assert not request.lost_units


class TestDualReplacementPaths:
    def test_reconstruct_write_lands_on_replacement(self, dual_array):
        controller = dual_array.controller
        controller.algorithm = REDIRECT_PIGGYBACK
        failed = 2
        controller.fail_disk(failed)
        controller.install_replacement(failed)
        logical = find_logical_on_disk(dual_array, failed)
        request = dual_array.run_op(controller.write(logical, values=[0x99]))
        assert request.paths == ["pq-reconstruct-write"]
        address = dual_array.addressing.logical_unit_address(logical)
        assert controller.recon_statuses[failed].is_built(address.offset)
        read = dual_array.run_op(controller.read(logical))
        assert read.paths == ["redirected-read"]
        assert read.read_values == [0x99]

    def test_piggyback_populates_replacement(self, dual_array):
        controller = dual_array.controller
        controller.algorithm = REDIRECT_PIGGYBACK
        failed = 2
        controller.fail_disk(failed)
        controller.install_replacement(failed)
        logical = find_logical_on_disk(dual_array, failed)
        first = dual_array.run_op(controller.read(logical))
        assert first.paths == ["on-the-fly-read"]
        assert controller.stats.piggyback_writes == 1
        # Let the piggyback write (spawned holding the stripe lock) land.
        dual_array.env.run(until=dual_array.env.timeout(1_000.0))
        second = dual_array.run_op(controller.read(logical))
        assert second.paths == ["redirected-read"]

    def test_q_unit_syndrome_matches_gf_arithmetic(self, dual_array):
        store = dual_array.controller.datastore
        for stripe in range(dual_array.addressing.num_stripes):
            units = dual_array.layout.stripe_units(stripe)
            *data, p, q = [store.read_unit(*unit) for unit in units]
            assert q == gf.q_of(data)
            assert p == gf.p_of(data)


def astuple(array, logical):
    address = array.addressing.logical_unit_address(logical)
    return address.disk, address.offset
