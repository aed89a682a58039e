"""G=2 stripes as mirrors: interleaved declustering (Copeland & Keller).

With one data unit per stripe, the parity unit is a byte-identical
copy, so a complete (C, 2) design is exactly the related-work section's
interleaved declustering: each disk's secondary data spread over all
other disks.
"""

import pytest

from repro.recon import Reconstructor
from tests.conftest import build_array, total_disk_accesses


def mirrored_array(**overrides):
    return build_array(num_disks=5, stripe_size=2, **overrides)


class TestMirroredWrites:
    def test_write_costs_two_accesses_no_prereads(self):
        # With G=2 every aligned write is a full-stripe write, so the
        # large-write path provides mirrored two-access writes for free.
        array = mirrored_array()
        array.run_op(array.controller.write(0, values=[0xAB]))
        assert total_disk_accesses(array.controller) == 2
        assert array.controller.stats.by_path == {"large-write": 1}

    def test_both_copies_hold_the_value(self):
        array = mirrored_array()
        array.run_op(array.controller.write(3, values=[0xCD]))
        layout = array.layout
        store = array.controller.datastore
        stripe = layout.stripe_of_logical(3)
        data, copy = layout.stripe_units(stripe)
        assert store.read_unit(data.disk, data.offset) == 0xCD
        assert store.read_unit(copy.disk, copy.offset) == 0xCD

    def test_capacity_overhead_is_half(self):
        array = mirrored_array()
        assert array.layout.parity_overhead() == pytest.approx(0.5)


class TestMirroredReads:
    def test_read_balances_to_the_shorter_queue(self):
        array = mirrored_array(with_datastore=False)
        controller = array.controller
        layout = array.layout
        primary = layout.logical_to_physical(0)
        # Pile work onto the primary copy's disk, then read unit 0: the
        # mirror copy must serve it.
        for _ in range(6):
            controller.disks[primary.disk].access(0, 8, is_write=False)
        array.run_op(controller.read(0))
        mirror = layout.stripe_unit(layout.stripe_of_logical(0), 1)
        assert controller.disks[mirror.disk].stats.completed >= 1

    def test_balanced_read_returns_correct_value(self):
        array = mirrored_array()
        controller = array.controller
        array.run_op(controller.write(0, values=[0x77]))
        primary = array.layout.logical_to_physical(0)
        for _ in range(6):
            controller.disks[primary.disk].access(0, 8, is_write=False)
        request = array.run_op(controller.read(0))
        assert request.read_values == [0x77]

    def test_degraded_read_uses_surviving_copy(self):
        array = mirrored_array()
        controller = array.controller
        layout = array.layout
        # Find a logical unit whose primary lives on disk 2.
        logical = next(
            unit for unit in range(array.addressing.num_data_units)
            if layout.logical_to_physical(unit).disk == 2
        )
        array.run_op(controller.write(logical, values=[0x99]))
        controller.fail_disk(2)
        request = array.run_op(controller.read(logical))
        # One access to the mirror (G-1 = 1): mirrored degraded reads
        # are as cheap as fault-free ones.
        assert request.read_values == [0x99]
        assert request.paths == ["on-the-fly-read"]


class TestMirroredRecovery:
    def test_reconstruction_copies_from_mirrors(self):
        from tests.recon.test_sweeper import replacement_is_bit_exact

        array = mirrored_array()
        controller = array.controller
        controller.fail_disk(1)
        controller.install_replacement()
        array.env.run(until=Reconstructor(controller, workers=4).start())
        assert replacement_is_bit_exact(array)

    def test_reconstruction_reads_one_unit_per_cycle(self):
        array = mirrored_array()
        controller = array.controller
        controller.fail_disk(1)
        controller.install_replacement()
        reconstructor = Reconstructor(controller, workers=1)
        array.env.run(until=reconstructor.start())
        # Each cycle: 1 mirror read + 1 replacement write.
        reads = sum(
            d.stats.completed_by_kind.get("recon", 0)
            for i, d in enumerate(controller.disks) if i != 1
        )
        assert reads == reconstructor.result().swept_units
