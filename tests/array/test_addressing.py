"""Unit tests for array addressing and mapped capacity."""

import pytest

from repro.array import ArrayAddressing
from repro.designs import complete_design
from repro.disk import scaled_spec
from repro.layout import DeclusteredLayout, LeftSymmetricRaid5Layout, UnitAddress


def make_addressing(cylinders=10, stripe_size=4, num_disks=5):
    layout = DeclusteredLayout(complete_design(num_disks, stripe_size))
    return ArrayAddressing(layout, scaled_spec(cylinders))


class TestCapacity:
    def test_units_per_disk(self):
        addressing = make_addressing(cylinders=10)
        # 10 cylinders * 14 tracks * 48 sectors / 8 sectors per unit.
        assert addressing.units_per_disk == 840

    def test_whole_tables_only(self):
        addressing = make_addressing(cylinders=10)
        depth = addressing.layout.table_depth  # 16 for the (5,4) design
        assert addressing.mapped_units_per_disk == (840 // depth) * depth

    def test_stripe_and_data_unit_counts(self):
        addressing = make_addressing()
        layout = addressing.layout
        assert addressing.num_stripes == addressing.tables_per_disk * layout.stripes_per_table
        assert addressing.num_data_units == addressing.num_stripes * 3  # G-1

    def test_data_capacity_bytes(self):
        addressing = make_addressing()
        assert addressing.data_capacity_bytes == addressing.num_data_units * 4096

    def test_raid5_capacity(self):
        addressing = ArrayAddressing(LeftSymmetricRaid5Layout(5), scaled_spec(10))
        assert addressing.mapped_units_per_disk == 840  # depth 5 divides 840

    def test_disk_too_small_for_one_table_rejected(self):
        deep_layout = DeclusteredLayout(complete_design(10, 4))  # depth 336
        with pytest.raises(ValueError, match="full layout table"):
            ArrayAddressing(deep_layout, scaled_spec(2))


class TestConversion:
    def test_unit_to_sector(self):
        addressing = make_addressing()
        assert addressing.unit_to_sector(UnitAddress(0, 0)) == 0
        assert addressing.unit_to_sector(UnitAddress(0, 5)) == 40

    def test_unit_beyond_mapped_capacity_rejected(self):
        addressing = make_addressing()
        with pytest.raises(ValueError, match="mapped capacity"):
            addressing.unit_to_sector(UnitAddress(0, addressing.mapped_units_per_disk))

    def test_logical_bounds_checked(self):
        addressing = make_addressing()
        addressing.logical_unit_address(0)
        addressing.logical_unit_address(addressing.num_data_units - 1)
        with pytest.raises(ValueError):
            addressing.logical_unit_address(addressing.num_data_units)

    def test_non_sector_multiple_unit_rejected(self):
        layout = DeclusteredLayout(complete_design(5, 4))
        with pytest.raises(ValueError, match="whole"):
            ArrayAddressing(layout, scaled_spec(10), stripe_unit_bytes=1000)
