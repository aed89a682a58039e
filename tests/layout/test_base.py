"""Unit tests for the table-based layout machinery."""

import pytest

from repro.layout import (
    PARITY_ROLE,
    LayoutError,
    LeftSymmetricRaid5Layout,
    ParityLayout,
    TableParityLayout,
    UnitAddress,
)


def tiny_layout() -> ParityLayout:
    """A hand-built 3-disk, G=2 (mirror-like) layout for edge testing."""
    table = [
        [UnitAddress(0, 0), UnitAddress(1, 0)],
        [UnitAddress(1, 1), UnitAddress(2, 0)],
        [UnitAddress(2, 1), UnitAddress(0, 1)],
    ]
    return TableParityLayout(num_disks=3, stripe_size=2, table=table, name="tiny")


class TestTableValidation:
    def test_valid_table_accepted(self):
        layout = tiny_layout()
        assert layout.table_depth == 2
        assert layout.stripes_per_table == 3

    def test_empty_table_rejected(self):
        with pytest.raises(LayoutError, match="empty"):
            TableParityLayout(num_disks=2, stripe_size=2, table=[])

    def test_wrong_stripe_size_rejected(self):
        with pytest.raises(LayoutError, match="units"):
            TableParityLayout(
                num_disks=3,
                stripe_size=3,
                table=[[UnitAddress(0, 0), UnitAddress(1, 0)]],
            )

    def test_double_assignment_rejected(self):
        with pytest.raises(LayoutError, match="twice"):
            TableParityLayout(
                num_disks=2,
                stripe_size=2,
                table=[
                    [UnitAddress(0, 0), UnitAddress(1, 0)],
                    [UnitAddress(0, 0), UnitAddress(1, 1)],
                ],
            )

    def test_unbalanced_depths_rejected(self):
        with pytest.raises(LayoutError, match="tile"):
            TableParityLayout(
                num_disks=3,
                stripe_size=2,
                table=[
                    [UnitAddress(0, 0), UnitAddress(1, 0)],
                    [UnitAddress(0, 1), UnitAddress(1, 1)],
                ],
            )

    def test_gap_in_offsets_rejected(self):
        with pytest.raises(LayoutError, match="tile"):
            TableParityLayout(
                num_disks=2,
                stripe_size=2,
                table=[[UnitAddress(0, 0), UnitAddress(1, 1)]],
            )

    def test_disk_out_of_range_rejected(self):
        with pytest.raises(LayoutError, match="outside"):
            TableParityLayout(
                num_disks=2,
                stripe_size=2,
                table=[[UnitAddress(0, 0), UnitAddress(5, 0)]],
            )

    def test_stripe_size_bounds(self):
        with pytest.raises(LayoutError):
            TableParityLayout(num_disks=3, stripe_size=1, table=[[UnitAddress(0, 0)]])
        with pytest.raises(LayoutError, match="exceeds"):
            TableParityLayout(
                num_disks=2,
                stripe_size=3,
                table=[[UnitAddress(0, 0), UnitAddress(1, 0), UnitAddress(0, 1)]],
            )


class TestMappings:
    def test_forward_inverse_roundtrip_within_table(self):
        layout = tiny_layout()
        assert layout.unit_roles == (0, PARITY_ROLE)
        for stripe in range(layout.stripes_per_table):
            for i, role in enumerate(layout.unit_roles):
                address = layout.stripe_unit(stripe, i)
                assert layout.stripe_of(address.disk, address.offset) == (stripe, role)

    def test_tiling_advances_offsets_and_stripes(self):
        layout = tiny_layout()
        base = layout.stripe_unit(0, 0)
        tiled = layout.stripe_unit(layout.stripes_per_table, 0)
        assert tiled.disk == base.disk
        assert tiled.offset == base.offset + layout.table_depth

    def test_stripe_of_beyond_first_table(self):
        layout = tiny_layout()
        stripe, role = layout.stripe_of(0, layout.table_depth)  # second table
        assert stripe == layout.stripes_per_table  # stripe 3's first unit
        assert role in (0, PARITY_ROLE)

    def test_logical_mapping_roundtrip(self):
        layout = LeftSymmetricRaid5Layout(5)
        for logical in range(40):
            address = layout.logical_to_physical(logical)
            assert layout.physical_to_logical(address.disk, address.offset) == logical

    def test_parity_units_map_to_none(self):
        layout = LeftSymmetricRaid5Layout(5)
        parity = layout.stripe_unit(0, layout.data_units_per_stripe)
        assert layout.physical_to_logical(parity.disk, parity.offset) is None

    def test_invalid_role_rejected(self):
        layout = tiny_layout()
        with pytest.raises(LayoutError):
            layout.stripe_unit(0, 5)
        with pytest.raises(LayoutError):
            layout.stripe_unit(0, 2)  # G=2: unit indices 0 and 1 only
        with pytest.raises(LayoutError):
            layout.stripe_unit(0, -1)  # refused, not wrapped to the last unit

    def test_negative_addresses_rejected(self):
        layout = tiny_layout()
        with pytest.raises(LayoutError):
            layout.stripe_of(0, -1)
        with pytest.raises(LayoutError):
            layout.logical_to_physical(-1)
        with pytest.raises(LayoutError):
            layout.stripe_of(9, 0)

    def test_stripe_units_ordering(self):
        layout = tiny_layout()
        units = layout.stripe_units(0)
        assert units == [layout.stripe_unit(0, i) for i in range(2)]
        assert layout.stripe_of(*units[-1]) == (0, PARITY_ROLE)


class TestStripeSizeMessages:
    def test_g1_message_names_syndrome_arithmetic(self):
        # G=1 must fail through the syndrome-count bound (the old
        # separate `stripe_size < 2` guard was unreachable dead code).
        with pytest.raises(
            LayoutError,
            match=r"stripe size 1 leaves no data units beside 1 syndrome unit\(s\)",
        ):
            TableParityLayout(num_disks=3, stripe_size=1, table=[[UnitAddress(0, 0)]])

    def test_g2_dual_syndrome_message(self):
        with pytest.raises(
            LayoutError,
            match=r"stripe size 2 leaves no data units beside 2 syndrome unit\(s\)",
        ):
            TableParityLayout(
                num_disks=3,
                stripe_size=2,
                table=[[UnitAddress(0, 0), UnitAddress(1, 0)]],
                num_syndromes=2,
            )


class TestBoundedCaches:
    def test_cache_never_exceeds_one_period(self):
        # Regression: the old _unit_cache/_l2p_cache grew one entry per
        # distinct address for the life of the layout — a full-disk
        # scan over many table iterations leaked without bound. The
        # data mapping holds one table's worth of slots, however deep
        # a scan goes.
        layout = LeftSymmetricRaid5Layout(5)
        period = layout.data_units_per_table
        for logical in range(period * 7):
            address = layout.logical_to_physical(logical)
            assert layout.physical_to_logical(address.disk, address.offset) == logical
        assert len(layout._data_slots) == period

    def test_arithmetic_scan_allocates_no_cache(self):
        from repro.layout import PermutationStripingLayout

        layout = PermutationStripingLayout(7, 3)
        for logical in range(layout.data_units_per_table * 3):
            address = layout.logical_to_physical(logical)
            assert layout.physical_to_logical(address.disk, address.offset) == logical
        assert layout.mapping_table_units == 0
        assert not hasattr(layout, "_data_slots")


class TestDerivedParameters:
    def test_alpha_and_overhead(self):
        layout = LeftSymmetricRaid5Layout(5)
        assert layout.declustering_ratio() == 1.0
        assert layout.parity_overhead() == pytest.approx(0.2)

    def test_render_table_shape(self):
        text = tiny_layout().render_table()
        lines = text.splitlines()
        assert "DISK0" in lines[0]
        assert len(lines) == 2 + 2  # header + rule + depth rows
