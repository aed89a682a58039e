"""The stripe vs row-major data mappings: criteria 5 and 6 trade off."""

import pytest

from repro.designs import complete_design, paper_design
from repro.experiments.builders import build_layout
from repro.layout import DeclusteredLayout, LayoutError
from repro.layout.criteria import (
    check_large_write_optimization,
    check_maximal_parallelism,
)


def layouts(g=4, v=5):
    design = complete_design(v, g) if v != 21 else paper_design(g)
    return (
        DeclusteredLayout(design),
        DeclusteredLayout(design, data_mapping="row-major"),
    )


class TestRowMajorMapping:
    def test_roundtrip(self):
        _, layout = layouts()
        for logical in range(3 * layout.data_units_per_table):
            address = layout.logical_to_physical(logical)
            assert layout.physical_to_logical(address.disk, address.offset) == logical

    def test_parity_slots_have_no_logical_number(self):
        _, layout = layouts()
        parity = layout.stripe_unit(0, layout.data_units_per_stripe)
        assert layout.physical_to_logical(parity.disk, parity.offset) is None

    def test_consecutive_units_fill_rows(self):
        _, layout = layouts()
        # The first row of the (5,4) table has 3 data units (2 parity),
        # on disks 0, 1, 2 at offset 0 — row-major takes them first.
        first = [layout.logical_to_physical(i) for i in range(3)]
        assert [u.offset for u in first] == [0, 0, 0]
        assert [u.disk for u in first] == [0, 1, 2]

    def test_stripe_of_logical_agrees_with_physical(self):
        _, layout = layouts()
        for logical in range(layout.data_units_per_table):
            address = layout.logical_to_physical(logical)
            assert layout.stripe_of_logical(logical) == layout.stripe_of(
                address.disk, address.offset
            )[0]

    @pytest.mark.parametrize(
        "layout",
        [
            *layouts(),
            *layouts(g=5, v=21),
            build_layout(5, 5),
            build_layout(8, 4, syndromes=2),
            build_layout(6, 6, syndromes=2),
            build_layout(7, 3, layout="prime"),
            build_layout(11, 5, syndromes=2, layout="prime"),
        ],
        ids=repr,
    )
    def test_stripe_role_of_logical_agrees_with_stripe_of(self, layout):
        for logical in range(2 * layout.data_units_per_table):
            address = layout.logical_to_physical(logical)
            assert layout.stripe_role_of_logical(logical) == layout.stripe_of(
                address.disk, address.offset
            )

    def test_unknown_mapping_rejected(self):
        from repro.layout.base import TableParityLayout, UnitAddress

        table = [[UnitAddress(0, 0), UnitAddress(1, 0)]]
        with pytest.raises(LayoutError, match="data mapping"):
            TableParityLayout(2, 2, table, data_mapping="zigzag")


class TestCriteriaTradeOff:
    def test_stripe_mapping_large_write_yes_parallelism_no(self):
        stripe_layout, _ = layouts(g=4, v=21)
        assert check_large_write_optimization(stripe_layout).passed
        assert not check_maximal_parallelism(stripe_layout).passed

    def test_row_major_mapping_flips_the_trade(self):
        stripe_layout, row_layout = layouts(g=4, v=21)
        assert not check_large_write_optimization(row_layout).passed
        stripe_coverage = check_maximal_parallelism(stripe_layout).metrics[
            "mean_disk_coverage"
        ]
        row_coverage = check_maximal_parallelism(row_layout).metrics[
            "mean_disk_coverage"
        ]
        # Row-major windows cover most of the array (limited only by the
        # 1/G parity fraction); stripe-index windows repeat disks freely.
        assert row_coverage > stripe_coverage
        assert row_coverage > 0.8

    def test_supports_large_write_flag(self):
        stripe_layout, row_layout = layouts()
        assert stripe_layout.supports_large_write
        assert not row_layout.supports_large_write


class TestControllerWithRowMajor:
    def test_writes_and_reads_stay_correct(self):
        from repro.array import ArrayAddressing, ArrayController
        from repro.disk import scaled_spec
        from repro.sim import Environment

        env = Environment()
        layout = DeclusteredLayout(complete_design(5, 4), data_mapping="row-major")
        addressing = ArrayAddressing(layout, scaled_spec(5))
        controller = ArrayController(env, addressing, with_datastore=True)

        def run_op(event):
            return env.run(until=event)

        run_op(controller.write(0, values=[1, 2, 3, 4, 5]))
        request = run_op(controller.read(0, num_units=5))
        assert request.read_values == [1, 2, 3, 4, 5]
        # No large-write path: the mapping cannot guarantee alignment.
        assert "large-write" not in controller.stats.by_path
        for stripe in range(addressing.num_stripes):
            assert controller.datastore.stripe_is_consistent(stripe)

    def test_wide_read_touches_more_disks_than_stripe_mapping(self):
        from repro.array import ArrayAddressing, ArrayController
        from repro.disk import scaled_spec
        from repro.sim import Environment

        def disks_touched(data_mapping):
            env = Environment()
            layout = DeclusteredLayout(
                complete_design(5, 4), data_mapping=data_mapping
            )
            addressing = ArrayAddressing(layout, scaled_spec(5))
            controller = ArrayController(env, addressing)
            env.run(until=controller.read(0, num_units=5))
            return sum(1 for disk in controller.disks if disk.stats.completed)

        assert disks_touched("row-major") >= disks_touched("stripe")
