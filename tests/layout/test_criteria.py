"""Unit tests for the individual criterion checks on crafted layouts."""

from repro.layout import PARITY_ROLE, TableParityLayout, UnitAddress
from repro.layout.criteria import (
    check_distributed_parity,
    check_efficient_mapping,
    check_large_write_optimization,
    check_single_failure_correcting,
    role_units_per_disk,
    survivor_loads_for_failure,
)


def make_layout(table, num_disks, stripe_size):
    return TableParityLayout(num_disks=num_disks, stripe_size=stripe_size, table=table)


class TestSingleFailureCorrecting:
    def test_violation_detected(self):
        # G=2 stripe with both units on disk 0 — a broken table.
        table = [
            [UnitAddress(0, 0), UnitAddress(0, 1)],
            [UnitAddress(1, 0), UnitAddress(1, 1)],
        ]
        layout = make_layout(table, num_disks=2, stripe_size=2)
        report = check_single_failure_correcting(layout)
        assert not report.passed
        assert "stripe 0" in report.detail


class TestDistributedParity:
    def test_concentrated_parity_detected(self):
        # All parity on disk 2 (a RAID 4 shape).
        table = [
            [UnitAddress(0, 0), UnitAddress(1, 0), UnitAddress(2, 0)],
            [UnitAddress(0, 1), UnitAddress(1, 1), UnitAddress(2, 1)],
            [UnitAddress(1, 2), UnitAddress(2, 2), UnitAddress(0, 2)],
        ]
        layout = make_layout(table, num_disks=3, stripe_size=3)
        counts = role_units_per_disk(layout, PARITY_ROLE)
        assert counts == [1, 0, 2]
        assert not check_distributed_parity(layout).passed


class TestDistributedReconstruction:
    def test_matrix_symmetry_for_balanced_layout(self):
        from repro.designs import complete_design
        from repro.layout import DeclusteredLayout

        layout = DeclusteredLayout(complete_design(5, 3))
        matrix = [survivor_loads_for_failure(layout, f) for f in range(5)]
        values = {
            matrix[f][d]
            for f in range(5)
            for d in range(5)
            if f != d
        }
        assert len(values) == 1

    def test_diagonal_is_zero(self):
        from repro.designs import complete_design
        from repro.layout import DeclusteredLayout

        layout = DeclusteredLayout(complete_design(5, 3))
        assert all(survivor_loads_for_failure(layout, d)[d] == 0 for d in range(5))


class TestEfficientMapping:
    def test_threshold(self):
        from repro.designs import complete_design
        from repro.layout import DeclusteredLayout

        layout = DeclusteredLayout(complete_design(5, 3))
        assert check_efficient_mapping(layout).passed
        assert not check_efficient_mapping(layout, max_table_units=10).passed


class TestLargeWrite:
    def test_paper_layouts_pass(self):
        from repro.designs import paper_design
        from repro.layout import DeclusteredLayout

        layout = DeclusteredLayout(paper_design(4))
        assert check_large_write_optimization(layout).passed
