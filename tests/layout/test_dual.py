"""Dual-syndrome layouts: placement, balance, and the extended criteria.

P+Q layouts are the single-parity constructors with ``num_syndromes=2``:
``DeclusteredLayout`` over a block design, and ``LeftSymmetricRaid5Layout``
for the full-width RAID-6 rotation.
"""

import pytest

from repro.designs import (
    boolean_quadruple_system,
    complete_design,
    cyclic_pq_design,
    paper_design,
)
from repro.layout import (
    PARITY_ROLE,
    Q_ROLE,
    DeclusteredLayout,
    LayoutError,
    LeftSymmetricRaid5Layout,
    evaluate_layout,
)
from repro.layout.criteria import (
    check_double_failure_correcting,
    check_pair_balanced_reconstruction,
    role_units_per_disk,
)


def dual_declustered(design):
    return DeclusteredLayout(design, num_syndromes=2)


def full_width_raid6(num_disks):
    return LeftSymmetricRaid5Layout(num_disks, num_syndromes=2)


def dual_paper_layout():
    return dual_declustered(paper_design(5))  # C=21, G=5


class TestDualDeclustered:
    def test_basic_parameters(self):
        layout = dual_paper_layout()
        assert layout.num_syndromes == 2
        assert layout.data_units_per_stripe == 3
        assert layout.parity_overhead() == pytest.approx(2 / 5)
        assert layout.declustering_ratio() == pytest.approx(4 / 20)
        assert layout.unit_roles == (0, 1, 2, PARITY_ROLE, Q_ROLE)

    def test_stripe_units_are_distinct_disks(self):
        layout = dual_paper_layout()
        for s in range(layout.stripes_per_table):
            units = layout.stripe_units(s)
            assert len(units) == 5
            assert len({u.disk for u in units}) == 5

    def test_p_and_q_spread_evenly(self):
        layout = dual_paper_layout()
        design = layout.design
        assert set(role_units_per_disk(layout, PARITY_ROLE)) == {design.r}
        assert set(role_units_per_disk(layout, Q_ROLE)) == {design.r}

    def test_p_and_q_on_distinct_slots(self):
        layout = dual_paper_layout()
        for s in range(layout.stripes_per_table):
            assert layout.stripe_unit(s, 3) != layout.stripe_unit(s, 4)

    def test_inverse_mapping_round_trips(self):
        layout = dual_declustered(cyclic_pq_design(4))  # C=13, G=4
        assert layout.unit_roles == (0, 1, PARITY_ROLE, Q_ROLE)
        seen = set()
        for s in range(layout.stripes_per_table):
            for i, role in enumerate(layout.unit_roles):
                address = layout.stripe_unit(s, i)
                assert layout.stripe_of(address.disk, address.offset) == (s, role)
                seen.add(address)
        assert len(seen) == layout.stripes_per_table * 4

    def test_logical_mapping_skips_check_units(self):
        layout = dual_paper_layout()
        for logical in range(200):
            address = layout.logical_to_physical(logical)
            assert layout.physical_to_logical(address.disk, address.offset) == logical
        p, q = layout.stripe_units(0)[-2:]
        assert layout.physical_to_logical(p.disk, p.offset) is None
        assert layout.physical_to_logical(q.disk, q.offset) is None

    def test_full_width_design_rejected(self):
        with pytest.raises(LayoutError):
            dual_declustered(complete_design(4, 4))

    def test_too_narrow_stripe_rejected(self):
        with pytest.raises(LayoutError):
            dual_declustered(complete_design(5, 2))

    def test_single_layout_has_no_q(self):
        layout = LeftSymmetricRaid5Layout(5)
        assert layout.num_syndromes == 1
        assert Q_ROLE not in layout.unit_roles
        with pytest.raises(LayoutError):
            layout.stripe_unit(0, layout.stripe_size)


class TestCyclicDualRaid6:
    def test_rotation(self):
        layout = full_width_raid6(7)
        c = 7
        for s in range(c):
            p, q = layout.stripe_units(s)[-2:]
            assert p.disk == (c - 1 - s) % c
            assert q.disk == (c - 2 - s) % c
        assert set(role_units_per_disk(layout, PARITY_ROLE)) == {1}
        assert set(role_units_per_disk(layout, Q_ROLE)) == {1}

    def test_alpha_is_one(self):
        assert full_width_raid6(7).declustering_ratio() == pytest.approx(1.0)

    def test_tiny_array_rejected(self):
        with pytest.raises(LayoutError):
            full_width_raid6(2)


class TestDualCriteria:
    def test_t3_design_passes_pair_balance(self):
        layout = dual_declustered(boolean_quadruple_system(3))
        report = check_pair_balanced_reconstruction(layout)
        assert report.passed, report.detail

    def test_full_width_passes_pair_balance(self):
        report = check_pair_balanced_reconstruction(full_width_raid6(6))
        assert report.passed, report.detail

    def test_bibd_fails_pair_balance(self):
        # lam=1 but not triple-balanced: pairs of failures skew the load.
        layout = dual_declustered(cyclic_pq_design(4))
        assert not check_pair_balanced_reconstruction(layout).passed

    def test_single_syndrome_fails_double_failure(self):
        assert not check_double_failure_correcting(LeftSymmetricRaid5Layout(5)).passed

    def test_dual_passes_double_failure(self):
        assert check_double_failure_correcting(dual_paper_layout()).passed

    def test_evaluate_layout_adds_dual_reports(self):
        names = [r.name for r in evaluate_layout(dual_paper_layout())]
        assert "double-failure-correcting" in names
        assert "pair-balanced-reconstruction" in names
        assert "distributed-q" in names
        assert len(names) == 9

    def test_evaluate_layout_unchanged_for_single(self):
        names = [r.name for r in evaluate_layout(LeftSymmetricRaid5Layout(5))]
        assert len(names) == 6
