"""The declustered layout must match the paper's Figures 2-3 and 4-2."""

import pytest

from repro.designs import complete_design, paper_design
from repro.layout import (
    DeclusteredLayout,
    LayoutError,
    PARITY_ROLE,
    evaluate_layout,
)
from repro.layout.declustered import build_full_table


class TestFigure23:
    """Figure 2-3: first block design table of the (5, 4) complete design."""

    EXPECTED = [
        # offset -> [(stripe, role) per disk]
        [(0, 0), (0, 1), (0, 2), (0, PARITY_ROLE), (1, PARITY_ROLE)],
        [(1, 0), (1, 1), (1, 2), (2, 2), (2, PARITY_ROLE)],
        [(2, 0), (2, 1), (3, 1), (3, 2), (3, PARITY_ROLE)],
        [(3, 0), (4, 0), (4, 1), (4, 2), (4, PARITY_ROLE)],
    ]

    def test_first_table_matches_the_figure(self):
        layout = DeclusteredLayout(complete_design(5, 4))
        for offset, row in enumerate(self.EXPECTED):
            for disk, expected in enumerate(row):
                assert layout.stripe_of(disk, offset) == expected, (disk, offset)


class TestFullTableConstruction:
    def test_full_table_has_g_duplications(self):
        design = complete_design(5, 4)
        layout = DeclusteredLayout(design)
        assert layout.stripes_per_table == design.k * design.b
        assert layout.table_depth == design.k * design.r

    def test_parity_rotates_across_duplications(self):
        # In duplication d, parity sits on tuple element G-1-d; for the
        # first tuple (0,1,2,3) that's disks 3, 2, 1, 0 in turn.
        design = complete_design(5, 4)
        layout = DeclusteredLayout(design)
        parity_disks = [
            layout.stripe_unit(dup * design.b, design.k - 1).disk
            for dup in range(design.k)
        ]
        assert parity_disks == [3, 2, 1, 0]

    def test_unrotated_table_exists_for_ablation(self):
        table = build_full_table(complete_design(5, 4), rotate_parity=False)
        assert len(table) == 5  # one copy of the design only

    def test_raid5_case_rejected(self):
        with pytest.raises(LayoutError, match="RAID 5"):
            DeclusteredLayout(complete_design(4, 4))


class TestCriteria:
    @pytest.mark.parametrize("g", [3, 4, 5, 6, 10])
    def test_paper_designs_meet_first_five_criteria(self, g):
        layout = DeclusteredLayout(paper_design(g))
        reports = {r.name: r for r in evaluate_layout(layout)}
        for name in (
            "single-failure-correcting",
            "distributed-reconstruction",
            "distributed-parity",
            "efficient-mapping",
            "large-write-optimization",
        ):
            assert reports[name].passed, reports[name].detail

    def test_maximal_parallelism_fails_as_the_paper_notes(self):
        # Section 4.2: the simple data mapping does not meet criterion 6.
        layout = DeclusteredLayout(complete_design(5, 4))
        reports = {r.name: r for r in evaluate_layout(layout)}
        assert not reports["maximal-parallelism"].passed

    def test_unrotated_layout_violates_distributed_parity(self):
        layout = DeclusteredLayout(complete_design(5, 4), rotate_parity=False)
        reports = {r.name: r for r in evaluate_layout(layout)}
        assert not reports["distributed-parity"].passed

    def test_reconstruction_load_is_lambda_times_g(self):
        # Each survivor reads exactly lam stripe units per block design
        # table, hence lam * G per full table (Section 4.2).
        design = paper_design(4)  # lam = 3, G = 4
        layout = DeclusteredLayout(design)
        reports = {r.name: r for r in evaluate_layout(layout)}
        load = reports["distributed-reconstruction"].metrics[
            "units_per_survivor_per_table"
        ]
        assert load == design.lam * design.k

    def test_parity_per_disk_is_r(self):
        # Each disk holds exactly r parity units per full table.
        design = paper_design(5)  # r = 5
        layout = DeclusteredLayout(design)
        reports = {r.name: r for r in evaluate_layout(layout)}
        assert reports["distributed-parity"].metrics["parity_units_per_disk"] == design.r


class TestAlpha:
    @pytest.mark.parametrize(
        "g, alpha", [(3, 0.10), (4, 0.15), (5, 0.20), (6, 0.25), (10, 0.45)]
    )
    def test_declustering_ratio(self, g, alpha):
        layout = DeclusteredLayout(paper_design(g))
        assert layout.declustering_ratio() == pytest.approx(alpha)

    def test_parity_overhead_formula(self):
        # 21 disks: parity fraction is 1/G = 1/(20 alpha + 1) (Section 6).
        for g in (3, 4, 5, 6, 10):
            layout = DeclusteredLayout(paper_design(g))
            alpha = layout.declustering_ratio()
            assert layout.parity_overhead() == pytest.approx(1.0 / (20 * alpha + 1))
