"""Property tests: permutation striping against its table twin.

Permutation striping claims to compute, in O(1) integer work, exactly
the mapping a materialized table would hold. These tests pin that
claim three ways:

- slot-for-slot agreement, at both syndrome counts, with a table
  materialized independently from the striping formula;
- criteria verdicts that agree between the table and arithmetic twins
  and between exact and sampled checking;
- the incremental sliding-window parallelism check against a
  brute-force per-window recount on the paper's C<=21 grid.
"""

import random

import pytest

from repro.designs import cyclic_design
from repro.layout import (
    Q_ROLE,
    DeclusteredLayout,
    LayoutError,
    PermutationStripingLayout,
    TableParityLayout,
)
from repro.layout.criteria import (
    SAMPLE_STRIPES,
    SAMPLING_THRESHOLD_DISKS,
    check_maximal_parallelism,
    evaluate_layout,
)

from tests.conftest import sampled_criteria_reports

#: (C, G) permutation-striping geometries: prime widths spanning the
#: paper's alpha range, both syndrome counts where G allows.
PERM_GRID = [(5, 3), (7, 3), (11, 4), (13, 5), (17, 4), (21 + 2, 6)]


def materialize(layout) -> TableParityLayout:
    """An independent table twin: read every period slot once via the
    forward mapping, then let TableParityLayout's own validation prove
    the result tiles (bijection, balanced depths, no gaps)."""
    table = [layout.stripe_units(s) for s in range(layout.stripes_per_table)]
    return TableParityLayout(
        num_disks=layout.num_disks,
        stripe_size=layout.stripe_size,
        table=table,
        num_syndromes=layout.num_syndromes,
    )


def assert_twins(arith, table) -> None:
    """Slot-for-slot, forward and inverse, across two table periods."""
    assert arith.num_disks == table.num_disks
    assert arith.stripe_size == table.stripe_size
    assert arith.stripes_per_table == table.stripes_per_table
    assert arith.table_depth == table.table_depth
    for s in range(arith.stripes_per_table * 2):
        for i in range(arith.stripe_size):
            assert arith.stripe_unit(s, i) == table.stripe_unit(s, i)
    for disk in range(arith.num_disks):
        for offset in range(arith.table_depth * 2):
            assert arith.stripe_of(disk, offset) == table.stripe_of(disk, offset)
    span = arith.data_units_per_table * 2
    for logical in range(span):
        address = arith.logical_to_physical(logical)
        assert address == table.logical_to_physical(logical)
        assert arith.physical_to_logical(address.disk, address.offset) == logical


class TestPermutationStriping:
    @pytest.mark.parametrize("num_disks,stripe_size", PERM_GRID)
    def test_matches_independent_table(self, num_disks, stripe_size):
        arith = PermutationStripingLayout(num_disks, stripe_size)
        assert_twins(arith, materialize(arith))

    @pytest.mark.parametrize("num_disks,stripe_size", [(7, 4), (13, 6)])
    def test_dual_syndrome_matches_table(self, num_disks, stripe_size):
        arith = PermutationStripingLayout(num_disks, stripe_size, num_syndromes=2)
        table = materialize(arith)
        assert_twins(arith, table)
        # Q, the last unit, lives where the formula says it does.
        q = arith.stripe_unit(0, stripe_size - 1)
        assert table.stripe_unit(0, stripe_size - 1) == q
        assert arith.stripe_of(q.disk, q.offset) == (0, Q_ROLE)

    def test_formula_is_permutation_striping(self):
        # Independent spot check of the formula itself, not via
        # stripe_unit: rotation j maps unit index i to disk (j*i) % C.
        # With one syndrome, unit i of a stripe is its element i.
        layout = PermutationStripingLayout(7, 3)
        for s in range(layout.stripes_per_table):
            rotation, stripe_in_rotation = divmod(s, 7)
            for i in range(3):
                index = stripe_in_rotation * 3 + i
                expected_disk = ((rotation + 1) * index) % 7
                assert layout.stripe_unit(s, i).disk == expected_disk

    def test_composite_width_rejected(self):
        with pytest.raises(LayoutError, match="prime"):
            PermutationStripingLayout(9, 3)

    def test_full_width_stripe_rejected(self):
        with pytest.raises(LayoutError):
            PermutationStripingLayout(7, 7)


class TestCriteriaAgreement:
    @pytest.mark.parametrize("num_disks,stripe_size", [(7, 3), (13, 5)])
    def test_verdicts_agree_across_twins_and_modes(self, num_disks, stripe_size):
        arith = PermutationStripingLayout(num_disks, stripe_size)
        table = materialize(arith)
        exact_arith = evaluate_layout(arith)
        exact_table = evaluate_layout(table)
        sampled_arith = sampled_criteria_reports(arith)
        for a, t, s in zip(exact_arith, exact_table, sampled_arith):
            assert a.name == t.name == s.name
            assert a.passed == t.passed == s.passed
        # Criterion 4 is the one place the twins legitimately differ:
        # the table twin holds a real table, the arithmetic twin none.
        by_name = {r.name: r for r in exact_arith}
        assert "no table" in by_name["efficient-mapping"].detail

    def test_dual_criteria_agree(self):
        arith = PermutationStripingLayout(7, 3, num_syndromes=2)
        table = materialize(arith)
        arith_reports = evaluate_layout(arith)
        table_reports = evaluate_layout(table)
        assert len(arith_reports) == len(table_reports)
        for a, t in zip(arith_reports, table_reports):
            assert (a.name, a.passed) == (t.name, t.passed)

    def test_sampling_is_deterministic(self):
        layout = PermutationStripingLayout(13, 5)
        first = sampled_criteria_reports(layout)
        second = sampled_criteria_reports(layout)
        assert [(r.name, r.passed, r.detail) for r in first] == [
            (r.name, r.passed, r.detail) for r in second
        ]

    def test_evaluate_layout_samples_from_the_threshold_width(self):
        def stripes_audited(layout):
            return evaluate_layout(layout)[0].metrics["stripes_audited"]

        small = PermutationStripingLayout(13, 5)
        assert stripes_audited(small) == small.stripes_per_table
        # 257 is the first prime width at or above the threshold; its
        # period holds 65,792 stripes, of which the audit samples 512.
        assert SAMPLING_THRESHOLD_DISKS <= 257
        assert stripes_audited(PermutationStripingLayout(257, 3)) == SAMPLE_STRIPES


def brute_force_parallelism(layout) -> tuple:
    """Per-window recount of criterion 6, no incremental state."""
    c = layout.num_disks
    total = layout.stripes_per_table * layout.data_units_per_stripe
    failures = 0
    first_failure = None
    distinct_sum = 0
    for start in range(total):
        disks = {
            layout.logical_to_physical(start + i).disk for i in range(c)
        }
        distinct_sum += len(disks)
        if len(disks) != c:
            failures += 1
            if first_failure is None:
                first_failure = start
    return failures, first_failure, distinct_sum


class TestSlidingWindowParallelism:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: DeclusteredLayout(cyclic_design(((0, 1, 3),), 7)),
            lambda: DeclusteredLayout(cyclic_design(((3, 6, 7, 12, 14),), 21)),
            lambda: PermutationStripingLayout(13, 5),
            lambda: PermutationStripingLayout(17, 4),
        ],
    )
    def test_incremental_scan_matches_brute_force(self, make):
        # Satellite: the O(total) sliding scan must report exactly what
        # the old O(total * C) per-window recount reported.
        layout = make()
        failures, first_failure, distinct_sum = brute_force_parallelism(layout)
        report = check_maximal_parallelism(layout)
        total = layout.stripes_per_table * layout.data_units_per_stripe
        assert report.passed == (failures == 0)
        assert report.metrics["fraction_parallel"] == pytest.approx(
            1.0 - failures / total
        )
        assert report.metrics["mean_disk_coverage"] == pytest.approx(
            distinct_sum / (total * layout.num_disks)
        )
        if first_failure is not None:
            assert f"first at logical unit {first_failure}" in report.detail


class TestLargeCMapping:
    def test_c1009_roundtrip_without_table(self):
        layout = PermutationStripingLayout(1009, 10)
        assert layout.mapping_table_units == 0
        span = layout.data_units_per_table
        stride = 104729  # prime, so the probe scatters across the period
        logical = 0
        for _ in range(2000):
            address = layout.logical_to_physical(logical)
            assert 0 <= address.disk < 1009
            assert layout.physical_to_logical(address.disk, address.offset) == logical
            logical = (logical + stride) % span

    def test_c1009_stripes_are_disjoint(self):
        layout = PermutationStripingLayout(1009, 10)
        for s in random.Random(3).sample(range(layout.stripes_per_table), 32):
            units = layout.stripe_units(s)
            assert len({u.disk for u in units}) == layout.stripe_size
            assert units[-1] == layout.stripe_unit(s, layout.stripe_size - 1)
