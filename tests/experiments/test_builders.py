"""Unit tests for experiment layout construction."""

import time

import pytest

from repro.array.addressing import ArrayAddressing
from repro.designs.design import BlockDesign
from repro.experiments.builders import (
    PAPER_NUM_DISKS,
    PAPER_STRIPE_SIZES,
    alpha_of,
    build_layout,
    check_layout,
)
from repro.experiments.runner import ScenarioConfig
from repro.experiments.scales import get_scale
from repro.layout import DeclusteredLayout, LayoutError, LeftSymmetricRaid5Layout
from repro.layout.arithmetic import PermutationStripingLayout


class TestBuildLayout:
    def test_g_equals_c_gives_raid5(self):
        layout = build_layout(21, 21)
        assert isinstance(layout, LeftSymmetricRaid5Layout)

    @pytest.mark.parametrize("g", [g for g in PAPER_STRIPE_SIZES if g != 21])
    def test_declustered_layouts_have_requested_g(self, g):
        layout = build_layout(21, g)
        assert isinstance(layout, DeclusteredLayout)
        assert layout.stripe_size == g
        assert layout.num_disks == 21

    def test_paper_grid_alphas(self):
        alphas = [round(alpha_of(PAPER_NUM_DISKS, g), 2) for g in PAPER_STRIPE_SIZES]
        assert alphas == [0.10, 0.15, 0.20, 0.25, 0.45, 0.85, 1.00]

    def test_layout_prefers_small_designs(self):
        # alpha = 0.85 must come from the 70-tuple complement design,
        # not the 1,330-tuple complete design the paper had to use.
        assert build_layout(21, 18).design.b == 70

    def test_design_validates(self):
        for g in PAPER_STRIPE_SIZES:
            if g == 21:
                continue
            build_layout(21, g).design.validate()


class TestAutoLayoutSelection:
    def test_auto_serves_large_prime_widths_arithmetically(self):
        # The catalog has no v=1009 designs; its closest-feasible-alpha
        # substitute would be a near-complete design (k=1008, b=1009)
        # whose O(b * k**2) validation takes the better part of an hour.
        # Auto must route straight to the arithmetic construction with
        # the requested G — and do so fast.
        started = time.perf_counter()
        layout = build_layout(1009, 10)
        elapsed = time.perf_counter() - started
        assert isinstance(layout, PermutationStripingLayout)
        assert layout.num_disks == 1009 and layout.stripe_size == 10
        assert layout.mapping_table_units == 0
        assert elapsed < 5.0, f"auto selection took {elapsed:.1f}s"

    def test_auto_serves_large_dual_widths_arithmetically(self):
        layout = build_layout(1009, 10, syndromes=2)
        assert isinstance(layout, PermutationStripingLayout)
        assert layout.num_syndromes == 2
        assert layout.mapping_table_units == 0

    def test_auto_prefers_requested_g_over_substitution_on_primes(self):
        # C=23 G=7 has no exact catalog design and the complete design
        # is over the table cap; permutation striping serves the exact
        # requested geometry instead of a neighboring alpha.
        layout = build_layout(23, 7)
        assert isinstance(layout, PermutationStripingLayout)
        assert layout.num_disks == 23 and layout.stripe_size == 7

    def test_auto_keeps_paper_substitution_on_small_composite_widths(self):
        # C=21 G=7: no exact design, no arithmetic construction — the
        # paper's closest-feasible-alpha policy still applies (the
        # registered G=6 design, alpha 0.25, is nearest to 0.30).
        layout = build_layout(21, 7)
        assert isinstance(layout, DeclusteredLayout)
        assert layout.stripe_size == 6

    def test_paper_grid_still_served_by_tables(self):
        for g in PAPER_STRIPE_SIZES:
            if g == 21:
                continue
            assert isinstance(build_layout(21, g), DeclusteredLayout)


class TestCheckLayout:
    def test_forced_table_at_large_width_fails_fast(self):
        # The closest-alpha substitute for C=1009 G=10 is the k=1008
        # near-complete design: about 1e9 operations to validate.
        started = time.perf_counter()
        with pytest.raises(LayoutError, match="table"):
            build_layout(1009, 10, layout="table")
        assert time.perf_counter() - started < 5.0

    @pytest.mark.parametrize("num_disks, stripe_size, layout", [
        (8, 5, "prime"),
        (21, 5, "prime"),
        (1009, 10, "table"),
        (1024, 10, "auto"),
        (10_007, 5, "prime"),
    ])
    def test_agrees_with_build_layout(self, num_disks, stripe_size, layout):
        with pytest.raises(LayoutError):
            check_layout(num_disks, stripe_size, layout=layout)
        with pytest.raises(LayoutError):
            build_layout(num_disks, stripe_size, layout=layout)

    @pytest.mark.parametrize("num_disks, stripe_size, layout", [
        (23, 7, "prime"),
        (1009, 10, "auto"),
        (1009, 10, "prime"),
    ])
    def test_buildable_shapes_pass(self, num_disks, stripe_size, layout):
        check_layout(num_disks, stripe_size, layout=layout)
        assert build_layout(num_disks, stripe_size, layout=layout).stripe_size == (
            stripe_size
        )

    @pytest.mark.parametrize("layout", ["auto", "table"])
    @pytest.mark.parametrize("num_disks", [128, 256, 512])
    def test_pq_quadruple_system_past_the_size_cap_is_refused(self, num_disks, layout):
        # SQS(128), SQS(256) and SQS(512) have 85,344, 690,880 and
        # 5,559,680 blocks, past the catalog's 50,000-tuple cap;
        # building SQS(256) took 43.6 s before the cap applied to
        # triple-balanced designs, and SQS(128) 6 s before it applied
        # below 256 disks.
        started = time.perf_counter()
        with pytest.raises(LayoutError):
            check_layout(num_disks, 4, syndromes=2, layout=layout)
        with pytest.raises(LayoutError):
            build_layout(num_disks, 4, syndromes=2, layout=layout)
        assert time.perf_counter() - started < 1.0

    def test_pq_quadruple_system_within_the_size_cap_still_builds(self):
        layout = build_layout(64, 4, syndromes=2)
        assert isinstance(layout, DeclusteredLayout)
        assert layout.name == "dual-declustered-sqs-64"

    @pytest.mark.parametrize("layout", ["auto", "table"])
    def test_builds_no_design_below_the_sampling_threshold(self, monkeypatch, layout):
        # The plan reads the catalog's registry and block counts only,
        # so checking a shape costs nothing, including a closest-alpha
        # substitute and a substitute refused for P+Q.
        def no_design(design):
            raise AssertionError(f"check_layout built a design on {design.v} objects")

        monkeypatch.setattr(BlockDesign, "__post_init__", no_design)
        for shape in [(21, 5, 1), (21, 7, 1), (255, 9, 1), (21, 5, 2), (21, 7, 2)]:
            check_layout(*shape, layout=layout)
        with pytest.raises(LayoutError, match="closest feasible alpha"):
            check_layout(255, 9, syndromes=2, layout=layout)


class TestDualBuildLayout:
    def test_g_equals_c_gives_cyclic_raid6(self):
        layout = build_layout(21, 21, syndromes=2)
        assert isinstance(layout, LeftSymmetricRaid5Layout)
        assert layout.num_syndromes == 2

    @pytest.mark.parametrize("g", [4, 5, 6, 10])
    def test_declustered_dual_layouts_have_requested_shape(self, g):
        layout = build_layout(21, g, syndromes=2)
        assert isinstance(layout, DeclusteredLayout)
        assert layout.num_syndromes == 2
        assert layout.stripe_size == g
        assert layout.num_disks == 21
        assert layout.data_units_per_stripe == g - 2

    def test_planar_pair_uses_the_cyclic_pq_design(self):
        from repro.designs.tdesigns import is_t_balanced, t_lambda

        # C = G(G-1)+1 with a planar difference set: 21 = 5*4+1. The
        # projective-plane design routes every disk pair through
        # exactly one stripe (lambda_2 = 1).
        design = build_layout(21, 5, syndromes=2).design
        assert design.v == 21 and design.k == 5
        assert is_t_balanced(design, 2)
        assert t_lambda(design, 2) == 1

    def test_power_of_two_g4_uses_the_quadruple_system(self):
        from repro.designs.tdesigns import is_t_balanced

        design = build_layout(8, 4, syndromes=2).design
        assert design.v == 8 and design.k == 4
        assert is_t_balanced(design, 3)

    def test_other_pairs_fall_back_to_the_catalog(self):
        layout = build_layout(21, 6, syndromes=2)
        assert layout.stripe_size == 6


#: ``build_layout``'s layout name on each shape ``(C, G, syndromes[,
#: layout])`` (``layout`` defaults to "auto"), or None where it raises.
#: The grid crosses every rule of ``check_layout``: widths on both sides
#: of 68 (the first where C(C, 3) exceeds the 50,000-tuple cap, leaving
#: P+Q only a k = 2 substitute) and of 256, prime and composite widths,
#: G == C, registered, complete and triple-balanced designs, arithmetic
#: layouts, forced families and closest-alpha substitutes. Where several
#: G get one substitute, one G stands for them. The names were recorded
#: before the plan was shared; only (128, 4, 2) changed, from
#: "dual-declustered-sqs-128", an 85,344-block table past the cap.
AGREEMENT_GRID = {
    (21, 3, 1): "declustered-paper-bd1",
    (21, 3, 2): "dual-declustered-paper-bd1",
    (21, 4, 1): "declustered-paper-bd2",
    (21, 4, 2): "dual-declustered-paper-bd2",
    (21, 5, 1): "declustered-paper-bd3",
    (21, 5, 2): "dual-declustered-cyclic-pq-21-5",
    (21, 8, 1): "declustered-paper-bd4",
    (21, 8, 2): "dual-declustered-paper-bd4",
    (21, 8, 1, "table"): "declustered-paper-bd4",
    (21, 21, 1): "left-symmetric-raid5-21",
    (21, 21, 2): "cyclic-dual-raid6-21",
    (21, 21, 1, "table"): "left-symmetric-raid5-21",
    (25, 3, 1): "declustered-family-25-3",
    (13, 4, 2): "dual-declustered-cyclic-pq-13-4",
    (23, 7, 2, "prime"): "perm-prime-23-7",
    (8, 5, 1, "prime"): None,
    (33, 4, 1): "declustered-complete-33-4",
    (37, 3, 1): "declustered-family-37-3",
    (37, 3, 2): "dual-declustered-family-37-3",
    (37, 4, 1): "perm-prime-37-4",
    (37, 4, 2): "perm-prime-37-4",
    (37, 5, 1): "perm-prime-37-5",
    (37, 5, 2): "perm-prime-37-5",
    (37, 8, 1): "perm-prime-37-8",
    (37, 8, 2): "perm-prime-37-8",
    (67, 3, 1): "declustered-complete-67-3",
    (67, 3, 2): "dual-declustered-complete-67-3",
    (67, 4, 1): "perm-prime-67-4",
    (67, 4, 2): "perm-prime-67-4",
    (67, 5, 1): "perm-prime-67-5",
    (67, 5, 2): "perm-prime-67-5",
    (67, 8, 1): "perm-prime-67-8",
    (67, 8, 2): "perm-prime-67-8",
    (68, 3, 1): "declustered-complete-68-2",
    (68, 3, 2): None,
    (68, 3, 1, "table"): "declustered-complete-68-2",
    (100, 4, 1): "declustered-complete-100-2",
    (100, 4, 2): None,
    (100, 4, 2, "table"): None,
    (128, 4, 1): "declustered-complete-128-2",
    (128, 4, 2): None,
    (128, 4, 2, "table"): None,
    (255, 9, 1): "declustered-complete-255-2",
    (255, 9, 2): None,
    (256, 3, 1): None,
    (256, 3, 2): None,
    (256, 4, 1): None,
    (256, 4, 2): None,
    (256, 5, 1): None,
    (256, 5, 2): None,
    (256, 8, 1): None,
    (256, 8, 2): None,
    (257, 3, 1): "perm-prime-257-3",
    (257, 3, 2): "perm-prime-257-3",
    (257, 4, 1): "perm-prime-257-4",
    (257, 4, 2): "perm-prime-257-4",
    (257, 5, 1): "perm-prime-257-5",
    (257, 5, 2): "perm-prime-257-5",
    (257, 5, 1, "table"): None,
    (257, 8, 1): "perm-prime-257-8",
    (257, 8, 2): "perm-prime-257-8",
}


def _raises(call):
    try:
        return call(), False
    except ValueError:  # LayoutError is one
        return None, True


class TestPlanAgreement:
    @pytest.mark.parametrize("shape", list(AGREEMENT_GRID), ids=str)
    def test_check_build_and_config_agree(self, shape):
        num_disks, stripe_size, syndromes = shape[:3]
        layout = shape[3] if len(shape) == 4 else "auto"
        args = (num_disks, stripe_size, syndromes, layout)
        plan, check_raises = _raises(lambda: check_layout(*args))
        built, build_raises = _raises(lambda: build_layout(*args))
        assert check_raises == build_raises
        assert (None if built is None else built.name) == AGREEMENT_GRID[shape]
        worker_fails = build_raises
        if built is not None:
            assert (plan.stripe_size, plan.table_depth) == (
                built.stripe_size,
                built.table_depth,
            )
            _, worker_fails = _raises(
                lambda: ArrayAddressing(built, get_scale("tiny").spec())
            )
        _, config_raises = _raises(
            lambda: ScenarioConfig(
                stripe_size=stripe_size,
                user_rate_per_s=105.0,
                read_fraction=0.5,
                num_disks=num_disks,
                syndromes=syndromes,
                layout=layout,
                scale="tiny",
            )
        )
        assert config_raises == worker_fails
