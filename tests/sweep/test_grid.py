"""Unit tests for sweep grid enumeration."""

import pytest

from repro.experiments.runner import ScenarioConfig
from repro.sweep import SweepSpec

from tests.sweep.conftest import MICRO, micro_spec_base


def make_spec(**kwargs):
    defaults = dict(
        axes=[("stripe_size", (4, 5)), ("mode", ("fault-free", "degraded"))],
        base=micro_spec_base(),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestEnumeration:
    def test_row_major_first_axis_slowest(self):
        spec = make_spec()
        coords = [p.coords for p in spec.points()]
        assert coords == [
            {"stripe_size": 4, "mode": "fault-free"},
            {"stripe_size": 4, "mode": "degraded"},
            {"stripe_size": 5, "mode": "fault-free"},
            {"stripe_size": 5, "mode": "degraded"},
        ]

    def test_indices_are_sequential(self):
        spec = make_spec()
        assert [p.index for p in spec.points()] == [0, 1, 2, 3]

    def test_matches_hand_rolled_nested_loops(self):
        spec = make_spec()
        expected = [
            ScenarioConfig(stripe_size=k, mode=mode, **micro_spec_base())
            for k in (4, 5)
            for mode in ("fault-free", "degraded")
        ]
        assert spec.configs() == expected

    def test_size(self):
        assert make_spec().size == 4

    def test_no_axes_is_a_single_fixed_point(self):
        spec = SweepSpec(axes=[], base=dict(micro_spec_base(), stripe_size=4))
        assert spec.size == 1
        (point,) = spec.points()
        assert point.coords == {}
        assert point.config.stripe_size == 4

    def test_same_spec_enumerates_identically(self):
        assert make_spec().points() == make_spec().points()


class TestSeeds:
    def test_default_reuses_base_seed(self):
        spec = make_spec()
        assert {p.config.seed for p in spec.points()} == {7}


class TestValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="not a ScenarioConfig field"):
            SweepSpec(axes=[("warp_factor", (1, 2))])

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="appears twice"):
            SweepSpec(axes=[("stripe_size", (4,)), ("stripe_size", (5,))])

    def test_axis_base_conflict_rejected(self):
        with pytest.raises(ValueError, match="both an axis and a base field"):
            SweepSpec(axes=[("stripe_size", (4,))], base={"stripe_size": 5})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            SweepSpec(axes=[("stripe_size", ())])

    def test_unknown_base_field_rejected(self):
        with pytest.raises(ValueError, match="not a ScenarioConfig field"):
            SweepSpec(axes=[("stripe_size", (4,))], base={"warp_factor": 9})

    def test_scale_preset_in_base_is_accepted(self):
        spec = make_spec()
        assert all(p.config.scale is MICRO for p in spec.points())
