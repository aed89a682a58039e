"""Unit tests for the Muntz & Lui analytic model."""

import pytest

from repro.analysis import MuntzLuiInputs, MuntzLuiModel
from repro.recon import BASELINE, REDIRECT, REDIRECT_PIGGYBACK, USER_WRITES


def make_inputs(g=4, rate=210.0, read_fraction=0.5, units=1000):
    return MuntzLuiInputs(
        num_disks=21,
        stripe_size=g,
        user_rate_per_s=rate,
        user_read_fraction=read_fraction,
        units_per_disk=units,
    )


class TestInputConversions:
    """Section 8.3's user→disk access conversions."""

    def test_rate_conversion(self):
        inputs = make_inputs(read_fraction=0.5, rate=210.0)
        assert inputs.disk_access_rate_per_s == pytest.approx((4 - 1.5) * 210)

    def test_read_fraction_conversion(self):
        inputs = make_inputs(read_fraction=0.5)
        assert inputs.disk_read_fraction == pytest.approx(1.5 / 2.5)

    def test_pure_reads_pass_through(self):
        inputs = make_inputs(read_fraction=1.0)
        assert inputs.disk_access_rate_per_s == pytest.approx(inputs.user_rate_per_s)
        assert inputs.disk_read_fraction == pytest.approx(1.0)

    def test_alpha(self):
        assert make_inputs(g=4).alpha == pytest.approx(0.15)
        assert make_inputs(g=21).alpha == pytest.approx(1.0)


class TestModelPredictions:
    def test_reconstruction_time_positive_and_finite(self):
        model = MuntzLuiModel(make_inputs())
        for algorithm in (BASELINE, USER_WRITES, REDIRECT, REDIRECT_PIGGYBACK):
            time_s = model.reconstruction_time_s(algorithm)
            assert 0 < time_s < float("inf")

    def test_lower_alpha_reconstructs_faster(self):
        times = [
            MuntzLuiModel(make_inputs(g=g)).reconstruction_time_s(USER_WRITES)
            for g in (4, 6, 10, 21)
        ]
        assert times == sorted(times)

    def test_higher_load_reconstructs_slower(self):
        # Use an alpha where survivors (not the replacement's mu
        # ceiling) are the binding constraint, and baseline so free
        # rebuilds do not mask the load effect.
        light = MuntzLuiModel(make_inputs(g=10, rate=105.0)).reconstruction_time_s(
            BASELINE
        )
        heavy = MuntzLuiModel(make_inputs(g=10, rate=210.0)).reconstruction_time_s(
            BASELINE
        )
        assert heavy > light

    def test_model_favors_redirection_as_the_paper_criticizes(self):
        # In the M&L world, redirecting reads off the survivors can only
        # help; Holland & Gibson show simulation disagrees at low alpha.
        model = MuntzLuiModel(make_inputs(g=21))
        assert model.reconstruction_time_s(REDIRECT) <= model.reconstruction_time_s(
            USER_WRITES
        )

    def test_saturated_array_never_finishes(self):
        model = MuntzLuiModel(make_inputs(rate=10_000.0))
        assert model.reconstruction_time_s(USER_WRITES) == float("inf")

    def test_minimum_possible_time(self):
        model = MuntzLuiModel(make_inputs(units=79_716))
        # The paper: over 1700 s to write a whole disk at 46 random/s.
        assert model.minimum_possible_time_s() > 1700

    def test_prediction_exceeds_idle_floor(self):
        # Baseline gets no free rebuilds, so it can never beat the
        # idle-array floor of one mu-priced write per unit.
        model = MuntzLuiModel(make_inputs())
        floor = model.minimum_possible_time_s()
        assert model.reconstruction_time_s(BASELINE) >= floor * (1 - 1e-9)

    def test_time_scales_linearly_with_units(self):
        small = MuntzLuiModel(make_inputs(units=1000)).reconstruction_time_s(USER_WRITES)
        large = MuntzLuiModel(make_inputs(units=2000)).reconstruction_time_s(USER_WRITES)
        assert large == pytest.approx(2 * small, rel=1e-6)

    def test_step_count_validation(self):
        with pytest.raises(ValueError):
            MuntzLuiModel(make_inputs(), steps=5)


class TestLoadEquations:
    def test_survivor_load_decreases_with_redirection_progress(self):
        model = MuntzLuiModel(make_inputs(g=10))
        early = model.survivor_load(REDIRECT, f=0.0)
        late = model.survivor_load(REDIRECT, f=1.0)
        assert late < early

    def test_free_rebuilds_only_for_writing_algorithms(self):
        model = MuntzLuiModel(make_inputs())
        assert model.free_rebuild_rate(BASELINE, 0.0) == 0.0
        assert model.free_rebuild_rate(USER_WRITES, 0.0) > 0.0
        assert model.free_rebuild_rate(REDIRECT_PIGGYBACK, 0.0) > model.free_rebuild_rate(
            USER_WRITES, 0.0
        )
