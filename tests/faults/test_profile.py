"""Unit tests for the fault profile value object."""

import dataclasses
import json
import math
import random

import pytest

from repro.faults.profile import MS_PER_HOUR, FaultProfile


class TestValidation:
    def test_negative_mttf_rejected(self):
        with pytest.raises(ValueError, match="MTTF cannot be negative"):
            FaultProfile(disk_mttf_hours=-1.0)

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ValueError, match="shape must be positive"):
            FaultProfile(lifetime_shape=0.0)

    def test_negative_latent_rate_rejected(self):
        with pytest.raises(ValueError, match="latent error rate"):
            FaultProfile(latent_errors_per_hour=-0.1)

    def test_transient_probability_bounds(self):
        with pytest.raises(ValueError, match="transient error probability"):
            FaultProfile(transient_error_prob=1.5)
        with pytest.raises(ValueError, match="transient error probability"):
            FaultProfile(transient_error_prob=-0.01)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError, match="penalty cannot be negative"):
            FaultProfile(transient_penalty_ms=-1.0)

    def test_escalation_threshold_floor(self):
        with pytest.raises(ValueError, match="escalation threshold"):
            FaultProfile(escalation_threshold=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "disk_mttf_hours",
            "lifetime_shape",
            "latent_errors_per_hour",
            "transient_error_prob",
            "transient_penalty_ms",
        ],
    )
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FaultProfile(**{name: value})


class TestEnablement:
    def test_default_profile_is_quiescent(self):
        assert not FaultProfile().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(disk_mttf_hours=100.0),
            dict(latent_errors_per_hour=0.01),
            dict(transient_error_prob=1e-6),
        ],
    )
    def test_any_rate_enables(self, kwargs):
        assert FaultProfile(**kwargs).enabled


class TestDerivedQuantities:
    def test_mttf_unit_conversion(self):
        assert FaultProfile(disk_mttf_hours=2.0).disk_mttf_ms == 2.0 * MS_PER_HOUR

    def test_latent_interarrival_disabled(self):
        assert FaultProfile().latent_interarrival_ms is None

    def test_latent_interarrival_is_rate_inverse(self):
        profile = FaultProfile(latent_errors_per_hour=4.0)
        assert profile.latent_interarrival_ms == MS_PER_HOUR / 4.0

    def test_lifetime_draw_requires_positive_mttf(self):
        with pytest.raises(ValueError, match="positive disk MTTF"):
            FaultProfile().draw_lifetime_ms(random.Random(1))

    @pytest.mark.parametrize("shape", [1.0, 0.7, 2.0])
    def test_lifetime_mean_matches_mttf_for_any_shape(self, shape):
        profile = FaultProfile(disk_mttf_hours=1.0, lifetime_shape=shape)
        rng = random.Random(42)
        draws = [profile.draw_lifetime_ms(rng) for _ in range(4000)]
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(profile.disk_mttf_ms, rel=0.1)


class TestSerialization:
    def test_json_round_trip(self):
        profile = FaultProfile(
            disk_mttf_hours=1.5,
            lifetime_shape=1.2,
            latent_errors_per_hour=0.25,
            transient_error_prob=0.001,
            seed=7,
        )
        document = json.loads(json.dumps(dataclasses.asdict(profile)))
        assert FaultProfile(**document) == profile
