"""Unit tests for the MTTDL reliability model."""

import math

import pytest

from repro.analysis.reliability import (
    HOURS_PER_YEAR,
    ReliabilityInputs,
    data_loss_probability,
    mttdl_hours,
    mttdl_years,
)


def inputs(**overrides):
    base = dict(num_disks=21, disk_mttf_hours=150_000.0, repair_hours=1.0)
    base.update(overrides)
    return ReliabilityInputs(**base)


class TestMttdl:
    def test_formula(self):
        # MTTF^2 / (C (C-1) MTTR) with easy numbers.
        result = mttdl_hours(
            ReliabilityInputs(num_disks=2, disk_mttf_hours=100.0, repair_hours=1.0)
        )
        assert result == pytest.approx(100.0 ** 2 / (2 * 1 * 1))

    def test_years_conversion(self):
        value = inputs()
        assert mttdl_years(value) == pytest.approx(
            mttdl_hours(value) / HOURS_PER_YEAR
        )

    def test_inverse_in_repair_time(self):
        fast = mttdl_hours(inputs(repair_hours=0.5))
        slow = mttdl_hours(inputs(repair_hours=1.0))
        assert fast == pytest.approx(2 * slow)

    def test_more_disks_less_reliable(self):
        small = mttdl_hours(inputs(num_disks=10))
        large = mttdl_hours(inputs(num_disks=40))
        assert large < small

    def test_validation(self):
        with pytest.raises(ValueError):
            inputs(num_disks=1)
        with pytest.raises(ValueError):
            inputs(repair_hours=0)

    def test_two_fault_formula(self):
        # MTTF^3 / (C (C-1) (C-2) MTTR^2) with easy numbers.
        result = mttdl_hours(
            ReliabilityInputs(
                num_disks=3,
                disk_mttf_hours=100.0,
                repair_hours=2.0,
                fault_tolerance=2,
            )
        )
        assert result == pytest.approx(100.0 ** 3 / (3 * 2 * 1 * 2.0 ** 2))

    def test_second_syndrome_extends_the_chain_by_one_state(self):
        # Going from t=1 to t=2 multiplies MTTDL by MTTF / ((C-2) MTTR).
        single = mttdl_hours(inputs())
        dual = mttdl_hours(inputs(fault_tolerance=2))
        assert dual / single == pytest.approx(150_000.0 / (19 * 1.0))

    def test_fault_tolerance_validation(self):
        with pytest.raises(ValueError):
            inputs(fault_tolerance=0)
        with pytest.raises(ValueError):
            inputs(num_disks=3, fault_tolerance=3)


class TestLossProbability:
    def test_zero_mission(self):
        assert data_loss_probability(inputs(), 0.0) == 0.0

    def test_matches_exponential(self):
        value = inputs()
        t = 10 * HOURS_PER_YEAR
        expected = 1.0 - math.exp(-t / mttdl_hours(value))
        assert data_loss_probability(value, t) == pytest.approx(expected)

    def test_monotone_in_time(self):
        value = inputs()
        assert data_loss_probability(value, 1000.0) < data_loss_probability(
            value, 100_000.0
        )

    def test_negative_mission_rejected(self):
        with pytest.raises(ValueError):
            data_loss_probability(inputs(), -1.0)

