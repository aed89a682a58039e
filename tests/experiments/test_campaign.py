"""Tests for the Monte Carlo fault campaign experiment."""

import json

import pytest

from repro.experiments import campaign
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.faults.profile import MS_PER_HOUR, FaultProfile
from repro.sweep import SweepOptions


def campaign_config(**overrides):
    kwargs = dict(
        stripe_size=4,
        user_rate_per_s=0.0,
        read_fraction=0.5,
        mode="campaign",
        recon_workers=8,
        scale=campaign.MICRO,
        seed=1992,
        spares=0,
        fault_profile=FaultProfile(
            disk_mttf_hours=1000.0 / MS_PER_HOUR,  # 1000 ms mean lifetime
            seed=1992,
        ),
        mission_ms=60_000.0,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


class TestCampaignConfig:
    def test_campaign_mode_requires_a_fault_profile(self):
        with pytest.raises(ValueError, match="fault_profile"):
            ScenarioConfig(
                stripe_size=4, user_rate_per_s=0.0, read_fraction=0.5,
                mode="campaign",
            )

    def test_config_with_profile_survives_json_round_trip(self):
        config = campaign_config()
        rebuilt = ScenarioConfig.from_key(json.loads(json.dumps(config.to_key())))
        assert rebuilt == config
        assert rebuilt.fault_profile == config.fault_profile


class TestForcedDataLoss:
    def test_double_failure_is_recorded_not_raised(self):
        # Acceptance: 1000 ms disk lifetimes with no spares guarantee a
        # second concurrent failure long before the mission ends — the
        # scenario must terminate with a recorded data-loss event, not
        # an unhandled exception.
        result = run_scenario(campaign_config())
        summary = result.fault_summary
        assert summary is not None
        assert summary["data_lost"]
        assert summary["data_loss_events"] == 1
        assert len(summary["lost_disks"]) == 1
        assert summary["exposed_stripes"] > 0
        assert 0 < summary["time_to_data_loss_ms"] < summary["mission_ms"]
        # The campaign stops at the loss, not at the mission horizon.
        assert result.simulated_ms == summary["time_to_data_loss_ms"]
        assert summary["disk_failures"] == 2
        assert summary["repairs_completed"] == 0

    def test_spared_campaign_survives_longer_than_unspared(self):
        # Lifetimes long enough (200 s) that a ~2 s repair usually
        # finishes before the next failure: sparing must now buy
        # mission time that the unspared array cannot reach.
        profile = FaultProfile(disk_mttf_hours=200_000.0 / MS_PER_HOUR, seed=1992)
        unspared = run_scenario(campaign_config(fault_profile=profile))
        spared = run_scenario(
            campaign_config(
                fault_profile=profile, spares=64, replacement_delay_ms=0.0
            )
        )
        assert unspared.fault_summary["data_lost"]
        assert spared.fault_summary["repairs_completed"] >= 1
        assert spared.simulated_ms > unspared.simulated_ms


class TestCampaignExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        # One stripe size, four 6-hour missions: ~10 s of wall time.
        return campaign.run(
            scale="tiny",
            stripe_sizes=(4,),
            seed=1992,
            trials=4,
            mission_hours=6.0,
            options=SweepOptions(cache=None),
        )

    def test_row_schema(self, rows):
        assert len(rows) == 1
        row = rows[0]
        assert row["g"] == 4
        assert row["alpha"] == round(3 / 20, 3)
        assert row["trials"] == 4
        assert 0 <= row["losses"] <= 4
        assert row["loss_fraction"] == round(row["losses"] / 4, 3)

    def test_empirical_mttdl_within_2x_of_markov(self, rows):
        # Acceptance: with a fixed seed, the measured MTTDL lands
        # within a factor of two of the Markov approximation fed with
        # the campaign's own mean repair time.
        row = rows[0]
        assert row["losses"] >= 1
        assert row["mean_repair_s"] > 0
        assert 0.5 <= row["mttdl_ratio"] <= 2.0

    def test_format_rows_mentions_the_model(self, rows):
        text = campaign.format_rows(rows)
        assert "MTTDL" in text
        assert "Markov" in text


def dual_campaign_config(**overrides):
    kwargs = dict(
        stripe_size=5,
        num_disks=21,
        syndromes=2,
        user_rate_per_s=0.0,
        read_fraction=0.5,
        mode="campaign",
        recon_workers=8,
        scale=campaign.MICRO,
        seed=1992,
        spares=0,
        fault_profile=FaultProfile(
            disk_mttf_hours=20_000.0 / MS_PER_HOUR,  # 20 s mean lifetime
            seed=1992,
        ),
        mission_ms=5_000.0,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


class TestDualVersusSingleControl:
    """Acceptance: with the identical fault schedule (same profile
    seed), the second concurrent failure that loses data on a
    single-syndrome array is absorbed by the dual-syndrome one."""

    def test_single_control_loses_where_dual_survives(self):
        # 20 s lifetimes on 21 disks, no spares: failure #2 lands at
        # ~4.3 s and failure #3 at ~5.7 s, so a 5 s mission separates
        # the two tolerances.
        single = run_scenario(dual_campaign_config(syndromes=1))
        dual = run_scenario(dual_campaign_config())
        assert single.fault_summary["data_lost"]
        assert single.fault_summary["data_loss_events"] == 1
        assert single.fault_summary["disk_failures"] == 2
        assert not dual.fault_summary["data_lost"]
        assert dual.fault_summary["data_loss_events"] == 0
        assert dual.fault_summary["lost_disks"] == []
        assert dual.fault_summary["exposed_stripes"] == 0
        # The dual array absorbed the same double failure and ran the
        # mission to its horizon; the single control stopped at loss.
        assert dual.fault_summary["disk_failures"] >= 2
        assert dual.simulated_ms == 5_000.0
        assert single.simulated_ms < 5_000.0

    def test_third_failure_is_recorded_not_raised(self):
        result = run_scenario(dual_campaign_config(mission_ms=60_000.0))
        summary = result.fault_summary
        assert summary["data_lost"]
        assert summary["data_loss_events"] == 1
        assert summary["disk_failures"] == 3
        assert result.simulated_ms == summary["time_to_data_loss_ms"]


class TestDualCampaignTwoFaultMTTDL:
    """Acceptance: the empirical two-fault MTTDL of an accelerated P+Q
    campaign matches the extended (three-state) Markov chain fed with
    the campaign's own measured repair time."""

    @pytest.fixture(scope="class")
    def row(self):
        # 0.1 h disk MTTF against ~2 s repairs: every trial reaches a
        # triple concurrent failure well inside a 2 h mission, so three
        # trials give three loss observations.
        trials = 3
        summaries = []
        for trial in range(trials):
            config = dual_campaign_config(
                spares=512,
                replacement_delay_ms=1_000.0,
                fault_profile=FaultProfile(
                    disk_mttf_hours=0.1, seed=2026 + trial
                ),
                mission_ms=2.0 * MS_PER_HOUR,
            )
            summaries.append(campaign.trial_summary(run_scenario(config)))
        return campaign.rows_from_summaries(
            summaries, trials, mission_hours=2.0, disk_mttf_hours=0.1
        )[0]

    def test_every_trial_observes_a_two_fault_loss(self, row):
        assert row["syndromes"] == 2
        assert row["losses"] == 3

    def test_empirical_mttdl_within_tolerance_of_two_fault_markov(self, row):
        assert row["mean_repair_s"] > 0
        assert row["analytic_mttdl_h"] is not None
        assert 0.4 <= row["mttdl_ratio"] <= 2.5

    def test_dual_rows_format_with_the_two_fault_title(self, row):
        text = campaign.format_rows([row])
        assert "P+Q" in text
        assert "two-fault" in text


class TestDualCampaignSpec:
    def test_spec_configs_carry_syndromes(self):
        spec = campaign.campaign_spec(
            "tiny", stripe_sizes=(5,), trials=2, syndromes=2
        )
        configs = spec.configs()
        assert len(configs) == 2
        assert all(config.syndromes == 2 for config in configs)
        assert all(config.to_key()["syndromes"] == 2 for config in configs)


class TestCampaignStripeSizes:
    @pytest.mark.parametrize("syndromes, sizes", [
        (1, campaign.CAMPAIGN_STRIPE_SIZES),
        (2, campaign.CAMPAIGN_PQ_STRIPE_SIZES),
    ])
    def test_default_sizes_run_as_named(self, syndromes, sizes):
        spec = campaign.campaign_spec(
            "tiny", stripe_sizes=sizes, trials=1, syndromes=syndromes
        )
        assert [config.stripe_size for config in spec.configs()] == list(sizes)

    def test_size_without_exact_layout_reports_the_layout_that_ran(self):
        # No C=21 design has G=7: the closest feasible alpha is G=6's.
        spec = campaign.campaign_spec(
            "tiny", stripe_sizes=[7], trials=1, mission_hours=2.0
        )
        (config,) = spec.configs()
        summary = campaign.trial_summary(run_scenario(config))
        assert (summary["g"], summary["alpha"]) == (6, 0.25)

    @pytest.mark.parametrize("sizes, needle", [
        ([7, 6], "stripe sizes 7 and 6 both run as G=6"),
        ([4, 4], "stripe sizes 4 and 4 both run as G=4"),
        ([9, 10], "stripe sizes 9 and 10 both run as G=10"),
    ])
    def test_sizes_sharing_a_layout_rejected(self, sizes, needle):
        with pytest.raises(ValueError, match=needle):
            campaign.campaign_spec("tiny", stripe_sizes=sizes, trials=1)
