"""Scenario runner integration tests (micro-sized arrays)."""

import dataclasses

import pytest

from repro.experiments import ScenarioConfig, campaign, run_scenario
from repro.experiments.scales import ScalePreset
from repro.faults.profile import MS_PER_HOUR, FaultProfile
from repro.recon import REDIRECT, USER_WRITES

#: A sub-tiny preset so each runner test stays under a second.
MICRO = ScalePreset(
    name="micro",
    cylinders=13,
    steady_duration_ms=3_000.0,
    warmup_ms=500.0,
    note="test-only",
)


def micro_config(**overrides):
    base = dict(
        stripe_size=4,
        user_rate_per_s=105.0,
        read_fraction=0.5,
        scale=MICRO,
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            micro_config(mode="exploded")

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            micro_config(mode="recon", recon_workers=0)

    @pytest.mark.parametrize("field, value", [
        ("user_rate_per_s", float("nan")),
        ("user_rate_per_s", float("inf")),
        ("user_rate_per_s", -1.0),
        ("read_fraction", float("nan")),
        ("read_fraction", -0.1),
        ("read_fraction", 1.5),
        ("recon_cycle_delay_ms", float("inf")),
        ("recon_cycle_delay_ms", float("nan")),
        ("recon_cycle_delay_ms", -1.0),
        ("replacement_delay_ms", float("nan")),
        ("replacement_delay_ms", float("inf")),
        ("replacement_delay_ms", -1.0),
        ("mission_ms", float("nan")),
        ("mission_ms", float("inf")),
        ("mission_ms", -1.0),
        ("mission_ms", 0.0),
    ])
    def test_out_of_range_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            micro_config(**{field: value})

    @pytest.mark.parametrize("overrides, needle", [
        ({"num_disks": 0}, "num_disks"),
        ({"num_disks": 3}, "num_disks"),
        ({"num_disks": 1, "stripe_size": 2}, "num_disks"),
        ({"num_disks": 5, "failed_disk": 5}, "failed_disk"),
        ({"failed_disk": 30}, "failed_disk"),
        ({"failed_disk": -1}, "failed_disk"),
        # Shapes build_layout cannot serve fail here, not in a worker.
        ({"num_disks": 8, "stripe_size": 5, "layout": "prime"}, "prime"),
        ({"num_disks": 21, "stripe_size": 4, "layout": "cyclic"}, "unknown layout"),
        ({"num_disks": 1009, "stripe_size": 10, "layout": "table"}, "table"),
        ({"num_disks": 1024, "stripe_size": 10}, "no layout"),
        ({"num_disks": 10_007, "stripe_size": 5, "layout": "prime"}, "limit"),
        ({"num_disks": 100, "stripe_size": 4, "syndromes": 2}, "closest feasible"),
        # A table deeper than the scale's disk fails here too.
        ({"num_disks": 33, "stripe_size": 4}, "19840 units deep"),
    ])
    def test_array_shape_rejected(self, overrides, needle):
        with pytest.raises(ValueError, match=needle):
            micro_config(**overrides)

    @pytest.mark.parametrize("overrides, field", [
        # Fail only inside a worker.
        ({"stripe_size": 4.5}, "stripe_size"),
        ({"mode": "recon", "recon_workers": 1.5}, "recon_workers"),
        ({"seed": "abc"}, "seed"),
        # Run, but under a second cache key for the same work.
        ({"syndromes": True}, "syndromes"),
        ({"num_disks": 21.0}, "num_disks"),
        ({"spares": 0.0}, "spares"),
        ({"seed": 1992.0}, "seed"),
        ({"failed_disk": False}, "failed_disk"),
    ])
    def test_non_integer_fields_rejected(self, overrides, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            micro_config(**overrides)

    @pytest.mark.parametrize("overrides, needle", [
        ({"cylinders": 1}, "cylinders"),
        ({"steady_duration_ms": float("inf")}, "steady_duration_ms"),
        ({"steady_duration_ms": float("nan")}, "steady_duration_ms"),
        ({"steady_duration_ms": 0.0}, "steady_duration_ms"),
        ({"warmup_ms": -1.0}, "warmup_ms"),
        ({"warmup_ms": float("nan")}, "warmup_ms"),
        ({"warmup_ms": float("inf")}, "warmup_ms"),
        ({"cylinders": 13.5}, "cylinders must be an integer"),
        ({"cylinders": True}, "cylinders must be an integer"),
    ])
    def test_unrunnable_scale_rejected(self, overrides, needle):
        # An infinite duration used to run a workload to an infinite
        # deadline; a negative warmup measured from before time 0.
        with pytest.raises(ValueError, match=needle):
            dataclasses.replace(MICRO, **overrides)

    @pytest.mark.parametrize("mode", ["fault-free", "degraded", "recon"])
    def test_zero_rate_rejected_outside_campaign(self, mode):
        with pytest.raises(ValueError, match="user_rate_per_s"):
            micro_config(mode=mode, user_rate_per_s=0.0)

    @pytest.mark.parametrize("overrides, needle", [
        ({"scale": "huge"}, "unknown scale"),
        ({"policy": "bogus"}, "scheduling policy"),
        ({"policy": "cvscan+bogus"}, "scheduling policy"),
        ({"policy": 5}, "scheduling policy"),
        # An empty modifier would run CVSCAN under another cache key.
        ({"policy": "cvscan+"}, "unknown scheduling policy"),
    ])
    def test_unknown_names_rejected(self, overrides, needle):
        with pytest.raises(ValueError, match=needle):
            micro_config(**overrides)

    def test_raid5_stripe_as_wide_as_the_array_accepted(self):
        config = micro_config(num_disks=4, stripe_size=4, failed_disk=3)
        assert config.alpha == 1.0

    def test_alpha(self):
        assert micro_config(stripe_size=5).alpha == pytest.approx(0.2)

    def test_named_scale_resolution(self):
        assert micro_config(scale="tiny").scale_preset().name == "tiny"


class TestFaultFreeMode:
    def test_measures_response_times(self):
        result = run_scenario(micro_config(mode="fault-free"))
        assert result.response.count > 100
        assert 0 < result.response.mean_ms < 500
        assert result.reconstruction is None

    def test_read_write_split(self):
        result = run_scenario(micro_config(mode="fault-free"))
        assert result.read_response.count + result.write_response.count == (
            result.response.count
        )
        # Writes cost four accesses; they must be slower than reads.
        assert result.write_response.mean_ms > result.read_response.mean_ms

    def test_utilization_sane(self):
        result = run_scenario(micro_config(mode="fault-free"))
        assert len(result.disk_utilization) == 21
        assert all(0 <= u < 1 for u in result.disk_utilization)


class TestDegradedMode:
    def test_degraded_is_slower_for_reads(self):
        fault_free = run_scenario(micro_config(mode="fault-free", read_fraction=1.0))
        degraded = run_scenario(micro_config(mode="degraded", read_fraction=1.0))
        assert degraded.response.mean_ms > fault_free.response.mean_ms


class TestReconMode:
    def test_reconstruction_completes_and_reports(self):
        result = run_scenario(
            micro_config(mode="recon", algorithm=USER_WRITES, recon_workers=4)
        )
        assert result.reconstruction is not None
        assert result.reconstruction_time_s > 0
        assert result.normalized_recon_ms_per_unit > 0
        recon = result.reconstruction
        assert recon.swept_units + recon.user_built_units == recon.total_units

    def test_datastore_scenario_is_clean(self):
        result = run_scenario(
            micro_config(
                mode="recon",
                algorithm=REDIRECT,
                recon_workers=4,
                with_datastore=True,
            )
        )
        assert result.integrity_errors == []

    def test_recon_time_accessors_raise_without_reconstruction(self):
        result = run_scenario(micro_config(mode="fault-free"))
        with pytest.raises(RuntimeError):
            _ = result.reconstruction_time_s


class TestCampaignMode:
    def test_campaign_serves_user_traffic_through_repairs(self):
        # A P+Q campaign with a workload: user requests keep flowing,
        # checked against the data store, while failed disks are
        # spared and rebuilt.
        result = run_scenario(
            ScenarioConfig(
                stripe_size=5,
                syndromes=2,
                user_rate_per_s=20.0,
                read_fraction=0.5,
                mode="campaign",
                scale=campaign.MICRO,
                with_datastore=True,
                spares=4,
                replacement_delay_ms=1_000.0,
                fault_profile=FaultProfile(
                    disk_mttf_hours=1.0, latent_errors_per_hour=0.1, seed=1992
                ),
                mission_ms=0.25 * MS_PER_HOUR,
            )
        )
        assert result.fault_summary["repairs_completed"] >= 1
        assert result.requests_completed > 0
        assert result.integrity_errors == []
        assert result.metrics["latency_ms"]["user-read"]["count"] > 0


class TestDeterminism:
    def test_same_config_same_result(self):
        first = run_scenario(micro_config(mode="fault-free"))
        second = run_scenario(micro_config(mode="fault-free"))
        assert first.response.mean_ms == second.response.mean_ms
        assert first.requests_completed == second.requests_completed


class TestMeasurementWindow:
    """Utilization must be computed over [warmup, end], not [0, end]."""

    def test_warmup_changes_utilization_but_not_the_simulation(self):
        no_warmup = ScalePreset(
            name="micro-w0",
            cylinders=13,
            steady_duration_ms=3_000.0,
            warmup_ms=0.0,
            note="test-only",
        )
        warm = run_scenario(micro_config(mode="fault-free"))
        cold = run_scenario(micro_config(mode="fault-free", scale=no_warmup))
        # Warm-up is a measurement boundary, not a simulation phase:
        # the event streams are identical, so raw busy totals agree...
        assert warm.requests_completed == cold.requests_completed
        # ...but the utilizations must differ, because the warm run
        # divides post-warmup busy time by the 2.5 s window while the
        # cold run divides the whole-run busy time by 3 s. (The old
        # code ignored the warmup boundary, making these equal.)
        assert warm.disk_utilization != cold.disk_utilization
        assert all(0 <= u < 1 for u in warm.disk_utilization)
        assert all(0 <= u < 1 for u in cold.disk_utilization)

    def test_zero_length_window_reports_zero_not_crash(self):
        degenerate = ScalePreset(
            name="micro-degenerate",
            cylinders=13,
            steady_duration_ms=1_000.0,
            warmup_ms=1_000.0,  # window [1000, 1000] is empty
            note="test-only",
        )
        result = run_scenario(micro_config(mode="fault-free", scale=degenerate))
        assert result.disk_utilization == [0.0] * 21
        assert result.metrics["window_ms"] == 0.0


class TestMetricsBlock:
    def test_recon_run_reports_all_latency_classes_and_progress(self):
        result = run_scenario(
            micro_config(mode="recon", algorithm=USER_WRITES, recon_workers=4)
        )
        metrics = result.metrics
        assert metrics is not None
        for klass in ("user-read", "user-write", "recon-read", "recon-write"):
            assert metrics["latency_ms"][klass]["count"] > 0
        assert len(metrics["disks"]) == 21
        for row in metrics["disks"]:
            assert 0.0 <= row["utilization"] <= 1.0
            assert "queue_depth_mean" in row
        (series,) = metrics["recon_progress"]
        assert series["points"][-1][1] == series["total_units"]
        assert metrics["counters"]["requests-completed"] > 0

    def test_metrics_match_response_summary_window(self):
        result = run_scenario(micro_config(mode="fault-free", read_fraction=1.0))
        # Same warmup filter on both paths: histogram sample count
        # equals the recorder's post-warmup count.
        assert result.metrics["latency_ms"]["user-read"]["count"] == (
            result.response.count
        )

    def test_collect_metrics_off_is_bit_identical(self):
        from repro.sweep import result_to_dict

        config = micro_config(mode="fault-free")
        with_metrics = result_to_dict(run_scenario(config))
        without = result_to_dict(run_scenario(config, collect_metrics=False))
        assert without["metrics"] is None
        assert with_metrics["metrics"] is not None
        # Observability is passive: stripping the metrics block leaves
        # the two result documents equal, so cache entries written by
        # either mode agree on everything the figures consume.
        with_metrics["metrics"] = None
        assert with_metrics == without

    def test_collect_metrics_is_not_part_of_the_cache_key(self):
        key = micro_config(mode="fault-free").to_key()
        assert "metrics" not in key
        assert "collect_metrics" not in key


class TestConfigKey:
    def test_round_trip_with_named_scale(self):
        config = micro_config(scale="tiny", algorithm=REDIRECT, mode="recon")
        assert ScenarioConfig.from_key(config.to_key()) == config

    def test_round_trip_with_scale_preset(self):
        config = micro_config(algorithm=USER_WRITES, recon_workers=8)
        rebuilt = ScenarioConfig.from_key(config.to_key())
        assert rebuilt == config
        assert isinstance(rebuilt.scale, ScalePreset)

    def test_key_is_json_safe(self):
        import json

        config = micro_config(algorithm=REDIRECT)
        restored = json.loads(json.dumps(config.to_key(), sort_keys=True))
        assert ScenarioConfig.from_key(restored) == config

    def test_algorithm_stored_by_name(self):
        assert micro_config(algorithm=REDIRECT).to_key()["algorithm"] == "redirect"

    def test_strict_baseline_round_trips(self):
        from repro.recon.algorithms import STRICT_BASELINE

        config = micro_config(algorithm=STRICT_BASELINE)
        assert ScenarioConfig.from_key(config.to_key()).algorithm is STRICT_BASELINE


class TestSyndromesConfig:
    def test_default_is_single_parity(self):
        config = micro_config()
        assert config.syndromes == 1
        assert config.to_key()["syndromes"] == 1

    def test_dual_round_trips_through_key(self):
        config = micro_config(syndromes=2)
        assert ScenarioConfig.from_key(config.to_key()) == config

    def test_legacy_key_without_syndromes_defaults_to_single(self):
        # Cache keys written before the dual campaign existed must
        # rebuild, not KeyError.
        key = micro_config().to_key()
        key.pop("syndromes")
        assert ScenarioConfig.from_key(key).syndromes == 1

    def test_invalid_syndrome_counts_rejected(self):
        with pytest.raises(ValueError, match="syndromes"):
            micro_config(syndromes=3)
        with pytest.raises(ValueError, match="syndromes"):
            micro_config(stripe_size=2, syndromes=2)
