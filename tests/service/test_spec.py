"""Tests for job-spec validation, normalization, and content addressing."""

import dataclasses
import json

import pytest

from repro.experiments.campaign import campaign_spec
from repro.service.spec import (
    MAX_POINTS,
    SpecError,
    parse_spec,
    spec_from_normalized,
)

from tests.service.conftest import micro_scenario_spec, micro_sweep_spec
from tests.sweep.conftest import MICRO, micro_spec_base


class TestScenario:
    def test_round_trips_one_config(self):
        raw = micro_scenario_spec()
        spec = parse_spec(raw)
        assert spec.kind == "scenario"
        assert len(spec.configs) == 1
        assert spec.configs[0].to_key() == raw["config"]
        assert spec.campaign is None

    def test_normalized_document_rebuilds(self):
        spec = parse_spec(micro_scenario_spec())
        rebuilt = spec_from_normalized(spec.document)
        assert rebuilt.kind == spec.kind
        assert rebuilt.configs == spec.configs
        assert rebuilt.job_id() == spec.job_id()

    @pytest.mark.parametrize("field, text", [
        ("recon_cycle_delay_ms", "Infinity"),
        ("recon_cycle_delay_ms", "NaN"),
        ("user_rate_per_s", "NaN"),
        ("user_rate_per_s", "Infinity"),
        ("read_fraction", "NaN"),
        ("replacement_delay_ms", "NaN"),
        ("mission_ms", "NaN"),
        ("mission_ms", "-1"),
    ])
    def test_non_finite_or_out_of_range_numbers_rejected(self, field, text):
        raw = micro_scenario_spec()
        # The service parses bodies with json.loads, which accepts NaN
        # and Infinity.
        raw["config"][field] = json.loads(text)
        with pytest.raises(SpecError, match=field):
            parse_spec(raw)

    @pytest.mark.parametrize("overrides, needle", [
        ({"num_disks": 0}, "num_disks"),
        ({"num_disks": 4, "stripe_size": 5}, "num_disks"),
        ({"num_disks": 1, "stripe_size": 2}, "num_disks"),
        ({"num_disks": 21, "failed_disk": 30}, "failed_disk"),
        ({"num_disks": 21, "failed_disk": -1}, "failed_disk"),
        ({"num_disks": 8, "stripe_size": 5, "layout": "prime"}, "prime"),
        ({"num_disks": 21, "stripe_size": 4, "layout": "cyclic"}, "arithmetic"),
        ({"num_disks": 1009, "stripe_size": 10, "layout": "table"}, "table"),
        # Checked before any primality test, which is trial division.
        ({"num_disks": 10**18 + 3, "stripe_size": 5, "layout": "prime"}, "limit"),
        # Each got a job id whose worker failed on the layout or the
        # table depth.
        ({"num_disks": 128, "stripe_size": 4, "syndromes": 2}, "closest feasible"),
        ({"num_disks": 100, "stripe_size": 4, "syndromes": 2}, "closest feasible"),
        ({"num_disks": 33, "stripe_size": 4}, "19840 units deep"),
    ])
    def test_array_shape_rejected(self, overrides, needle):
        raw = micro_scenario_spec()
        raw["config"].update(overrides)
        with pytest.raises(SpecError, match=needle):
            parse_spec(raw)

    @pytest.mark.parametrize("overrides, field", [
        ({"stripe_size": 4.5}, "stripe_size"),
        ({"mode": "recon", "recon_workers": 1.5}, "recon_workers"),
        ({"seed": "abc"}, "seed"),
        ({"syndromes": True}, "syndromes"),
        ({"num_disks": 21.0}, "num_disks"),
        ({"spares": 0.0}, "spares"),
        ({"seed": 1992.0}, "seed"),
        ({"failed_disk": 0.0}, "failed_disk"),
    ])
    def test_non_integer_fields_rejected(self, overrides, field):
        # Each got a job id: the first three then failed in the worker,
        # the rest ran the same work as the integer spec under a second
        # job id.
        raw = micro_scenario_spec()
        raw["config"].update(overrides)
        with pytest.raises(SpecError, match=f"{field} must be an integer"):
            parse_spec(raw)

    @pytest.mark.parametrize("field, text", [
        ("steady_duration_ms", "Infinity"),
        ("steady_duration_ms", "NaN"),
        ("cylinders", "1"),
        ("cylinders", "13.5"),
        ("warmup_ms", "-1"),
    ])
    def test_unrunnable_custom_scale_rejected(self, field, text):
        # An infinite duration used to hang the worker: the workload
        # ran to an infinite deadline.
        raw = micro_scenario_spec()
        raw["config"]["scale"][field] = json.loads(text)
        with pytest.raises(SpecError, match=field):
            parse_spec(raw)

    @pytest.mark.parametrize("overrides, needle", [
        ({"user_rate_per_s": 0.0}, "user_rate_per_s"),
        ({"user_rate_per_s": 0.0, "mode": "recon"}, "user_rate_per_s"),
        ({"policy": "bogus"}, "scheduling policy"),
        ({"policy": 5}, "scheduling policy"),
        ({"scale": "huge"}, "unknown scale"),
        ({"policy": "cvscan+"}, "unknown scheduling policy"),
    ])
    def test_config_that_fails_only_in_a_worker_rejected(self, overrides, needle):
        raw = micro_scenario_spec()
        raw["config"].update(overrides)
        with pytest.raises(SpecError, match=needle):
            parse_spec(raw)

    def test_nan_fault_profile_rejected(self):
        raw = micro_scenario_spec()
        # The service parses bodies with json.loads, which accepts NaN.
        raw["config"]["fault_profile"] = json.loads('{"disk_mttf_hours": NaN}')
        with pytest.raises(SpecError, match="disk_mttf_hours must be finite"):
            parse_spec(raw)


class TestSweep:
    def test_row_major_enumeration(self):
        base = micro_spec_base()
        base["scale"] = dataclasses.asdict(MICRO)
        raw = {
            "kind": "sweep",
            "axes": [["stripe_size", [4, 5]], ["seed", [1, 2]]],
            "base": {k: v for k, v in base.items() if k != "seed"},
        }
        spec = parse_spec(raw)
        assert [(c.stripe_size, c.seed) for c in spec.configs] == [
            (4, 1), (4, 2), (5, 1), (5, 2),
        ]

    def test_identical_work_is_one_job_id(self):
        # Base-field dict ordering must not change the content address.
        a = micro_sweep_spec()
        b = dict(a, base=dict(reversed(list(a["base"].items()))))
        assert parse_spec(a).job_id() == parse_spec(b).job_id()

    def test_different_work_is_a_different_job_id(self):
        assert (
            parse_spec(micro_sweep_spec((4, 5))).job_id()
            != parse_spec(micro_sweep_spec((4, 6))).job_id()
        )

    def test_point_limit(self):
        raw = micro_sweep_spec()
        raw["base"].pop("seed")
        raw["axes"] = [["seed", list(range(MAX_POINTS + 1))]]
        with pytest.raises(SpecError, match="limit"):
            parse_spec(raw)


class TestCampaign:
    def test_grid_matches_the_cli_campaign(self):
        raw = {
            "kind": "campaign",
            "scale": "tiny",
            "stripe_sizes": [4, 6],
            "trials": 2,
            "seed": 11,
            "mission_hours": 3.0,
        }
        spec = parse_spec(raw)
        grid = campaign_spec(
            "tiny", stripe_sizes=[4, 6], seed=11, trials=2, mission_hours=3.0
        )
        assert spec.configs == grid.configs()
        assert spec.campaign == {
            "trials": 2,
            "mission_hours": 3.0,
            "stripe_sizes": [4, 6],
            "seed": 11,
            "syndromes": 1,
        }

    def test_sizes_normalize_to_the_layouts_that_run(self):
        # No C=21 design has G=7; it runs G=6, so both spellings are one job.
        seven, six = (
            parse_spec({"kind": "campaign", "stripe_sizes": [g], "trials": 1})
            for g in (7, 6)
        )
        assert seven.campaign["stripe_sizes"] == [6]
        assert seven.job_id() == six.job_id()

    def test_defaults_come_from_the_scale(self):
        spec = parse_spec({"kind": "campaign", "scale": "tiny"})
        assert spec.campaign["trials"] == 3  # TRIALS["tiny"]
        assert len(spec.configs) == 4 * 3  # stripe sizes x trials

    def test_normalized_document_rebuilds(self):
        spec = parse_spec({"kind": "campaign", "scale": "tiny", "trials": 1})
        rebuilt = spec_from_normalized(spec.document)
        assert rebuilt.campaign == spec.campaign
        assert rebuilt.configs == spec.configs

    def test_dual_syndrome_campaign(self):
        from repro.experiments.campaign import CAMPAIGN_PQ_STRIPE_SIZES

        spec = parse_spec(
            {"kind": "campaign", "scale": "tiny", "trials": 1, "syndromes": 2}
        )
        assert spec.campaign["syndromes"] == 2
        # The default grid switches to the dual-capable stripe sizes.
        assert spec.campaign["stripe_sizes"] == list(CAMPAIGN_PQ_STRIPE_SIZES)
        assert all(config.syndromes == 2 for config in spec.configs)
        single = parse_spec({"kind": "campaign", "scale": "tiny", "trials": 1})
        assert spec.job_id() != single.job_id()

    def test_invalid_syndromes_rejected(self):
        with pytest.raises(SpecError, match="syndromes"):
            parse_spec({"kind": "campaign", "scale": "tiny", "syndromes": 3})
        with pytest.raises(SpecError, match="syndromes"):
            parse_spec({"kind": "campaign", "scale": "tiny", "syndromes": True})


MALFORMED = [
    pytest.param("not a dict", "JSON object", id="non-object"),
    pytest.param({}, "kind", id="no-kind"),
    pytest.param({"kind": "bogus"}, "kind", id="unknown-kind"),
    pytest.param({"kind": "scenario"}, "scenario config", id="scenario-no-config"),
    pytest.param(
        {"kind": "scenario", "config": {"stripe_size": 4, "bogus_field": 1}},
        "invalid scenario config",
        id="scenario-bad-field",
    ),
    pytest.param({"kind": "sweep"}, "axes", id="sweep-no-axes"),
    pytest.param({"kind": "sweep", "axes": [["g"]]}, "pair", id="sweep-bad-axis"),
    pytest.param(
        {"kind": "sweep", "axes": [["stripe_size", []]]},
        "non-empty",
        id="sweep-empty-values",
    ),
    pytest.param(
        {"kind": "sweep", "axes": [["stripe_size", [4]], ["stripe_size", [5]]]},
        "twice",
        id="sweep-duplicate-axis",
    ),
    pytest.param(
        {
            "kind": "sweep",
            "axes": [["stripe_size", [4]]],
            "base": {"stripe_size": 5},
        },
        "both an axis and a base field",
        id="sweep-axis-base-overlap",
    ),
    pytest.param({"kind": "campaign", "scale": "galactic"}, "scale", id="campaign-bad-scale"),
    pytest.param(
        {"kind": "campaign", "stripe_sizes": []}, "stripe_sizes", id="campaign-empty-sizes"
    ),
    pytest.param(
        {"kind": "campaign", "stripe_sizes": [7, 6], "trials": 1},
        "stripe sizes 7 and 6 both run as G=6",
        id="campaign-sizes-sharing-a-layout",
    ),
    pytest.param(
        {"kind": "campaign", "trials": 0}, "trials", id="campaign-zero-trials"
    ),
    pytest.param(
        {"kind": "campaign", "seed": "yes"}, "seed", id="campaign-bad-seed"
    ),
    pytest.param(
        {"kind": "campaign", "mission_hours": -1}, "mission_hours",
        id="campaign-bad-mission",
    ),
    pytest.param(
        {"kind": "campaign", "mission_hours": float("nan")}, "mission_hours",
        id="campaign-nan-mission",
    ),
    pytest.param(
        {"kind": "campaign", "mission_hours": float("inf")}, "mission_hours",
        id="campaign-infinite-mission",
    ),
]


@pytest.mark.parametrize("raw, needle", MALFORMED)
def test_malformed_specs_raise_spec_error(raw, needle):
    with pytest.raises(SpecError, match=needle):
        parse_spec(raw)


def test_spec_error_messages_are_human_readable():
    with pytest.raises(SpecError) as info:
        parse_spec({"kind": "scenario", "config": {"stripe_size": "four"}})
    assert "scenario config" in str(info.value)
