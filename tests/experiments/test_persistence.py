"""Unit tests for experiment result persistence."""

import json

import pytest

from repro.experiments.persistence import FORMAT_VERSION, save_rows

ROWS = [
    {"alpha": 0.15, "rate": 105, "recon_time_s": 40.0},
    {"alpha": 1.0, "rate": 105, "recon_time_s": 80.0},
]


def read_document(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "fig8.json"
        save_rows(path, experiment="fig8-1", scale="tiny", rows=ROWS)
        document = read_document(path)
        assert document["rows"] == ROWS
        assert document["format_version"] == FORMAT_VERSION
        assert document["experiment"] == "fig8-1"
        assert document["scale"] == "tiny"
        assert "alpha" in document["fields"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "deeper" / "out.json"
        save_rows(path, experiment="x", scale="tiny", rows=ROWS)
        assert path.exists()


class TestNonUniformRows:
    def test_fields_are_the_union_of_row_keys(self, tmp_path):
        rows = [
            {"alpha": 0.15, "recon_time_s": 40.0},
            {"alpha": 1.0, "mean_response_ms": 22.5},
            {"rate": 105, "mean_response_ms": 30.0},
        ]
        path = tmp_path / "mixed.json"
        save_rows(path, experiment="mixed", scale="tiny", rows=rows)
        document = read_document(path)
        assert document["fields"] == ["alpha", "mean_response_ms",
                                      "rate", "recon_time_s"]
        assert document["rows"] == rows

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.json"
        save_rows(path, experiment="none", scale="tiny", rows=[])
        document = read_document(path)
        assert document["fields"] == []
        assert document["rows"] == []


class TestCanonicalObjects:
    def test_algorithm_and_config_in_rows(self, tmp_path):
        from repro.experiments import ScenarioConfig
        from repro.recon import REDIRECT

        config = ScenarioConfig(
            stripe_size=4, user_rate_per_s=105.0, read_fraction=0.5,
            algorithm=REDIRECT,
        )
        path = tmp_path / "objects.json"
        save_rows(
            path, experiment="obj", scale="tiny",
            rows=[{"algorithm": REDIRECT, "config": config}],
        )
        loaded = read_document(path)["rows"]
        assert loaded[0]["algorithm"] == "redirect"
        assert ScenarioConfig.from_key(loaded[0]["config"]) == config

    def test_scale_preset_in_rows(self, tmp_path):
        from repro.experiments.scales import TINY

        path = tmp_path / "preset.json"
        save_rows(path, experiment="p", scale="tiny", rows=[{"scale": TINY}])
        loaded = read_document(path)["rows"]
        assert loaded[0]["scale"]["cylinders"] == 13

    def test_unserializable_object_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_rows(tmp_path / "bad.json", experiment="bad", scale="tiny",
                      rows=[{"thing": object()}])
