"""Self-tests of the end-to-end benchmark, on scaled-down workloads.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository root.
"""

from __future__ import annotations

import functools
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from compare import BETTER, UNRESOLVED, WITHIN, WORSE, MetricSpec, compare, verdict  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = workloads.DEFAULT_SEED


@functools.lru_cache(maxsize=None)
def traced_pair(name: str):
    return (
        run.child("traced", name, SEED, True, run.CHILD_TIMEOUT_S),
        run.child("traced", name, SEED, True, run.CHILD_TIMEOUT_S),
    )


@pytest.fixture(autouse=True, scope="module")
def one_setup_rep():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(run, "SETUP_REPS", 1)
        yield


@pytest.fixture(scope="module")
def smoke_document():
    return run.full_run(SEED, smoke=True, timed_reps=2)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.MEASURE_E2E)
    for metric in BENCHMARK["end_to_end"]:
        spec = run.E2E[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == tuple(spec)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.MEASURE_PER_LAYER)


def test_full_run_reports_every_metric_with_its_unit(smoke_document):
    for name, entry in smoke_document["workloads"].items():
        assert entry["failed"] == 0, name
        expected = set(run.E2E)
        if name == "campaign_pq":  # no user traffic
            expected.discard("user_requests_per_s")
        assert set(entry["end_to_end"]) == expected, name
        for metric, summary in entry["end_to_end"].items():
            assert summary["unit"] == run.E2E[metric].unit
            assert summary["q1"] <= summary["median"] <= summary["q3"]
        units = {metric: item["unit"] for metric, item in entry["per_layer"].items()}
        for metric in BENCHMARK["per_layer"]:
            assert units[metric["name"]] == metric["unit"], (name, metric["name"])


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_measurement_reports_the_benchmark_metrics(trace, section):
    result = run.measure("writes_sptf", SEED, seconds=0.0, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k in run.MEASURE_E2E)


def test_a_corrupted_expected_digest_fails_every_rep():
    tally = run.Tally("ff_mixed", SEED, True, digest="0" * 64)
    tally.run_timed()
    tally.run_timed()
    assert tally.timed == []
    assert tally.end_to_end()["failed_frac"] == [1.0]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_layer_self_times_sum_to_the_profile_total(name):
    traced, _ = traced_pair(name)
    total = sum(traced["layers"].values())
    assert total == pytest.approx(traced["profile_total_s"], rel=0.02)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly_across_traced_runs(name):
    first, second = traced_pair(name)
    assert first["digest"] == second["digest"]
    assert first["counts"] == second["counts"]
    assert first["units_rebuilt"] == second["units_rebuilt"]
    assert first["model"] == second["model"]
    reference = run.child("reference", name, SEED, True, run.CHILD_TIMEOUT_S)
    assert reference["disk_requests"] == first["counts"]["disk.requests"]
    assert reference["digest"] == first["digest"]


def _document(**metrics):
    return {"workloads": {"w": {"end_to_end": {k: run.summarize(v) for k, v in metrics.items()}}}}


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.01, 1.00, 1.02, 0.99, 1.00], WITHIN),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.20, 1.21, 1.19, 1.22, 1.20], WORSE),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [0.80, 0.81, 0.79, 0.82, 0.80], BETTER),
        # Spread wider than the bound and the runs overlap: no verdict.
        ([1.0, 1.5, 0.7, 1.2, 0.9], [1.3, 0.8, 1.6, 1.0, 1.1], UNRESOLVED),
        # Wide spread, but every run of B is slower than every run of A.
        ([1.0, 1.1, 0.8, 1.05, 0.85], [1.5, 1.6, 1.3, 1.55, 1.35], WORSE),
    ],
)
def test_compare_verdicts_on_run_times(a, b, expected):
    spec = MetricSpec("s", "lower", 0.10)
    assert verdict(spec, run.summarize(a), run.summarize(b))[0] == expected


def test_compare_reads_direction_and_exact_metrics():
    higher = MetricSpec("1/s", "higher", 0.10)
    assert verdict(higher, run.summarize([100.0] * 3), run.summarize([80.0] * 3))[0] == WORSE
    exact = MetricSpec("1", "lower", 0.0)
    assert verdict(exact, run.summarize([0.0]), run.summarize([0.2]))[0] == WORSE
    assert verdict(exact, run.summarize([0.0]), run.summarize([0.0]))[0] == WITHIN
    rows = compare(run.E2E, _document(run_s=[1.0, 1.0]), _document(run_s=[2.0, 2.0]))
    assert [(r["metric"], r["verdict"]) for r in rows] == [("run_s", WORSE)]


def test_compare_command_exits_1_on_a_regression(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document(run_s=[1.0, 1.01, 0.99])))
    b.write_text(json.dumps(_document(run_s=[1.5, 1.51, 1.49])))
    command = [sys.executable, str(HERE / "run.py"), "compare"]
    assert subprocess.run(command + [str(a), str(a)], capture_output=True).returncode == 0
    assert subprocess.run(command + [str(a), str(b)], capture_output=True).returncode == 1


def test_without_the_simulator_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", "ff_mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
