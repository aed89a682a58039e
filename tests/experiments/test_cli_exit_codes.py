"""Exit-code convention across every ``repro`` subcommand.

One convention, asserted in one place: 0 success, 1 runtime failure,
2 usage error — always with a one-line stderr message, never a
traceback. Argparse rejections (which raise SystemExit) and explicit
returns are normalized through the same helper so new subcommands
cannot quietly drift.
"""

import pytest

from repro import cli
from repro.sweep import SweepError


def run_cli(argv):
    """repro's main(), with argparse SystemExit folded into the code."""
    try:
        return cli.main(argv)
    except SystemExit as exit_:  # argparse error path
        return exit_.code


BAD_USAGE_CASES = [
    pytest.param(["no-such-experiment"], id="unknown-experiment"),
    pytest.param(["fig6-1", "--scale", "galactic"], id="bad-scale"),
    pytest.param(["fig6-1", "--jobs", "0"], id="non-positive-jobs"),
    pytest.param(["report"], id="report-no-paths"),
    pytest.param(
        ["report", "/no/such/path/anywhere.json"], id="report-missing-path"
    ),
    pytest.param(["serve", "--port", "99999"], id="serve-bad-port"),
    pytest.param(["serve", "--workers", "0"], id="serve-bad-workers"),
    pytest.param(["serve", "--max-jobs", "0"], id="serve-bad-max-jobs"),
    pytest.param(["job"], id="job-no-command"),
    pytest.param(
        ["job", "submit", "/no/such/spec.json"], id="job-missing-spec-file"
    ),
    pytest.param(["lint", "/no/such/path"], id="lint-missing-path"),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--cylinders", "1"],
        id="scenario-one-cylinder",
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--duration-ms", "inf"],
        id="scenario-infinite-duration",
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--duration-ms", "nan"],
        id="scenario-nan-duration",
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--duration-ms", "-1"],
        id="scenario-negative-duration",
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--duration-ms", "0"],
        id="scenario-zero-duration",
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--warmup-ms", "nan"],
        id="scenario-nan-warmup",
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--warmup-ms", "-1"],
        id="scenario-negative-warmup",
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--rate", "nan"], id="scenario-nan-rate"
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--rate", "inf"], id="scenario-infinite-rate"
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--rate", "0"], id="scenario-zero-rate"
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--rate", "-5"], id="scenario-negative-rate"
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--read-fraction", "1.5"],
        id="scenario-read-fraction-above-one",
    ),
    pytest.param(
        ["scenario", "--stripe-size", "5", "--read-fraction", "nan"],
        id="scenario-nan-read-fraction",
    ),
    pytest.param(
        ["scenario", "--num-disks", "1", "--stripe-size", "2", "--no-cache"],
        id="scenario-one-disk",
    ),
    pytest.param(
        ["scenario", "--num-disks", "4", "--stripe-size", "5", "--no-cache"],
        id="scenario-fewer-disks-than-stripe",
    ),
    pytest.param(
        ["scenario", "--num-disks", "8", "--stripe-size", "5", "--layout", "prime",
         "--no-cache"],
        id="scenario-prime-layout-on-composite-width",
    ),
    pytest.param(
        # Not a layout choice: argparse refuses it.
        ["scenario", "--num-disks", "21", "--stripe-size", "4", "--layout", "cyclic",
         "--no-cache"],
        id="scenario-cyclic-layout-without-a-family",
    ),
    pytest.param(
        ["scenario", "--num-disks", "1009", "--stripe-size", "10", "--layout", "table",
         "--cylinders", "128", "--no-cache"],
        id="scenario-table-layout-without-a-design-at-large-width",
    ),
    pytest.param(
        ["scenario", "--num-disks", "256", "--stripe-size", "4", "--syndromes", "2",
         "--no-cache"],
        id="scenario-pq-quadruple-system-past-the-size-cap",
    ),
    pytest.param(
        ["scenario", "--num-disks", "128", "--stripe-size", "4", "--syndromes", "2",
         "--no-cache"],
        id="scenario-pq-quadruple-system-past-the-size-cap-below-256",
    ),
    pytest.param(
        ["scenario", "--num-disks", "100", "--stripe-size", "4", "--syndromes", "2",
         "--no-cache"],
        id="scenario-pq-substitute-without-data-units",
    ),
    pytest.param(
        ["scenario", "--num-disks", "33", "--stripe-size", "4", "--no-cache"],
        id="scenario-table-deeper-than-the-disk",
    ),
]


@pytest.mark.parametrize("argv", BAD_USAGE_CASES)
def test_bad_arguments_exit_2_with_stderr_message(argv, capsys):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.strip(), f"expected a stderr message for {argv}"
    assert "Traceback" not in captured.err


def test_job_submit_rejects_non_json_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("{not json", encoding="utf-8")
    assert run_cli(["job", "submit", str(spec)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_job_unreachable_server_exits_1(tmp_path, capsys):
    # Port 1 is reserved and never bound in the test environment.
    code = run_cli(
        ["job", "--server", "http://127.0.0.1:1", "--timeout", "5",
         "status", "abc123"]
    )
    assert code == 1
    assert "cannot reach" in capsys.readouterr().err


def test_sweep_error_exits_1_with_message(monkeypatch, capsys):
    def exploding_runner(scale, options):
        raise SweepError("injected: point #0 failed")

    monkeypatch.setitem(
        cli.EXPERIMENTS, "fig6-1", ("patched", exploding_runner)
    )
    assert run_cli(["fig6-1"]) == 1
    captured = capsys.readouterr()
    assert "repro fig6-1: injected" in captured.err
    assert "Traceback" not in captured.err


def test_report_empty_tree_exits_1(tmp_path, capsys):
    assert run_cli(["report", str(tmp_path)]) == 1
    assert "no result documents found" in capsys.readouterr().err
