"""One rep of one workload in a fresh interpreter; prints one JSON line.

    python child.py KIND WORKLOAD SEED [--smoke]

KIND is one of:

- ``setup``: time importing the simulator plus building the workload's
  layout and address map;
- ``timed``: time one ``run_scenario(config, collect_metrics=False)``;
- ``reference``: the same run untimed, counting disk requests and
  reporting the interpreter's peak RSS;
- ``traced``: one run under cProfile with metrics on, folded by layer.

``setup``, ``timed`` and ``traced`` reps bracket their measured region
with calibration passes and report the host's ``slowdown`` over it;
times are reported raw. Every kind except ``setup`` reports the result
digest, so the parent can check each rep's output.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import calibration


def _model(result) -> dict:
    """Simulated statistics of one run with metrics on.

    These are outputs of the model, not of the host: a change that only
    speeds up the simulator must leave every one of them identical.
    """
    disks = result.metrics["disks"]
    ios = sum(row["completed"] for row in disks)
    model = {
        "disk_utilization_mean": sum(result.disk_utilization) / len(result.disk_utilization),
        "queue_depth_max": max(row.get("queue_depth_max", 0) for row in disks),
    }
    for field in ("seek_ms", "rotation_ms", "transfer_ms", "queue_wait_ms"):
        model[f"{field}_per_io"] = sum(row[field] for row in disks) / ios
    if result.requests_completed:
        model["user_response_ms_mean"] = result.response.mean_ms
    if result.reconstruction is not None:
        model["recon_time_s"] = result.reconstruction.reconstruction_time_ms / 1000.0
    if result.fault_summary is not None:
        model["disk_failures"] = result.fault_summary["disk_failures"]
        model["repairs_completed"] = result.fault_summary["repairs_completed"]
    return model


def _units_rebuilt(result) -> int:
    return sum(
        series["points"][-1][1]
        for series in result.metrics["recon_progress"]
        if series["points"]
    )


def _calibrated(calibrator: calibration.Calibrator, measured) -> dict:
    """Run ``measured()`` between two pairs of calibration passes."""
    passes = [calibrator.pass_s(), calibrator.pass_s()]
    report = measured()
    passes += [calibrator.pass_s(), calibrator.pass_s()]
    report["slowdown"] = calibration.slowdown(passes)
    return report


def run(kind: str, name: str, seed: int, smoke: bool) -> dict:
    if kind == "setup":
        def set_up() -> dict:
            started = time.perf_counter()
            import workloads

            workloads.set_up(name)
            return {"setup_s": time.perf_counter() - started}

        return _calibrated(calibration.Calibrator(), set_up)

    import workloads
    from repro.experiments.runner import run_scenario

    config = workloads.scenario(name, seed, smoke)
    if kind == "timed":
        calibrator = calibration.Calibrator()

        def timed() -> dict:
            started = time.perf_counter()
            result = run_scenario(config, collect_metrics=False)
            run_s = time.perf_counter() - started
            return {
                "run_s": run_s,
                "digest": workloads.result_digest(result),
                "simulated_ms": result.simulated_ms,
                "requests_completed": result.requests_completed,
            }

        return _calibrated(calibrator, timed)
    if kind == "reference":
        from repro.disk.drive import Disk

        submits = 0
        submit = Disk.submit

        def counting_submit(disk, request):
            nonlocal submits
            submits += 1
            return submit(disk, request)

        Disk.submit = counting_submit
        result = run_scenario(config, collect_metrics=False)
        return {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digest": workloads.result_digest(result),
            "disk_requests": submits,
        }
    if kind == "traced":
        import cProfile
        import pstats

        import attribution

        calibrator = calibration.Calibrator()

        def traced() -> dict:
            profile = cProfile.Profile()
            started = time.perf_counter()
            profile.enable()
            result = run_scenario(config, collect_metrics=True)
            profile.disable()
            wall_s = time.perf_counter() - started
            stats = pstats.Stats(profile).stats
            return {
                "wall_s": wall_s,
                "profile_total_s": sum(entry[2] for entry in stats.values()),
                "layers": attribution.layer_self_times(stats),
                "counts": attribution.entry_counts(stats),
                "digest": workloads.result_digest(result),
                "model": _model(result),
                "units_rebuilt": _units_rebuilt(result),
            }

        return _calibrated(calibrator, traced)
    raise SystemExit(f"unknown rep kind {kind!r}")


if __name__ == "__main__":
    kind, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    print(json.dumps(run(kind, name, seed, smoke="--smoke" in sys.argv[4:])))
