"""End-to-end benchmark of the simulator, with per-layer attribution.

Full run (every workload, one JSON document)::

    python benchmarks/e2e/run.py [--seed N] [--out PATH] [--against DOC]

runs the set-up reps, then the timed reps round-robin across workloads,
then one traced rep per workload. Every rep runs in a fresh interpreter,
one at a time. ``--against`` records the verdicts of this run against an
earlier document in the new one.

One workload, one measurement (the last output line is a JSON result)::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Verdicts between two documents (exit status 1 on any regression)::

    python benchmarks/e2e/run.py compare A.json B.json

Every rep's result digest is checked: against ``digests.json`` at the
default seed, otherwise against the workload's other reps.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import typing

from compare import MetricSpec, compare, format_rows

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1992
WORKLOADS = ("ff_mixed", "writes_sptf", "recon_8way", "campaign_pq")

#: Set-up reps per workload (set-up is short, so its median needs several).
SETUP_REPS = 5
#: Timed reps per workload in a full run. Reps are short (0.5-1 s) and
#: many: even calibrated, single reps on this host spread by ~12%.
FULL_TIMED_REPS = 20
#: A one-workload measurement takes a median over at least this many reps.
MIN_TIMED_REPS = 3
#: A one-workload measurement starts no rep after START_DEADLINE_S and
#: kills any rep still running at FINISH_DEADLINE_S, so it ends within
#: three minutes.
START_DEADLINE_S = 120.0
FINISH_DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 300.0

#: End-to-end metrics (host time on the reference host; medians over
#: reps). The 25% bounds on host time are what this host supports: the
#: medians of 20-second measurements of one commit spread by up to 8%,
#: and a bound should be at least three times that.
E2E = {
    "run_s": MetricSpec("s", "lower", 0.25),
    "sim_ios_per_s": MetricSpec("1/s", "higher", 0.25),
    "sim_seconds_per_s": MetricSpec("1", "higher", 0.25),
    "user_requests_per_s": MetricSpec("1/s", "higher", 0.25),
    "setup_s": MetricSpec("s", "lower", 0.25),
    "peak_rss_mb": MetricSpec("MB", "lower", 0.05),
    "failed_frac": MetricSpec("1", "lower", 0.0),
}
#: The end-to-end metrics of a one-workload measurement: those that are
#: never 0 and whose value does not depend on how much simulated work a
#: seed happens to draw (a campaign's failure count is Poisson, so its
#: run time varies by about a quarter between seeds; I/Os per second
#: does not).
MEASURE_E2E = ("sim_ios_per_s", "setup_s", "peak_rss_mb")

MODEL_UNITS = {
    "disk_utilization_mean": "1",
    "queue_depth_max": "count",
    "seek_ms_per_io": "ms",
    "rotation_ms_per_io": "ms",
    "transfer_ms_per_io": "ms",
    "queue_wait_ms_per_io": "ms",
    "user_response_ms_mean": "ms",
    "recon_time_s": "s",
    "disk_failures": "count",
    "repairs_completed": "count",
}
SELF_TIME_LAYERS = (
    "sim.environment", "sim.events", "sim.process", "workload", "array", "layout",
    "disk", "disk.scheduling", "recon", "faults", "metrics", "other",
)
COUNTS = (
    "sim.events", "sim.processes", "array.user_requests", "array.lock_acquires",
    "layout.translations", "disk.requests", "disk.service_evals",
    "disk.batch_pricings", "disk.scheduling.pops",
)
#: The per-layer metrics of a one-workload traced measurement: every one
#: that every workload exercises. Layers idle on some workload (recon,
#: faults) and the simulated ``model.*`` statistics, which no simulator
#: optimisation may move, are in the full run's document only.
MEASURE_PER_LAYER = (
    "sim.environment.self_s", "sim.events.self_s", "sim.process.self_s",
    "workload.self_s", "array.self_s", "layout.self_s", "disk.self_s",
    "disk.scheduling.self_s", "metrics.self_s", "other.self_s",
) + COUNTS + ("recon.units_rebuilt", "disk.service_evals_per_pop", "trace.overhead")


def child(kind: str, name: str, seed: int, smoke: bool, timeout: float) -> typing.Optional[dict]:
    """Run one rep in a fresh interpreter; None if it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "child.py"), kind, name, str(seed)]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=max(1.0, timeout)
        )
    except subprocess.TimeoutExpired:
        print(f"{kind} rep of {name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{kind} rep of {name} failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def expected_digests(seed: int) -> typing.Dict[str, str]:
    """Digests every rep must reproduce; empty for a non-default seed."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads((HERE / "digests.json").read_text())["digests"]


class Tally:
    """The reps of one workload, and which of them failed.

    A rep fails if it raises or if its result digest differs from the
    expected one (at a non-default seed: from the first rep's).
    """

    def __init__(self, name: str, seed: int, smoke: bool, digest: typing.Optional[str]):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.setups: typing.List[dict] = []
        self.timed: typing.List[dict] = []
        self.reference: typing.Optional[dict] = None
        self.traced: typing.Optional[dict] = None

    def rep(self, kind: str, timeout: float = CHILD_TIMEOUT_S) -> typing.Optional[dict]:
        self.attempted += 1
        result = child(kind, self.name, self.seed, self.smoke, timeout)
        if result is not None and "digest" in result:
            if self.digest is None:
                self.digest = result["digest"]
            elif result["digest"] != self.digest:
                print(f"{kind} rep of {self.name}: result digest mismatch", file=sys.stderr)
                result = None
        if result is None:
            self.failed += 1
        return result

    def run_setup(self) -> None:
        result = self.rep("setup")
        if result is not None:
            self.setups.append(result)

    def run_timed(self, timeout: float = CHILD_TIMEOUT_S) -> None:
        result = self.rep("timed", timeout)
        if result is not None:
            self.timed.append(result)

    def end_to_end(self) -> typing.Dict[str, typing.List[float]]:
        """Per-rep values of every end-to-end metric with a value here.

        Host times are on the reference host: each rep's raw time over
        the host's slowdown during that rep (see ``calibration.py``).
        """
        run_s = [r["run_s"] / r["slowdown"] for r in self.timed]
        values = {
            "run_s": run_s,
            "sim_seconds_per_s": [
                r["simulated_ms"] / 1000.0 / t for r, t in zip(self.timed, run_s)
            ],
            "setup_s": [r["setup_s"] / r["slowdown"] for r in self.setups],
            "peak_rss_mb": [self.reference["peak_rss_mb"]] if self.reference else [],
            "failed_frac": [self.failed / self.attempted],
        }
        if self.reference is not None:
            values["sim_ios_per_s"] = [self.reference["disk_requests"] / t for t in run_s]
        if self.timed and self.timed[0]["requests_completed"]:
            values["user_requests_per_s"] = [
                r["requests_completed"] / t for r, t in zip(self.timed, run_s)
            ]
        return values

    def host_slowdown(self) -> typing.List[float]:
        """The host's slowdown during each timed rep."""
        return [r["slowdown"] for r in self.timed]

    def per_layer(self) -> typing.Dict[str, typing.Tuple[float, str]]:
        """(value, unit) of every per-layer metric of the traced rep.

        Self times are on the reference host, like the end-to-end times.
        """
        traced = self.traced
        counts = traced["counts"]
        slowdown = traced["slowdown"]
        metrics = {
            f"{layer}.self_s": (traced["layers"][layer] / slowdown, "s")
            for layer in SELF_TIME_LAYERS
        }
        metrics.update((name, (counts[name], "count")) for name in COUNTS)
        metrics["recon.units_rebuilt"] = (traced["units_rebuilt"], "count")
        if counts["array.user_requests"]:
            metrics["sim.processes_per_request"] = (
                counts["sim.processes"] / counts["array.user_requests"], "1"
            )
        metrics["disk.service_evals_per_pop"] = (
            counts["disk.service_evals"] / counts["disk.scheduling.pops"], "1"
        )
        run_s = statistics.median(self.end_to_end()["run_s"])
        metrics["trace.overhead"] = (traced["wall_s"] / slowdown / run_s, "1")
        metrics.update(
            (f"model.{name}", (value, MODEL_UNITS[name]))
            for name, value in traced["model"].items()
        )
        return metrics


def summarize(values: typing.Sequence[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)``), range and n."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }


def _print_metric(name: str, unit: str, summary: dict) -> None:
    print(
        f"  {name:<28} {summary['median']:>14.6g} {unit:<6} "
        f"q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}  n {summary['n']}"
    )


def _print_value(name: str, value: float, unit: str) -> None:
    print(f"  {name:<28} {value:>14.6g} {unit}")


def environment() -> dict:
    """Where a document was measured: host, interpreter and source tree."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def git(*args: str) -> typing.Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    changed = git("status", "--porcelain", "--untracked-files=no", "--", "src", "benchmarks/e2e")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        # Only the measured code counts: uncommitted edits under src/
        # or the benchmark itself.
        "dirty": None if changed is None else bool(changed),
    }


def full_run(seed: int, smoke: bool = False, timed_reps: int = FULL_TIMED_REPS) -> dict:
    """Every workload: set-up and reference reps, timed reps round-robin,
    then one traced rep each."""
    expected = expected_digests(seed) if not smoke else {}
    tallies = [Tally(name, seed, smoke, expected.get(name)) for name in WORKLOADS]
    started = time.perf_counter()
    for _ in range(SETUP_REPS):
        for tally in tallies:
            tally.run_setup()
    for tally in tallies:
        tally.reference = tally.rep("reference")
    for rep in range(timed_reps):
        for tally in tallies:
            tally.run_timed()
        print(f"timed round {rep + 1}/{timed_reps} done", file=sys.stderr)
    for tally in tallies:
        tally.traced = tally.rep("traced")
    document = {
        "schema": "repro-e2e/1",
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "smoke": smoke,
        "timed_reps": timed_reps,
        "setup_reps": SETUP_REPS,
        "wall_s": time.perf_counter() - started,
        "environment": environment(),
        "workloads": {},
    }
    for tally in tallies:
        entry = {"attempted": tally.attempted, "failed": tally.failed, "digest": tally.digest}
        values = tally.end_to_end()
        entry["end_to_end"] = {
            name: dict(summarize(values[name]), unit=spec.unit)
            for name, spec in E2E.items()
            if values.get(name)
        }
        if tally.timed:
            entry["host_slowdown"] = summarize(tally.host_slowdown())
        if tally.traced is not None and tally.timed:
            entry["per_layer"] = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in tally.per_layer().items()
            }
        document["workloads"][tally.name] = entry
    return document


def print_document(document: dict) -> None:
    for name, entry in document["workloads"].items():
        print(f"{name}: {entry['attempted']} reps attempted, {entry['failed']} failed")
        for metric, summary in entry["end_to_end"].items():
            _print_metric(metric, summary["unit"], summary)
        if "host_slowdown" in entry:
            _print_metric("(host slowdown)", "1", entry["host_slowdown"])
        for metric, item in entry.get("per_layer", {}).items():
            _print_value(metric, item["value"], item["unit"])


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload for ``seconds``; returns the JSON result object."""
    started = time.perf_counter()
    tally = Tally(name, seed, smoke, expected_digests(seed).get(name) if not smoke else None)

    def remaining() -> float:
        return FINISH_DEADLINE_S - (time.perf_counter() - started)

    if trace:
        tally.run_timed(remaining())
        tally.traced = tally.rep("traced", remaining())
        if tally.traced is None or not tally.timed:
            raise SystemExit(f"traced measurement of {name} failed")
        metrics = tally.per_layer()
        chosen = {metric: metrics[metric] for metric in MEASURE_PER_LAYER}
        for metric, (value, unit) in chosen.items():
            _print_value(metric, value, unit)
    else:
        for _ in range(SETUP_REPS):
            tally.run_setup()
        tally.reference = tally.rep("reference", remaining())
        measuring = time.perf_counter()
        while (
            len(tally.timed) < MIN_TIMED_REPS
            or time.perf_counter() - measuring < seconds
        ) and time.perf_counter() - started < START_DEADLINE_S:
            tally.run_timed(remaining())
        if tally.reference is None or not tally.timed or not tally.setups:
            raise SystemExit(f"measurement of {name} failed")
        values = tally.end_to_end()
        chosen = {}
        for metric in MEASURE_E2E:
            summary = summarize(values[metric])
            _print_metric(metric, E2E[metric].unit, summary)
            chosen[metric] = (summary["median"], E2E[metric].unit)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in chosen.items()},
    }


def main(argv: typing.Sequence[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        a_doc, b_doc = (json.loads(pathlib.Path(p).read_text()) for p in argv[1:])
        rows = compare(E2E, a_doc, b_doc)
        print("\n".join(format_rows(rows)))
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=pathlib.Path, help="write the full run's document here")
    parser.add_argument("--against", type=pathlib.Path, help="earlier document to compare with")
    parser.add_argument("--workload", choices=WORKLOADS, help="measure one workload only")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {SRC}", file=sys.stderr)
        return 2
    if args.workload is not None:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    document = full_run(args.seed)
    if args.against is not None:
        earlier = json.loads(args.against.read_text())
        document["agreement"] = {
            "against": {"created": earlier["created"], "environment": earlier["environment"]},
            "rows": compare(E2E, earlier, document),
        }
    print_document(document)
    if args.against is not None:
        print("\n".join(format_rows(document["agreement"]["rows"])))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
