"""Ablation: parity rotation in the full block design table.

Section 4.2 derives the layout twice: the raw block design table puts
parity on the same tuple element everywhere, which can concentrate
parity on few disks; duplicating it G times with a rotating parity
position (Figure 4-2) guarantees balance for *every* design.

The demonstration uses the paper's own Figure 4-1 complete design on
(5, 4): unrotated, disk 4 takes the parity of four stripes out of five
and disks 0-2 take none, so under a pure-write workload the parity-hot
disk saturates long before its peers. (Cyclic designs such as the
paper's BD3 happen to balance even unrotated — each disk is the last
tuple element exactly once per orbit — which is why the guarantee has
to come from rotation, not luck.)
"""

from repro.array import ArrayAddressing, ArrayController
from repro.designs import complete_design
from repro.experiments.reporting import format_table
from repro.experiments.scales import get_scale
from repro.layout import PARITY_ROLE, DeclusteredLayout
from repro.layout.criteria import role_units_per_disk
from repro.sim import Environment
from repro.workload import SyntheticWorkload, WorkloadConfig

from benchmarks.conftest import bench_scale, run_once

WRITE_RATE_PER_S = 20.0  # 5-disk array: keeps the balanced case unsaturated


def run_variant(rotate_parity):
    env = Environment()
    layout = DeclusteredLayout(complete_design(5, 4), rotate_parity=rotate_parity)
    addressing = ArrayAddressing(layout, get_scale(bench_scale()).spec())
    controller = ArrayController(env, addressing)
    workload = SyntheticWorkload(
        controller, WorkloadConfig(access_rate_per_s=WRITE_RATE_PER_S, read_fraction=0.0)
    )
    workload.run(duration_ms=20_000.0)
    env.run(until=20_000.0)
    utilizations = [
        disk.stats.busy_window.total_ms / env.now for disk in controller.disks
    ]
    parity_counts = role_units_per_disk(layout, PARITY_ROLE)
    return {
        "rotated": rotate_parity,
        "parity_min": min(parity_counts),
        "parity_max": max(parity_counts),
        "util_min": round(min(utilizations), 3),
        "util_max": round(max(utilizations), 3),
        "response_ms": round(workload.recorder.summary().mean_ms, 2),
    }


def run_ablation():
    return [run_variant(True), run_variant(False)]


def test_bench_ablation_parity_rotation(benchmark, save_result):
    rows = run_once(benchmark, run_ablation)
    save_result(
        "ablation_parity_rotation",
        format_table(
            headers=["rotated", "parity/disk min", "max", "util min", "util max",
                     "resp (ms)"],
            rows=[
                [r["rotated"], r["parity_min"], r["parity_max"], r["util_min"],
                 r["util_max"], r["response_ms"]]
                for r in rows
            ],
            title=(
                "Ablation: parity rotation (complete (5,4) design, "
                f"100% writes at {WRITE_RATE_PER_S:.0f}/s)"
            ),
        ),
    )
    rotated, unrotated = rows
    # Rotation balances parity exactly; the raw table concentrates it.
    assert rotated["parity_min"] == rotated["parity_max"]
    assert unrotated["parity_max"] >= 4 * max(unrotated["parity_min"], 1)
    # The parity hot spot shows up as utilization imbalance and worse
    # response time under a write workload.
    assert (unrotated["util_max"] - unrotated["util_min"]) > (
        rotated["util_max"] - rotated["util_min"]
    )
    assert unrotated["response_ms"] > rotated["response_ms"]
