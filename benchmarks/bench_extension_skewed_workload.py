"""Extension bench: load balance under a skewed (Zipf) workload.

The distributed-parity and distributed-reconstruction criteria
guarantee balance only for a *uniform* workload; a hot working set maps
to specific stripes and piles onto their disks. The comparison is
between layouts: with small parity stripes (G=4), a 200-unit working
set spans ~67 different parity stripes whose units the block design
scatters across all 21 disks; RAID 5's 20-data-unit stripes pack the
same working set into ~10 stripes, concentrating its parity traffic
onto few disks. The bench replays the same Zipf trace (skew 1.0,
50/50) against both layouts and reports utilization-balance metrics —
declustering tolerates skew dramatically better.
"""

from repro.analysis.balance import balance_report
from repro.array import ArrayAddressing, ArrayController
from repro.experiments.builders import build_layout
from repro.experiments.reporting import format_table
from repro.experiments.scales import get_scale
from repro.sim import Environment
from repro.workload import TraceWorkload, zipf_hot_spot

from benchmarks.conftest import bench_scale, run_once

TRACE_ACCESSES = 4_000
RATE_PER_S = 210.0


def run_variant(stripe_size):
    env = Environment()
    layout = build_layout(21, stripe_size)
    addressing = ArrayAddressing(layout, get_scale(bench_scale()).spec())
    controller = ArrayController(env, addressing)
    trace = zipf_hot_spot(
        num_units=addressing.num_data_units,
        count=TRACE_ACCESSES,
        rate_per_s=RATE_PER_S,
        read_fraction=0.5,
        skew=1.0,
        working_set=200,
    )
    workload = TraceWorkload(controller, trace)
    workload.run()
    env.run(until=workload.drained())
    report = balance_report(
        [disk.stats.busy_window.total_ms / env.now for disk in controller.disks]
    )
    return {
        "layout": f"G={stripe_size}",
        "mean_util": round(report["mean"], 3),
        "max_util": round(report["max"], 3),
        "imbalance": round(report["imbalance_ratio"], 3),
        "gini": round(report["gini"], 3),
        "mean_response_ms": round(workload.recorder.summary().mean_ms, 2),
    }


def run_extension():
    return [run_variant(4), run_variant(21)]


def test_bench_extension_skewed_workload(benchmark, save_result):
    rows = run_once(benchmark, run_extension)
    save_result(
        "extension_skewed_workload",
        format_table(
            headers=["layout", "mean util", "max util", "imbalance", "gini",
                     "mean resp (ms)"],
            rows=[
                [r["layout"], r["mean_util"], r["max_util"], r["imbalance"],
                 r["gini"], r["mean_response_ms"]]
                for r in rows
            ],
            title=(
                "Extension: load balance under a Zipf hot spot "
                "(skew 1.0, 200-unit working set, rate 210, 50/50)"
            ),
        ),
    )
    declustered, raid5 = rows
    # Smaller parity stripes spread the hot working set over more
    # stripes and hence more disks: better balance, far better response.
    assert declustered["imbalance"] < raid5["imbalance"]
    assert declustered["mean_response_ms"] < raid5["mean_response_ms"] / 2
