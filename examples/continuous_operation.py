#!/usr/bin/env python
"""Continuous operation, end to end: scrubbing, hot spares, auto-repair.

Runs an operations-flavored scenario on a declustered array:

1. serve a steady workload while a background parity scrub sweeps the
   array (catching a latent parity error we inject);
2. fail a disk; the hot-spare pool installs a replacement and
   reconstructs automatically;
3. fail a second (different) disk later; the pool repairs again;
4. report per-repair times and the MTTDL the measured repair time
   implies at full disk size.

Run:  python examples/continuous_operation.py
"""

from repro import (
    ArrayAddressing,
    ArrayController,
    Environment,
    ParityScrubber,
    SparePool,
    SyntheticWorkload,
    WorkloadConfig,
    paper_design,
    scaled_spec,
)
from repro.analysis.reliability import ReliabilityInputs, mttdl_years
from repro.experiments.scales import get_scale
from repro.layout import DeclusteredLayout
from repro.recon import USER_WRITES


def main():
    env = Environment()
    layout = DeclusteredLayout(paper_design(4))
    addressing = ArrayAddressing(layout, scaled_spec(13))
    controller = ArrayController(
        env, addressing, algorithm=USER_WRITES, with_datastore=True
    )
    workload = SyntheticWorkload(
        controller, WorkloadConfig(access_rate_per_s=105.0, read_fraction=0.5)
    )
    workload.run(duration_ms=float("inf"))

    # --- 1. background scrub catches a latent parity error --------------
    parity = layout.stripe_unit(17, layout.data_units_per_stripe)  # P follows the data
    store = controller.datastore
    store.write_unit(parity.disk, parity.offset, 0xBAD0BAD0)
    scrubber = ParityScrubber(controller, cycle_delay_ms=2.0)
    report = env.run(until=scrubber.start())
    print(f"scrub: {report.stripes_checked} stripes in "
          f"{report.duration_ms / 1000.0:.1f} s, "
          f"{report.mismatches_found} latent error(s) found and "
          f"{report.repairs_written} repaired")

    # --- 2 & 3. failures handled by the spare pool ------------------------
    pool = SparePool(
        controller, spares=2, replacement_delay_ms=1_000.0, recon_workers=8
    )
    for failed_disk in (5, 11):
        workload.pause_verification()
        record = env.run(until=pool.handle_failure(failed_disk))
        print(
            f"repair of disk {record.failed_disk}: spare installed after "
            f"{record.replacement_delay_ms / 1000.0:.1f} s, reconstructed in "
            f"{record.reconstruction_ms / 1000.0:.1f} s"
        )
        env.run(until=env.now + 5_000.0)  # settle between failures

    workload.stop()
    env.run(until=workload.drained())
    assert workload.integrity_errors == [], workload.integrity_errors
    print(f"\nworkload: {workload.completed} requests, zero integrity errors")

    # --- 4. what the measured repair buys in reliability -------------------
    mean_repair_ms = sum(r.total_repair_ms for r in pool.repairs) / len(pool.repairs)
    scale_factor = get_scale("paper").units_per_disk / addressing.mapped_units_per_disk
    repair_hours = mean_repair_ms * scale_factor / 3_600_000.0
    inputs = ReliabilityInputs(
        num_disks=21, disk_mttf_hours=150_000.0, repair_hours=repair_hours
    )
    print(
        f"mean repair (scaled to full 0661): {repair_hours:.2f} h "
        f"-> MTTDL ≈ {mttdl_years(inputs):,.0f} years"
    )


if __name__ == "__main__":
    main()
