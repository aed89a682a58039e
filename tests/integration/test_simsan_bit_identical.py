"""The sanitizer's core contract: observation only.

A scenario run with a :class:`LockMonitor` attached must be
event-for-event identical to the same scenario without it — same
response statistics, same reconstruction time, same metrics block.
If this test fails, the monitor has perturbed the simulation and
every simsan verdict is meaningless.
"""

from repro.devtools.simsan import LockMonitor
from repro.experiments import ScenarioConfig, run_scenario
from repro.experiments.scales import ScalePreset

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


def summarize(result):
    """Every externally-visible number of one run, for exact compare."""
    recon = result.reconstruction
    return {
        "count": result.response.count,
        "mean_ms": result.response.mean_ms,
        "read_mean_ms": result.read_response.mean_ms,
        "write_mean_ms": result.write_response.mean_ms,
        "simulated_ms": result.simulated_ms,
        "requests_completed": result.requests_completed,
        "utilization": result.disk_utilization,
        "recon_ms": None if recon is None else recon.reconstruction_time_ms,
        "metrics": result.metrics,
        "integrity": result.integrity_errors,
    }


class TestBitIdentical:
    def test_degraded_run_unchanged_by_monitor(self):
        config = micro_config(mode="degraded")
        plain = run_scenario(config)
        monitor = LockMonitor()
        watched = run_scenario(config, lock_monitor=monitor)
        assert summarize(plain) == summarize(watched)
        # The micro mission cuts off with requests in flight, so some
        # acquires are legitimately unreleased at the end (that is what
        # expect_drained=False models); none may be over-released.
        assert monitor.acquires > 0
        assert monitor.releases <= monitor.acquires

    def test_recon_run_unchanged_by_monitor(self):
        config = micro_config(mode="recon")
        plain = run_scenario(config)
        monitor = LockMonitor()
        watched = run_scenario(config, lock_monitor=monitor)
        assert summarize(plain) == summarize(watched)
        assert monitor.releases <= monitor.acquires


class TestScenarioProtocolClean:
    def test_degraded_scenario_passes_the_sanitizer(self):
        # Beyond bit-identity: the real degraded-mode lock protocol
        # must produce zero violations (the CI smoke job runs the same
        # check at full scenario scale via `repro simsan`).
        # The micro mission ends with requests in flight, so drained-
        # at-end is not expected here (the CI smoke job asserts it on
        # full-length scenarios, which do drain).
        monitor = LockMonitor(expect_drained=False)
        run_scenario(micro_config(mode="degraded"), lock_monitor=monitor)
        monitor.finish()
        assert [v.message for v in monitor.violations] == []
