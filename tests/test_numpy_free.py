"""The simulator runs without numpy.

Only ``repro bench``'s batch service-time kernel
(:mod:`repro.disk.vectorized`) needs numpy. Every scenario path must
import and run with it absent, so each process skips numpy's import
time and memory, and no result depends on the host's BLAS. The probe
runs in a fresh interpreter, once where ``import numpy`` raises and
once where it would succeed but must not happen.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Imports repro and runs one scenario per path family; argv[1] == "block"
#: first makes any ``import numpy`` raise ImportError.
_PROBE = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None

import repro
from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.experiments.scales import ScalePreset
from repro.faults.profile import MS_PER_HOUR, FaultProfile
from repro.recon import REDIRECT_PIGGYBACK

micro = ScalePreset(
    name="micro", cylinders=13, steady_duration_ms=2_000.0, warmup_ms=500.0,
    note="test-only",
)
common = dict(read_fraction=0.5, scale=micro, seed=7)
fault_free = run_scenario(ScenarioConfig(
    stripe_size=4, user_rate_per_s=105.0, mode="fault-free",
    with_datastore=True, **common,
))
recon = run_scenario(ScenarioConfig(
    stripe_size=4, user_rate_per_s=105.0, mode="recon",
    algorithm=REDIRECT_PIGGYBACK, recon_workers=4, with_datastore=True,
    **common,
))
pq = run_scenario(ScenarioConfig(
    stripe_size=5, num_disks=21, syndromes=2, user_rate_per_s=0.0,
    mode="campaign", recon_workers=8, spares=0, mission_ms=5_000.0,
    fault_profile=FaultProfile(
        disk_mttf_hours=20_000.0 / MS_PER_HOUR,
        latent_errors_per_hour=0.1,
        transient_error_prob=0.01,
        seed=1992,
    ),
    **common,
))
print(json.dumps({
    "numpy_modules": sorted(
        name for name, module in sys.modules.items()
        if name.partition(".")[0] == "numpy" and module is not None
    ),
    "numpy_in_sys_modules": "numpy" in sys.modules,
    "fault_free_completed": fault_free.requests_completed,
    "integrity_errors": fault_free.integrity_errors + recon.integrity_errors,
    "recon_units": recon.reconstruction.total_units,
    "pq_disk_failures": pq.fault_summary["disk_failures"],
    "pq_data_lost": pq.fault_summary["data_lost"],
}))
"""


@pytest.mark.parametrize("numpy", ["block", "allow"])
def test_scenarios_run_without_numpy(numpy):
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, numpy],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    assert report["numpy_modules"] == []
    # Blocked, the None placeholder stays; allowed, nothing imports it.
    assert report["numpy_in_sys_modules"] == (numpy == "block")
    assert report["fault_free_completed"] > 0
    assert report["integrity_errors"] == []
    assert report["recon_units"] > 0
    assert report["pq_disk_failures"] >= 2
    assert not report["pq_data_lost"]
