"""Experiment harness: one runner per table/figure of the paper.

Each experiment module exposes ``run(scale) -> rows`` returning plain
dict rows and ``format_rows(rows) -> str`` printing the same axes the
paper reports. The CLI (``python -m repro``) and the benchmark suite
are thin wrappers over these.

Scales
------
The paper's simulations rebuild a full IBM 0661 (79,716 stripe units
per disk) — hours of simulated time per point. The ``tiny`` and
``small`` presets shrink the cylinder count (track geometry, seek
curve endpoints, and rates unchanged), which shortens reconstruction
proportionally while preserving per-access timing behaviour; ``paper``
is the full-size configuration.
"""

from repro.experiments.scales import SCALES, ScalePreset, get_scale
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.experiments.builders import build_layout

__all__ = [
    "SCALES",
    "ScalePreset",
    "ScenarioConfig",
    "ScenarioResult",
    "build_layout",
    "get_scale",
    "run_scenario",
]
