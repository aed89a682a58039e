"""Scale presets for the experiment harness."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

from repro.disk.specs import IBM_0661, DiskSpec, scaled_spec


@dataclass(frozen=True)
class ScalePreset:
    """One runnable size for the paper's experiments.

    ``cylinders`` sets the disk (hence reconstruction) size.
    ``steady_duration_ms`` and ``warmup_ms`` control fault-free and
    degraded measurements (Figures 6-1/6-2), which need steady-state
    windows rather than a reconstruction endpoint. A warmup as long as
    the duration is legal: the measurement window is then empty.
    """

    name: str
    cylinders: int
    steady_duration_ms: float
    warmup_ms: float
    note: str

    def __post_init__(self):
        if not isinstance(self.cylinders, int) or isinstance(self.cylinders, bool):
            raise ValueError(f"cylinders must be an integer, got {self.cylinders!r}")
        if self.cylinders < 2:
            raise ValueError(f"cylinders must be >= 2, got {self.cylinders}")
        if not (math.isfinite(self.steady_duration_ms) and self.steady_duration_ms > 0):
            raise ValueError(
                f"steady_duration_ms must be finite and > 0, got {self.steady_duration_ms}"
            )
        if not (math.isfinite(self.warmup_ms) and self.warmup_ms >= 0):
            raise ValueError(f"warmup_ms must be finite and >= 0, got {self.warmup_ms}")

    def spec(self) -> DiskSpec:
        if self.cylinders == IBM_0661.cylinders:
            return IBM_0661
        return scaled_spec(self.cylinders)

    @property
    def units_per_disk(self) -> int:
        return self.spec().total_sectors // 8  # 4 KB units


#: 13 cylinders = 1,092 units/disk: the smallest size on which every
#: layout in the grid (including the alpha=0.85 design, table depth
#: 1,080) fits a whole table. Reconstructions complete in seconds of
#: simulated time.
TINY = ScalePreset(
    name="tiny",
    cylinders=13,
    steady_duration_ms=20_000.0,
    warmup_ms=2_000.0,
    note="CI-sized: ~1.1k units/disk, seconds of simulated time per point",
)

#: 65 cylinders = 5,460 units/disk; several minutes of simulated time.
SMALL = ScalePreset(
    name="small",
    cylinders=65,
    steady_duration_ms=60_000.0,
    warmup_ms=5_000.0,
    note="Report-sized: ~5.5k units/disk",
)

#: The full Table 5-1 configuration.
PAPER = ScalePreset(
    name="paper",
    cylinders=IBM_0661.cylinders,
    steady_duration_ms=120_000.0,
    warmup_ms=10_000.0,
    note="Full IBM 0661: ~80k units/disk, hours of simulated time per point",
)

SCALES: typing.Dict[str, ScalePreset] = {s.name: s for s in (TINY, SMALL, PAPER)}


def get_scale(name: str) -> ScalePreset:
    """Look up a scale preset by name."""
    if name not in SCALES:
        raise ValueError(f"unknown scale {name!r}; choose from {sorted(SCALES)}")
    return SCALES[name]
