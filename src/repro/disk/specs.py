"""Disk drive specifications.

All times are in **milliseconds**, matching the simulation kernel's
convention. The reference spec reproduces Table 5-1(b) of the paper:
the IBM 0661 Model 370 (Lightning) 320 MB 3.5-inch drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DiskSpec:
    """Geometry and timing parameters of one disk drive."""

    name: str
    cylinders: int
    tracks_per_cylinder: int
    sectors_per_track: int
    bytes_per_sector: int
    revolution_ms: float
    seek_min_ms: float   # single-cylinder seek
    seek_avg_ms: float   # average over uniformly random seeks
    seek_max_ms: float   # full-stroke seek
    track_skew_sectors: int

    def __post_init__(self):
        if min(self.cylinders, self.tracks_per_cylinder, self.sectors_per_track) < 1:
            raise ValueError(f"degenerate geometry in {self.name!r}")
        if self.cylinders < 2:
            # The seek curve needs a move to fit: one cylinder has none.
            raise ValueError(f"need at least 2 cylinders in {self.name!r}")
        # Chained comparisons are False for NaN, so NaN fails these too.
        if not 0 < self.revolution_ms < math.inf:
            raise ValueError(
                f"revolution time must be finite and positive in {self.name!r}"
            )
        if not 0 < self.seek_min_ms <= self.seek_avg_ms <= self.seek_max_ms < math.inf:
            raise ValueError(
                f"seek times must satisfy 0 < min <= avg <= max < inf in {self.name!r}"
            )
        if not 0 <= self.track_skew_sectors < self.sectors_per_track:
            raise ValueError(f"track skew must be < sectors per track in {self.name!r}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def sectors_per_cylinder(self) -> int:
        return self.tracks_per_cylinder * self.sectors_per_track

    @property
    def total_sectors(self) -> int:
        return self.cylinders * self.sectors_per_cylinder

    @property
    def total_tracks(self) -> int:
        return self.cylinders * self.tracks_per_cylinder

    @property
    def capacity_bytes(self) -> int:
        return self.total_sectors * self.bytes_per_sector

    @property
    def sector_time_ms(self) -> float:
        """Time for one sector to pass under the head."""
        return self.revolution_ms / self.sectors_per_track

    @property
    def head_switch_ms(self) -> float:
        """Head-switch settle time, provisioned by the track skew.

        The 0661's 4-sector skew exists so that after a head switch the
        next logical sector is just arriving; we therefore model the
        switch itself as taking the skew's worth of rotation.
        """
        return self.track_skew_sectors * self.sector_time_ms

    def full_scan_min_ms(self) -> float:
        """Lower bound to read the whole disk: one revolution per track.

        The paper cites "the three minutes it takes to read all sectors
        on our disks" — this is that number for the configured spec.
        """
        return self.total_tracks * self.revolution_ms


#: Table 5-1(b): IBM 0661 Model 370 (Lightning).
IBM_0661 = DiskSpec(
    name="IBM-0661-370",
    cylinders=949,
    tracks_per_cylinder=14,
    sectors_per_track=48,
    bytes_per_sector=512,
    revolution_ms=13.9,
    seek_min_ms=2.0,
    seek_avg_ms=12.5,
    seek_max_ms=25.0,
    track_skew_sectors=4,
)


def scaled_spec(cylinders: int, base: DiskSpec = IBM_0661) -> DiskSpec:
    """A spec identical to ``base`` but with fewer cylinders.

    Used by the ``tiny``/``small`` experiment scales: reconstruction
    time scales roughly linearly with units per disk, while per-access
    timing behaviour (the thing response-time results depend on) is
    preserved because track geometry and the seek curve's endpoints are
    unchanged. (At 3 cylinders the fitted curve cannot meet all three
    seek times; see :class:`repro.disk.seek.SeekModel`.)
    """
    if cylinders < 2:
        raise ValueError(f"need at least 2 cylinders, got {cylinders}")
    return replace(base, name=f"{base.name}-c{cylinders}", cylinders=cylinders)
