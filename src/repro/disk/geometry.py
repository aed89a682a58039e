"""Disk geometry: logical sector addresses ⇄ physical positions.

Logical sectors (LBA) number the disk cylinder-major: all sectors of
cylinder 0 (track by track), then cylinder 1, and so on. Track skew
offsets each successive track's sector 0 by ``track_skew_sectors``
rotational positions so that a sequential transfer crossing a track
boundary finds its next sector arriving under the head right after the
head switch completes.
"""

from __future__ import annotations

import typing

from repro.disk.specs import DiskSpec


class SectorRange(typing.NamedTuple):
    """A contiguous run of sectors on a single track.

    ``rotational_start`` is the angular position (in sector slots,
    0..sectors_per_track-1) at which the run begins on the platter,
    after accounting for skew.
    """

    cylinder: int
    track: int
    rotational_start: int
    count: int


class DiskGeometry:
    """Address arithmetic for one disk spec.

    The spec-derived divisors are snapshotted once, because
    :class:`~repro.disk.specs.DiskSpec` recomputes them on every
    property read; the spec is frozen, so the snapshot cannot go stale.
    """

    def __init__(self, spec: DiskSpec):
        self.spec = spec
        self._sectors_per_cylinder = spec.sectors_per_cylinder
        self._sectors_per_track = spec.sectors_per_track
        self._tracks_per_cylinder = spec.tracks_per_cylinder
        self._track_skew_sectors = spec.track_skew_sectors
        self._total_sectors = spec.total_sectors

    def locate(self, sector: int) -> typing.Tuple[int, int, int]:
        """``(cylinder, track, sector_in_track)`` of a logical sector."""
        if not 0 <= sector < self._total_sectors:
            raise ValueError(
                f"sector {sector} outside disk of {self._total_sectors} sectors"
            )
        cylinder, rest = divmod(sector, self._sectors_per_cylinder)
        track, within = divmod(rest, self._sectors_per_track)
        return cylinder, track, within

    def cylinder_of(self, sector: int) -> int:
        """Cylinder containing a logical sector."""
        if not 0 <= sector < self._total_sectors:
            raise ValueError(
                f"sector {sector} outside disk of {self._total_sectors} sectors"
            )
        return sector // self._sectors_per_cylinder

    def rotational_position(self, cylinder: int, track: int, sector_in_track: int) -> int:
        """Angular slot of a sector, applying cumulative track skew."""
        global_track = cylinder * self._tracks_per_cylinder + track
        skew = (global_track * self._track_skew_sectors) % self._sectors_per_track
        return (sector_in_track + skew) % self._sectors_per_track

    def split_by_track(
        self, start_sector: int, count: int
    ) -> typing.Tuple[SectorRange, ...]:
        """Decompose a transfer into per-track contiguous runs, in order.

        A transfer that fits in one track (every stripe-unit access on
        the shipped specs) gets its single run from two ``divmod``
        calls; a longer one walks the tracks it crosses. Nothing is
        cached: each call builds a fresh tuple.
        """
        if count < 1:
            raise ValueError(f"transfer needs at least one sector, got {count}")
        if start_sector < 0 or start_sector + count > self._total_sectors:
            raise ValueError(
                f"transfer [{start_sector}, {start_sector + count}) lies outside "
                f"the disk of {self._total_sectors} sectors"
            )
        sectors_per_track = self._sectors_per_track
        cylinder, rest = divmod(start_sector, self._sectors_per_cylinder)
        track, within = divmod(rest, sectors_per_track)
        if within + count <= sectors_per_track:
            # rotational_position(cylinder, track, within), inlined.
            skew = (
                (cylinder * self._tracks_per_cylinder + track) * self._track_skew_sectors
            ) % sectors_per_track
            return (
                SectorRange(cylinder, track, (within + skew) % sectors_per_track, count),
            )
        runs = []
        sector = start_sector
        remaining = count
        while remaining > 0:
            cylinder, track, within = self.locate(sector)
            on_this_track = min(remaining, sectors_per_track - within)
            runs.append(
                SectorRange(
                    cylinder=cylinder,
                    track=track,
                    rotational_start=self.rotational_position(cylinder, track, within),
                    count=on_this_track,
                )
            )
            sector += on_this_track
            remaining -= on_this_track
        return tuple(runs)
