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

    def rotational_position(self, cylinder: int, track: int, sector_in_track: int) -> int:
        """Angular slot of a sector, applying cumulative track skew."""
        global_track = cylinder * self._tracks_per_cylinder + track
        skew = (global_track * self._track_skew_sectors) % self._sectors_per_track
        return (sector_in_track + skew) % self._sectors_per_track

    def locate_transfer(
        self, start_sector: int, count: int
    ) -> typing.Optional[typing.Tuple[int, int]]:
        """``(cylinder, rotational_start)`` of a transfer that fits its
        track, or None for a longer one.

        This is the first run :meth:`split_by_track` would return, minus
        the track and the count, found with two ``divmod`` calls and the
        skew arithmetic of :meth:`rotational_position`, and no run
        object. Every stripe-unit access on the shipped specs fits its
        track; :meth:`Disk.submit <repro.disk.drive.Disk.submit>` calls
        this for every request and :meth:`split_by_track` only on None.
        The transfer is validated as :meth:`split_by_track` validates it.
        """
        if count < 1 or start_sector < 0 or start_sector + count > self._total_sectors:
            self._refuse_transfer(start_sector, count)
        sectors_per_track = self._sectors_per_track
        cylinder, rest = divmod(start_sector, self._sectors_per_cylinder)
        track, within = divmod(rest, sectors_per_track)
        if within + count > sectors_per_track:
            return None
        skew = (
            (cylinder * self._tracks_per_cylinder + track) * self._track_skew_sectors
        ) % sectors_per_track
        return cylinder, (within + skew) % sectors_per_track

    def split_by_track(
        self, start_sector: int, count: int
    ) -> typing.Tuple[SectorRange, ...]:
        """Decompose a transfer into per-track contiguous runs, in order.

        Walks the tracks the transfer touches, one :meth:`locate` per
        track. The simulator calls it only for a transfer that crosses a
        track (:meth:`locate_transfer` places the rest); each call builds
        a fresh tuple.
        """
        if count < 1 or start_sector < 0 or start_sector + count > self._total_sectors:
            self._refuse_transfer(start_sector, count)
        sectors_per_track = self._sectors_per_track
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

    def _refuse_transfer(self, start_sector: int, count: int) -> typing.NoReturn:
        """Raise the ``ValueError`` for a transfer that is empty or
        leaves the disk."""
        if count < 1:
            raise ValueError(f"transfer needs at least one sector, got {count}")
        raise ValueError(
            f"transfer [{start_sector}, {start_sector + count}) lies outside "
            f"the disk of {self._total_sectors} sectors"
        )
