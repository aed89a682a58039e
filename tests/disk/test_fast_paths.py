"""Reference checks for the disk layer's one-track fast paths.

Every stripe-unit access fits in one track, so the drive takes two
short cuts on it: :meth:`DiskGeometry.split_by_track` computes the
single run by arithmetic instead of walking tracks, and
:func:`service_components` prices a one-run transfer without its loop.
Both must agree exactly with the general code they skip, which is kept
here as the reference. A last check pins :meth:`Disk.submit` as the one
entry point of every disk request.
"""

import math
import struct

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.disk import IBM_0661, DiskGeometry, SectorRange, scaled_spec
from repro.disk.drive import Disk, service_components
from repro.disk.seek import SeekModel
from repro.recon import Reconstructor
from repro.workload import SyntheticWorkload, WorkloadConfig
from tests.conftest import build_array

SPT = IBM_0661.sectors_per_track


def loop_service_components(
    runs, head_cylinder, direction, start_ms, seek_time, sector_time_ms,
    sectors_per_track, head_switch_ms,
):
    """The per-run pricing loop, as ``service_components`` ran every
    transfer before it gained its one-run path."""
    clock = start_ms
    seek_ms = rotation_ms = transfer_ms = 0.0
    current_cylinder = head_cylinder
    for index, run in enumerate(runs):
        if run.cylinder != current_cylinder:
            this_seek = seek_time(abs(run.cylinder - current_cylinder))
            direction = 1 if run.cylinder > current_cylinder else -1
            current_cylinder = run.cylinder
            seek_ms += this_seek
            clock += this_seek
        elif index > 0:
            switch = head_switch_ms
            seek_ms += switch
            clock += switch
        position = (clock / sector_time_ms) % sectors_per_track
        slots_to_wait = (run.rotational_start - position) % sectors_per_track
        if slots_to_wait > sectors_per_track - 1e-6:
            slots_to_wait = 0.0
        wait = slots_to_wait * sector_time_ms
        rotation_ms += wait
        clock += wait
        transfer = run.count * sector_time_ms
        transfer_ms += transfer
        clock += transfer
    return (
        clock - start_ms,
        seek_ms,
        rotation_ms,
        transfer_ms,
        current_cylinder,
        direction,
    )


def bits(values):
    """Each value with its type, floats as their IEEE-754 bit pattern."""
    return tuple(
        (type(value), struct.pack("<d", value) if isinstance(value, float) else value)
        for value in values
    )


def price(pricer, runs, head_cylinder, direction, start_ms, spec=IBM_0661):
    return pricer(
        runs,
        head_cylinder,
        direction,
        start_ms,
        SeekModel.for_spec(spec).seek_time,
        spec.sector_time_ms,
        spec.sectors_per_track,
        spec.head_switch_ms,
    )


def reference_runs(geometry, start_sector, count):
    """The runs of a transfer, one ``locate`` per track it touches."""
    runs = []
    sector, remaining = start_sector, count
    while remaining:
        cylinder, track, within = geometry.locate(sector)
        on_track = min(remaining, geometry.spec.sectors_per_track - within)
        runs.append(
            SectorRange(
                cylinder, track,
                geometry.rotational_position(cylinder, track, within), on_track,
            )
        )
        sector += on_track
        remaining -= on_track
    return tuple(runs)


class TestOneTrackSplit:
    def test_every_one_track_transfer_matches_locate(self):
        spec = scaled_spec(2)
        geometry = DiskGeometry(spec)
        spt = spec.sectors_per_track
        checked = 0
        for start in range(spec.total_sectors):
            cylinder, track, within = geometry.locate(start)
            rotational = geometry.rotational_position(cylinder, track, within)
            for count in range(1, spt - within + 1):
                assert geometry.split_by_track(start, count) == (
                    SectorRange(cylinder, track, rotational, count),
                )
                checked += 1
        # Every start sector, with every length that stays on its track.
        tracks = spec.total_sectors // spt
        assert checked == tracks * spt * (spt + 1) // 2

    @given(
        st.integers(min_value=0, max_value=IBM_0661.total_sectors - 1),
        st.integers(min_value=1, max_value=4 * SPT),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_transfer_matches_the_track_walk(self, start, count):
        geometry = DiskGeometry(IBM_0661)
        count = min(count, IBM_0661.total_sectors - start)
        assert geometry.split_by_track(start, count) == reference_runs(
            geometry, start, count
        )


class TestOneRunPricing:
    @given(
        st.integers(min_value=0, max_value=IBM_0661.total_sectors // 8 - 1),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.sampled_from([-1, 1]),
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=500, deadline=None)
    def test_one_run_returns_the_loops_bits(self, unit, count, head, direction, clock):
        runs = DiskGeometry(IBM_0661).split_by_track(unit * 8, count)
        assert len(runs) == 1
        fast = price(service_components, runs, head, direction, clock)
        assert bits(fast) == bits(
            price(loop_service_components, runs, head, direction, clock)
        )

    @given(
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.sampled_from([-1, 1]),
        st.integers(min_value=0, max_value=1 << 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_head_on_the_cylinder_and_exact_sector_hits(self, cylinder, direction, slot):
        # Clocks that are whole sector slots put the platter exactly on
        # a sector boundary: the snap-to-zero guard decides the wait.
        clock = slot * IBM_0661.sector_time_ms
        runs = DiskGeometry(IBM_0661).split_by_track(
            cylinder * IBM_0661.sectors_per_cylinder + (slot % SPT) // 2, 8
        )
        fast = price(service_components, runs, cylinder, direction, clock)
        assert fast[1] == 0.0 and fast[4:] == (cylinder, direction)
        assert bits(fast) == bits(
            price(loop_service_components, runs, cylinder, direction, clock)
        )

    @given(
        st.integers(min_value=0, max_value=IBM_0661.total_sectors - 4 * SPT),
        st.integers(min_value=SPT + 1, max_value=4 * SPT),
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_multi_run_transfers_still_take_the_loop(self, start, count, head, clock):
        runs = DiskGeometry(IBM_0661).split_by_track(start, count)
        assert len(runs) > 1
        assert bits(price(service_components, runs, head, 1, clock)) == bits(
            price(loop_service_components, runs, head, 1, clock)
        )


def count_submits(monkeypatch):
    """Count ``Disk.submit`` calls and collect every drive built from now on."""
    submits = []
    disks = []
    submit = Disk.submit
    init = Disk.__init__

    def counting_submit(disk, request):
        submits.append(request)
        return submit(disk, request)

    def collecting_init(disk, *args, **kwargs):
        init(disk, *args, **kwargs)
        disks.append(disk)

    monkeypatch.setattr(Disk, "submit", counting_submit)
    monkeypatch.setattr(Disk, "__init__", collecting_init)
    return submits, disks


class TestSingleEntryPoint:
    """Every completed disk request went through ``Disk.submit``: the
    end-to-end benchmark counts a run's I/Os by wrapping that method."""

    def test_fault_free_run_to_drain(self, monkeypatch):
        submits, disks = count_submits(monkeypatch)
        array = build_array(num_disks=21, stripe_size=5, with_datastore=False)
        workload = SyntheticWorkload(
            array.controller,
            WorkloadConfig(access_rate_per_s=210.0, read_fraction=0.5, seed=5),
        )
        workload.run(duration_ms=500.0)
        array.env.run()
        completed = sum(disk.stats.completed for disk in disks)
        assert completed > 0
        assert len(submits) == completed
        assert all(disk.queue_length == 0 for disk in disks)

    def test_rebuild_under_load_run_to_drain(self, monkeypatch):
        submits, disks = count_submits(monkeypatch)
        array = build_array(
            num_disks=21, stripe_size=5, cylinders=2, with_datastore=False
        )
        controller = array.controller
        workload = SyntheticWorkload(
            controller,
            WorkloadConfig(access_rate_per_s=210.0, read_fraction=0.5, seed=5),
        )
        workload.run(duration_ms=math.inf)
        controller.fail_disk(3)
        controller.install_replacement(3)
        rebuilt = Reconstructor(controller, workers=4, disk=3).start()
        array.env.run(until=rebuilt)
        workload.stop()
        array.env.run()
        completed = sum(disk.stats.completed for disk in disks)
        assert len(disks) == 22  # the replacement is a new drive
        assert len(submits) == completed
