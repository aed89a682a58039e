"""Reference checks for the disk layer's one-track fast paths.

Every stripe-unit access fits in one track, so the disk layer places
and prices it without the general code: :meth:`DiskGeometry.locate_transfer`
gives its cylinder and rotational start, with no run objects, and the
drive (``Disk._service_time``) and the SPTF scheduler price it in their
own frames. Each must agree exactly with the general code, which is the
reference here: :meth:`DiskGeometry.split_by_track`'s track walk and
:func:`service_components`' per-run loop. A last check pins
:meth:`Disk.submit` as the one entry point of every disk request.
"""

import math
import struct

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.disk import IBM_0661, DiskGeometry, DiskRequest, scaled_spec
from repro.disk.drive import Disk, service_components
from repro.recon import Reconstructor
from repro.sim import Environment
from repro.workload import SyntheticWorkload, WorkloadConfig
from tests.conftest import build_array

SPT = IBM_0661.sectors_per_track

_clocks = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)


def bits(values):
    """Each value with its type, floats as their IEEE-754 bit pattern."""
    return tuple(
        (type(value), struct.pack("<d", value) if isinstance(value, float) else value)
        for value in values
    )


def drive_at(head_cylinder, direction, clock, policy="fifo"):
    """A bare 0661 whose head and clock are set by hand."""
    env = Environment(initial_time=clock)
    disk = Disk(env, IBM_0661, policy=policy)
    disk.head_cylinder, disk.direction = head_cylinder, direction
    return disk


def reference(disk, request):
    """``service_components`` of ``request`` on its track walk, from the
    drive's head state and clock."""
    spec = disk.spec
    return service_components(
        disk.geometry.split_by_track(request.start_sector, request.sector_count),
        disk.head_cylinder,
        disk.direction,
        disk.env.now,
        disk.seek_model.seek_time,
        spec.sector_time_ms,
        spec.sectors_per_track,
        spec.head_switch_ms,
    )


def drive_price(disk, start_sector, count):
    """The drive's price of a submitted request and its head state after."""
    request = disk.submit(DiskRequest(start_sector, count, False))
    expected = reference(disk, request)
    priced = disk._service_time(request) + (disk.head_cylinder, disk.direction)
    return request, priced, expected


#: A whole-slot clock ``slot * sector_time_ms`` whose division by the
#: sector time rounds to just above ``slot``: a transfer starting at
#: that slot then computes a wait of one revolution minus float residue,
#: which the snap-to-zero guard must turn into none.
ROUNDS_UP = 61
assert (ROUNDS_UP * IBM_0661.sector_time_ms) / IBM_0661.sector_time_ms > ROUNDS_UP


def under_the_head(geometry, cylinder, track, slot, count):
    """``(start_sector, count)`` of a one-track transfer on ``cylinder``
    and ``track`` whose first sector passes under the head at
    whole-slot ``slot``."""
    within = (slot - geometry.rotational_position(cylinder, track, 0)) % SPT
    start = (cylinder * IBM_0661.tracks_per_cylinder + track) * SPT + within
    return start, min(count, SPT - within)


class TestOneTrackSplit:
    def test_every_one_track_transfer_matches_locate(self):
        # Every start sector of a 2-cylinder disk, with every length up
        # to one past its track's end.
        spec = scaled_spec(2)
        geometry = DiskGeometry(spec)
        spt = spec.sectors_per_track
        checked = longer = 0
        for start in range(spec.total_sectors):
            within = start % spt
            for count in range(1, min(spt - within + 1, spec.total_sectors - start) + 1):
                located = geometry.locate_transfer(start, count)
                runs = geometry.split_by_track(start, count)
                if within + count > spt:
                    assert located is None and len(runs) == 2
                    longer += 1
                    continue
                (run,) = runs
                assert run.count == count
                assert located == (run.cylinder, run.rotational_start)
                checked += 1
        # Every start sector, with every length that stays on its track,
        # and one crossing from every start sector off the last track.
        tracks = spec.total_sectors // spt
        assert checked == tracks * spt * (spt + 1) // 2
        assert longer == spec.total_sectors - spt

    @given(
        st.integers(min_value=0, max_value=IBM_0661.total_sectors - 1),
        st.integers(min_value=1, max_value=4 * SPT),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_transfer_matches_the_track_walk(self, start, count):
        geometry = DiskGeometry(IBM_0661)
        count = min(count, IBM_0661.total_sectors - start)
        runs = geometry.split_by_track(start, count)
        first = runs[0]
        assert geometry.locate(start) == (first.cylinder, first.track, start % SPT)
        located = geometry.locate_transfer(start, count)
        if len(runs) > 1:
            assert located is None
        else:
            assert located == (first.cylinder, first.rotational_start)


class TestOneRunPricing:
    @given(
        st.integers(min_value=0, max_value=IBM_0661.total_sectors // 8 - 1),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.sampled_from([-1, 1]),
        _clocks,
    )
    @settings(max_examples=500, deadline=None)
    def test_one_run_returns_the_loops_bits(self, unit, count, head, direction, clock):
        disk = drive_at(head, direction, clock)
        request, priced, expected = drive_price(disk, unit * 8, count)
        assert request.runs is None
        assert bits(priced) == bits(expected)

    @given(
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.sampled_from([-1, 1]),
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=IBM_0661.tracks_per_cylinder - 1),
        st.integers(min_value=1, max_value=8),
    )
    @example(cylinder=0, direction=1, slot=ROUNDS_UP, track=0, count=8)
    @settings(max_examples=200, deadline=None)
    def test_head_on_the_cylinder_and_exact_sector_hits(
        self, cylinder, direction, slot, track, count
    ):
        # A whole-slot clock with the transfer's first sector under the
        # head: the wait is zero or float residue, and where the clock
        # divides to just above the slot the snap-to-zero guard must
        # turn a revolution-long wait back into none.
        disk = drive_at(cylinder, direction, slot * IBM_0661.sector_time_ms)
        start, count = under_the_head(disk.geometry, cylinder, track, slot, count)
        _request, priced, expected = drive_price(disk, start, count)
        assert priced[1] == 0.0 and priced[4:] == (cylinder, direction)
        assert priced[2] < IBM_0661.sector_time_ms
        assert bits(priced) == bits(expected)

    @given(
        st.integers(min_value=0, max_value=IBM_0661.total_sectors - 4 * SPT),
        st.integers(min_value=SPT + 1, max_value=4 * SPT),
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        _clocks,
    )
    @settings(max_examples=200, deadline=None)
    def test_multi_run_transfers_still_take_the_loop(self, start, count, head, clock):
        disk = drive_at(head, 1, clock)
        request, priced, expected = drive_price(disk, start, count)
        assert request.runs == disk.geometry.split_by_track(start, count)
        assert len(request.runs) > 1
        assert bits(priced) == bits(expected)


#: A queued transfer: a unit-aligned one-track access, or a longer one
#: anywhere on the disk.
_transfers = st.one_of(
    st.tuples(
        st.integers(min_value=0, max_value=IBM_0661.total_sectors // 8 - 1).map(
            lambda unit: unit * 8
        ),
        st.integers(min_value=1, max_value=8),
    ),
    st.tuples(
        st.integers(min_value=0, max_value=IBM_0661.total_sectors - 4 * SPT),
        st.integers(min_value=SPT + 1, max_value=4 * SPT),
    ),
)


class TestSptfPricing:
    @given(
        st.lists(_transfers, min_size=2, max_size=12),
        st.lists(st.integers(min_value=0, max_value=11), max_size=4),
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.sampled_from([-1, 1]),
        st.one_of(_clocks, st.integers(0, 1 << 20).map(lambda s: s * IBM_0661.sector_time_ms)),
    )
    @settings(max_examples=200, deadline=None)
    def test_pop_is_the_first_strict_argmin(self, transfers, repeats, head, direction, clock):
        # Repeated transfers price equal: the earlier push must win.
        transfers = transfers + [transfers[i % len(transfers)] for i in repeats]
        disk = drive_at(head, direction, clock, policy="sptf")
        queued = [disk.submit(DiskRequest(start, count, False)) for start, count in transfers]
        prices = [reference(disk, request)[0] for request in queued]
        # min() returns the first of equal minima.
        best = min(range(len(queued)), key=prices.__getitem__)
        assert disk.scheduler.pop(head, direction) is queued[best]

    @given(
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.integers(min_value=0, max_value=IBM_0661.tracks_per_cylinder - 1),
        st.integers(min_value=8, max_value=SPT),
        _clocks,
    )
    @settings(max_examples=300, deadline=None)
    def test_transfers_ending_together_follow_the_reference_bits(
        self, head, cylinder, track, end, clock
    ):
        # Transfers that end at the same sector of one track finish at
        # the same instant in exact arithmetic, so float rounding picks
        # the cheapest: SPTF must round as the reference does.
        disk = drive_at(head, 1, clock, policy="sptf")
        track_start = (cylinder * IBM_0661.tracks_per_cylinder + track) * SPT
        queued = [
            disk.submit(DiskRequest(track_start + end - count, count, False))
            for count in range(1, 9)
        ]
        prices = [reference(disk, request)[0] for request in queued]
        best = min(range(len(queued)), key=prices.__getitem__)
        assert disk.scheduler.pop(head, 1) is queued[best]

    @given(
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.integers(min_value=0, max_value=1 << 20),
    )
    @example(cylinder=0, slot=ROUNDS_UP)
    @settings(max_examples=200, deadline=None)
    def test_a_sector_under_the_head_wins(self, cylinder, slot):
        # Queued first: a transfer half a revolution away on the head's
        # cylinder. Then one whose first sector is under the head at
        # this whole-slot clock; it must win, snapped wait included.
        disk = drive_at(cylinder, 1, slot * IBM_0661.sector_time_ms, policy="sptf")
        half_turn = under_the_head(disk.geometry, cylinder, 0, slot + SPT // 2, 8)
        at_once = under_the_head(disk.geometry, cylinder, 0, slot, 8)
        queued = [
            disk.submit(DiskRequest(start, count, False)) for start, count in (half_turn, at_once)
        ]
        assert reference(disk, queued[1])[0] < reference(disk, queued[0])[0]
        assert disk.scheduler.pop(cylinder, 1) is queued[1]


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
