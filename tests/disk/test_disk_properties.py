"""Property-based tests for the disk model and schedulers."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.disk import Disk, IBM_0661, scaled_spec
from repro.disk.geometry import DiskGeometry
from repro.disk.scheduling import make_scheduler
from repro.disk.seek import SeekModel
from repro.sim import Environment


class TestSeekProperties:
    @given(st.integers(min_value=0, max_value=948))
    @settings(max_examples=60, deadline=None)
    def test_seek_time_within_spec_bounds(self, distance):
        model = SeekModel(IBM_0661)
        time = model.seek_time(distance)
        if distance == 0:
            assert time == 0.0
        else:
            assert IBM_0661.seek_min_ms - 1e-9 <= time <= IBM_0661.seek_max_ms + 1e-9

    @given(st.integers(min_value=1, max_value=947))
    @settings(max_examples=60, deadline=None)
    def test_seek_monotone(self, distance):
        model = SeekModel(IBM_0661)
        assert model.seek_time(distance + 1) >= model.seek_time(distance) - 1e-9


class TestGeometryProperties:
    @given(
        st.integers(min_value=0, max_value=IBM_0661.total_sectors - 1),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_preserves_sector_count(self, start, count):
        geometry = DiskGeometry(IBM_0661)
        count = min(count, IBM_0661.total_sectors - start)
        runs = geometry.split_by_track(start, count)
        assert sum(r.count for r in runs) == count
        # Runs never exceed a track and are ordered.
        for run in runs:
            assert 1 <= run.count <= IBM_0661.sectors_per_track

    @given(st.integers(min_value=0, max_value=IBM_0661.total_sectors - 1))
    @settings(max_examples=60, deadline=None)
    def test_locate_inverts(self, sector):
        geometry = DiskGeometry(IBM_0661)
        cylinder, track, within = geometry.locate(sector)
        reconstructed = (
            cylinder * IBM_0661.sectors_per_cylinder
            + track * IBM_0661.sectors_per_track
            + within
        )
        assert reconstructed == sector


class TestServiceProperties:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=scaled_spec(5).total_sectors // 8 - 1),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from(["fifo", "sstf", "look", "cvscan"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_request_completes_exactly_once(self, units, policy):
        env = Environment()
        disk = Disk(env, scaled_spec(5), policy=policy)
        events = [disk.access(u * 8, 8, is_write=False) for u in units]
        env.run()
        assert all(e.processed for e in events)
        assert disk.stats.completed == len(units)
        assert disk.queue_length == 0

    @given(
        st.lists(
            st.integers(min_value=0, max_value=scaled_spec(5).total_sectors // 8 - 1),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_busy_time_never_exceeds_makespan(self, units):
        env = Environment()
        disk = Disk(env, scaled_spec(5), policy="cvscan")
        for u in units:
            disk.access(u * 8, 8, is_write=False)
        env.run()
        assert disk.stats.busy_window.total_ms <= env.now + 1e-9

    @given(
        st.lists(
            st.integers(min_value=0, max_value=scaled_spec(5).total_sectors // 8 - 1),
            min_size=2,
            max_size=15,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_service_times_positive_and_bounded(self, units):
        spec = scaled_spec(5)
        env = Environment()
        disk = Disk(env, spec, policy="fifo")
        requests = [disk.access(u * 8, 8, is_write=False) for u in units]
        env.run()
        # Each 8-sector access: at most max seek + full rotation + transfer.
        ceiling = spec.seek_max_ms + spec.revolution_ms + 8 * spec.sector_time_ms + 1e-6
        for request in requests:
            assert 0 < request.service_ms <= ceiling


class TestSchedulerProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=900), min_size=1, max_size=30),
        st.sampled_from(["fifo", "sstf", "look", "cvscan", "cvscan+priority"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation(self, cylinders, policy):
        """Everything pushed is popped exactly once, in some order."""
        from tests.disk.test_scheduling import FakeRequest

        scheduler = make_scheduler(policy, cylinders=949)
        for i, cylinder in enumerate(cylinders):
            request = FakeRequest(cylinder=cylinder, tag=i)
            request.kind = "user"
            scheduler.push(request)
        popped = []
        head = 0
        while scheduler:
            request = scheduler.pop(head, 1)
            head = request.cylinder
            popped.append(request.tag)
        assert sorted(popped) == list(range(len(cylinders)))
