"""Unit tests for the disk drive server process."""

import gc
import random

import pytest

from repro.disk import Disk, DiskRequest, IBM_0661, scaled_spec
from repro.disk.drive import KIND_RECON, KIND_USER
from repro.metrics import WindowedDuration
from repro.sim import Environment


def run_accesses(disk, env, accesses):
    """Drive a closed-loop sequence of (sector, count, is_write)."""

    def body(env):
        for sector, count, is_write in accesses:
            yield disk.access(sector, count, is_write=is_write)

    process = env.process(body(env))
    env.run(until=process)


class TestServiceTiming:
    def test_single_access_components(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        run_accesses(disk, env, [(0, 8, False)])
        stats = disk.stats
        # Head starts at cylinder 0 so there is no seek; the transfer is
        # exactly 8 sector times; sectors 0..7 start under the head at
        # t=0, so rotation is zero too.
        assert stats.total_seek_ms == 0.0
        assert stats.total_rotation_ms == pytest.approx(0.0, abs=1e-9)
        assert stats.total_transfer_ms == pytest.approx(8 * IBM_0661.sector_time_ms)

    def test_seek_charged_for_cylinder_moves(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        far_sector = 500 * IBM_0661.sectors_per_cylinder
        run_accesses(disk, env, [(far_sector, 8, False)])
        assert disk.stats.total_seek_ms == pytest.approx(
            disk.seek_model.seek_time(500)
        )
        assert disk.head_cylinder == 500

    def test_rotational_wait_bounded_by_one_revolution(self):
        env = Environment()
        disk = Disk(env, scaled_spec(5), policy="fifo")
        rng = random.Random(3)
        accesses = [(rng.randrange(disk.spec.total_sectors // 8) * 8, 8, False) for _ in range(50)]
        run_accesses(disk, env, accesses)
        assert disk.stats.total_rotation_ms <= 50 * disk.spec.revolution_ms

    def test_sequential_track_crossing_uses_skew(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        # Read two whole tracks in one request: the head switch lands
        # exactly on the skewed sector 0 of track 1 — zero rotation.
        run_accesses(disk, env, [(0, 96, False)])
        assert disk.stats.total_rotation_ms == pytest.approx(0.0, abs=1e-9)
        assert disk.stats.total_seek_ms == pytest.approx(IBM_0661.head_switch_ms)

    def test_random_read_capacity_matches_paper(self):
        # Section 6: "disks capable of a maximum of about 46 random 4 KB
        # reads per second".
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        rng = random.Random(42)
        n = 500
        accesses = [
            (rng.randrange(IBM_0661.total_sectors // 8) * 8, 8, False) for _ in range(n)
        ]
        run_accesses(disk, env, accesses)
        rate = n / (env.now / 1000.0)
        assert rate == pytest.approx(46.0, rel=0.05)

    def test_sequential_full_scan_near_physical_floor(self):
        # Sequential whole-disk read must approach (and never beat) one
        # revolution per track.
        spec = scaled_spec(20)
        env = Environment()
        disk = Disk(env, spec, policy="fifo")
        chunk = spec.sectors_per_cylinder
        accesses = [(s, chunk, False) for s in range(0, spec.total_sectors, chunk)]
        run_accesses(disk, env, accesses)
        floor = spec.full_scan_min_ms()
        assert floor <= env.now <= floor * 1.25


class TestQueueing:
    def test_busy_server_queues_requests(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        first = disk.access(0, 8, is_write=False)
        second = disk.access(8, 8, is_write=False)
        env.run()
        assert second.start_service_ms >= first.complete_ms

    def test_wakeup_after_idle(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")

        def late_submitter(env):
            yield env.timeout(100.0)
            request = disk.access(0, 8, is_write=False)
            assert (yield request) is None
            return request.submit_ms

        process = env.process(late_submitter(env))
        assert env.run(until=process) == 100.0

    def test_queue_length_visible(self):
        env = Environment()
        disk = Disk(env, IBM_0661)
        for unit in range(5):
            disk.access(unit * 8, 8, is_write=False)
        assert disk.queue_length >= 4  # one may already be in service


class TestStats:
    def test_kind_accounting(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        disk.access(0, 8, is_write=False, kind=KIND_USER)
        disk.access(8, 8, is_write=True, kind=KIND_RECON)
        env.run()
        assert disk.stats.completed == 2
        assert disk.stats.completed_by_kind == {KIND_USER: 1, KIND_RECON: 1}

    def test_busy_time_accumulates(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        run_accesses(disk, env, [(0, 8, False), (96, 8, False)])
        assert disk.stats.busy_window.total_ms == pytest.approx(env.now)

    @pytest.mark.parametrize("since_ms", [0, 0.0, 3.7, 100.0, 1e9])
    def test_busy_window_clips_like_windowed_duration(self, since_ms):
        # DiskStats.record clips the busy interval inline; the
        # accumulator's own add() is the reference.
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        disk.stats.busy_window.since_ms = since_ms
        reference = WindowedDuration(since_ms=since_ms)
        rng = random.Random(11)
        requests = [
            disk.access(rng.randrange(0, 100_000, 8), 8, is_write=False)
            for _ in range(20)
        ]
        env.run()
        for request in requests:
            reference.add(request.start_service_ms, request.complete_ms)
        assert disk.stats.busy_window.total_ms.hex() == float(reference.total_ms).hex()

    def test_response_decomposition(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        request = disk.access(0, 8, is_write=False)
        env.run()
        assert request.response_ms == pytest.approx(
            request.queue_wait_ms + request.service_ms
        )

    def test_empty_request_rejected(self):
        env = Environment()
        disk = Disk(env, IBM_0661)
        with pytest.raises(ValueError):
            disk.submit(DiskRequest(start_sector=0, sector_count=0, is_write=False))


class TestCompletion:
    def test_the_request_is_its_completion_event(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        request = DiskRequest(96, 8, False)
        assert disk.submit(request) is request
        assert not request.triggered
        env.run()
        assert request.processed and request.ok
        assert request.value is None
        assert request.complete_ms > request.start_service_ms

    def test_a_transfer_is_placed_once_at_submit(self):
        env = Environment()
        disk = Disk(env, IBM_0661, policy="fifo")
        one_track = disk.access(5 * IBM_0661.sectors_per_cylinder + 50, 8, is_write=False)
        assert (one_track.cylinder, one_track.runs) == (5, None)
        assert one_track.rotational_start == disk.geometry.split_by_track(
            one_track.start_sector, 8
        )[0].rotational_start
        longer = disk.access(44, 8, is_write=False)
        assert longer.runs == disk.geometry.split_by_track(44, 8)
        assert longer.cylinder == 0 and len(longer.runs) == 2

    @pytest.mark.parametrize(
        "start, count, needle",
        [
            (0, 0, "at least one sector"),
            (-8, 8, "outside the disk"),
            (IBM_0661.total_sectors - 4, 8, "outside the disk"),
        ],
    )
    def test_an_invalid_transfer_is_refused_before_it_is_queued(self, start, count, needle):
        env = Environment()
        disk = Disk(env, IBM_0661)
        with pytest.raises(ValueError, match=needle):
            disk.submit(DiskRequest(start, count, False))
        assert disk.queue_length == 0

    @pytest.mark.parametrize("policy", ["fifo", "cvscan", "sptf", "sptf+priority"])
    def test_completed_requests_need_no_cyclic_collector(self, policy):
        """A finished request is freed by reference counting alone: the
        controller-level guard allows up to 1,000 collected objects,
        too loose to catch one cycle per disk request."""
        env = Environment()
        disk = Disk(env, scaled_spec(5), policy=policy)
        rng = random.Random(5)
        units = disk.spec.total_sectors // 8

        def submitter(env, count, kind):
            for _ in range(count):
                yield disk.access(rng.randrange(units) * 8, 8, rng.random() < 0.5, kind)

        gc.collect()
        gc.disable()
        try:
            for index in range(4):
                env.process(submitter(env, 250, (KIND_USER, KIND_RECON)[index % 2]))
            env.run()
            assert disk.stats.completed == 1_000
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDeterminism:
    def test_identical_runs_identical_timings(self):
        def simulate():
            env = Environment()
            disk = Disk(env, IBM_0661, policy="cvscan")
            rng = random.Random(7)
            accesses = [
                (rng.randrange(IBM_0661.total_sectors // 8) * 8, 8, False)
                for _ in range(100)
            ]
            run_accesses(disk, env, accesses)
            return env.now

        assert simulate() == simulate()
