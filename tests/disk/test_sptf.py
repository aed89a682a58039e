"""SPTF on a real drive, checked against the reference pricing.

The reference is a fresh :func:`~repro.disk.drive.service_components`
call on the request's track runs at the drive's head position,
direction and clock: SPTF must pick that call's argmin, and the seek,
rotation and transfer the drive records for the pick must equal it.
"""

import pytest

from repro.disk import IBM_0661, Disk, DiskRequest, service_components
from repro.disk.drive import KIND_RECON, KIND_USER
from repro.disk.scheduling.sptf import SptfScheduler
from repro.sim import Environment

SPT = IBM_0661.sectors_per_track
SPC = IBM_0661.sectors_per_cylinder
TOTAL = IBM_0661.total_sectors

#: Queued transfers of mixed shapes and places: single sectors, one
#: whole track, and multi-track chains (head switches and a cylinder
#: crossing), spread over the platter so seeks and rotational waits
#: both decide the order.
SHAPES = [
    ((i * 7919 * SPT + i * 13) % (TOTAL - 4 * SPT), 1 + i % 7) for i in range(10)
] + [(3 * SPC - 5, 12), (400 * SPC + 2 * SPT, SPT), (700 * SPC, 3 * SPT)]


def reference(disk, request):
    """``service_components`` for ``request`` if serviced next, right now."""
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


def idle_drive(policy="sptf", at_ms=37.25, **kwargs):
    """A drive that has idled until ``at_ms`` (a nonzero platter phase)."""
    env = Environment()
    disk = Disk(env, IBM_0661, policy=policy, **kwargs)
    env.run(until=at_ms)
    return env, disk


def submit_all(disk, shapes, kind=KIND_USER, is_write=False):
    requests = [
        DiskRequest(start, count, is_write=is_write, kind=kind)
        for start, count in shapes
    ]
    for request in requests:
        disk.submit(request)
    return requests


class TestPricing:
    def test_pop_is_the_argmin_of_service_components(self):
        _env, disk = idle_drive()
        disk.head_cylinder, disk.direction = 350, -1
        queued = submit_all(disk, SHAPES)
        # Drain the queue as the drive would, moving the head after each
        # pick: every pop must be the reference argmin from the head
        # position, direction and instant it was made at.
        while queued:
            prices = [reference(disk, request) for request in queued]
            best = min(range(len(queued)), key=lambda i: prices[i][0])
            popped = disk.scheduler.pop(disk.head_cylinder, disk.direction)
            assert popped is queued[best]
            if len(queued) > 1:
                assert popped.priced == prices[best]
            queued.remove(popped)
            disk.head_cylinder, disk.direction = prices[best][4], prices[best][5]

    def test_a_pick_that_moves_no_head_keeps_the_direction(self):
        _env, disk = idle_drive()
        disk.head_cylinder, disk.direction = 350, -1
        submit_all(disk, [(350 * SPC + 5, 4), (350 * SPC + 3 * SPT, 4)])
        popped = disk.scheduler.pop(disk.head_cylinder, disk.direction)
        assert popped.priced == reference(disk, popped)
        assert popped.priced[4:] == (350, -1)

    def test_equal_times_go_to_the_earlier_push(self):
        _env, disk = idle_drive()
        first, second = submit_all(disk, [(5000, 8), (5000, 8)])
        assert reference(disk, first) == reference(disk, second)
        assert disk.scheduler.pop(disk.head_cylinder, disk.direction) is first
        assert disk.scheduler.pop(disk.head_cylinder, disk.direction) is second


class TestContract:
    def test_pop_without_bind_disk_raises(self):
        scheduler = SptfScheduler()
        scheduler.push(DiskRequest(0, 1, is_write=False))
        scheduler.push(DiskRequest(100, 1, is_write=False))
        with pytest.raises(RuntimeError, match="bind_disk"):
            scheduler.pop(0, 1)

    def test_singleton_queue_skips_pricing(self):
        # One queued request needs no pricing, hence no bound disk.
        scheduler = SptfScheduler()
        only = DiskRequest(7, 2, is_write=False)
        scheduler.push(only)
        assert scheduler.pop(0, 1) is only
        assert only.priced is None


class TestDriveHandoff:
    def test_recorded_components_equal_a_fresh_pricing(self):
        env, disk = idle_drive()
        picks = []
        pop = disk.scheduler.pop

        def watched_pop(head_cylinder, direction):
            depth = len(disk.scheduler)
            request = pop(head_cylinder, direction)
            picks.append((request, depth, reference(disk, request)))
            return request

        recorded = {}
        record = disk.stats.record

        def watched_record(request, seek_ms, rotation_ms, transfer_ms):
            recorded[request] = (seek_ms, rotation_ms, transfer_ms)
            record(request, seek_ms, rotation_ms, transfer_ms)

        disk.scheduler.pop = watched_pop
        disk.stats.record = watched_record
        queued = submit_all(disk, SHAPES, is_write=True)
        env.run()
        assert len(recorded) == len(queued)
        assert sum(depth > 1 for _r, depth, _p in picks) == len(queued) - 1
        for request, _depth, fresh in picks:
            assert recorded[request] == fresh[1:4]
            assert request.complete_ms == request.start_service_ms + fresh[0]

    def test_track_buffer_hit_still_costs_buffer_hit_ms(self):
        env, disk = idle_drive(track_buffer=True, buffer_hit_ms=0.5)
        buffered = 200 * SPC + 3 * SPT
        env.run(until=disk.access(buffered, 8, is_write=False))
        # The next sectors of the buffered track, queued beside two
        # far-away reads: SPTF prices all three mechanically, and the
        # drive still serves the buffered one from the buffer.
        hit, *_others = submit_all(
            disk, [(buffered + 8, 8), (20 * SPC, 8), (900 * SPC, 8)]
        )
        env.run()
        assert hit.priced is not None
        assert disk.stats.buffer_hits == 1
        assert hit.complete_ms - hit.start_service_ms == pytest.approx(0.5)


class TestPriority:
    def test_sptf_plus_priority_binds_both_classes(self):
        env, disk = idle_drive(policy="sptf+priority")
        # Three of each class at once: both children price multi-candidate
        # queues, which raises unless each is bound to the drive.
        recon = submit_all(disk, SHAPES[:3], kind=KIND_RECON)
        user = submit_all(disk, SHAPES[3:6])
        env.run()
        # Each class pops at depths 3, 2 and 1; only the last is unpriced.
        assert sum(request.priced is not None for request in user) == 2
        assert sum(request.priced is not None for request in recon) == 2
        assert max(r.complete_ms for r in user) < min(r.complete_ms for r in recon)
