"""SPTF on a real drive, checked against the reference pricing.

The reference is a fresh :func:`~repro.disk.drive.service_components`
call on the request's track runs at the drive's head position,
direction and clock: SPTF must pick the first strict argmin of that
call's service time, and the seek, rotation and transfer the drive
records for the pick (it prices the pick once more; the pop hands it
no price) must equal it.
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


def idle_drive(policy="sptf", at_ms=37.25):
    """A drive that has idled until ``at_ms`` (a nonzero platter phase)."""
    env = Environment()
    disk = Disk(env, IBM_0661, policy=policy)
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
            queued.remove(popped)
            disk.head_cylinder, disk.direction = prices[best][4], prices[best][5]

    def test_a_pick_that_moves_no_head_keeps_the_direction(self):
        _env, disk = idle_drive()
        disk.head_cylinder, disk.direction = 350, -1
        submit_all(disk, [(350 * SPC + 5, 4), (350 * SPC + 3 * SPT, 4)])
        popped = disk.scheduler.pop(disk.head_cylinder, disk.direction)
        fresh = reference(disk, popped)
        assert fresh[1] == 0.0 and fresh[4:] == (350, -1)
        assert disk._service_time(popped) == fresh[:4]
        assert (disk.head_cylinder, disk.direction) == (350, -1)

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
        # One queued request needs no pricing, hence no bound disk and
        # no placement: this request was never submitted, so pricing it
        # would fail on its unset ``runs``.
        scheduler = SptfScheduler()
        only = DiskRequest(7, 2, is_write=False)
        scheduler.push(only)
        assert scheduler.pop(0, 1) is only


class TestDriveHandoff:
    def test_recorded_components_equal_a_fresh_pricing(self):
        # The pop hands the drive no price: the drive prices its pick
        # once more, at the same head state and instant, and must land
        # on the reference's components and head state.
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
            recorded[request] = (
                seek_ms, rotation_ms, transfer_ms, disk.head_cylinder, disk.direction,
            )
            record(request, seek_ms, rotation_ms, transfer_ms)

        disk.scheduler.pop = watched_pop
        disk.stats.record = watched_record
        queued = submit_all(disk, SHAPES, is_write=True)
        env.run()
        assert len(recorded) == len(queued)
        assert sum(depth > 1 for _r, depth, _p in picks) == len(queued) - 1
        for request, _depth, fresh in picks:
            assert recorded[request] == fresh[1:]
            assert request.complete_ms == request.start_service_ms + fresh[0]


class TestPriority:
    def test_sptf_plus_priority_binds_both_classes(self):
        env, disk = idle_drive(policy="sptf+priority")
        assert disk.scheduler.user_queue._disk is disk
        assert disk.scheduler.recon_queue._disk is disk
        # Three of each class at once: both children price multi-candidate
        # queues, which raises unless each is bound to the drive.
        recon = submit_all(disk, SHAPES[:3], kind=KIND_RECON)
        user = submit_all(disk, SHAPES[3:6])
        env.run()
        assert all(request.processed for request in user + recon)
        assert max(r.complete_ms for r in user) < min(r.complete_ms for r in recon)
