"""Shortest-positioning-time-first scheduling.

SSTF ranks candidates by cylinder distance alone; SPTF ranks them by
their full physical service time — seek *plus* rotational latency plus
transfer — evaluated from the drive's current head position and the
platter phase at the moment the head frees up. Rotational latency is
the same order of magnitude as a short seek on the paper's drives, so
SPTF finds wins SSTF cannot see (a slightly farther cylinder whose
target sector is about to rotate under the head).

Each pop prices every queued candidate once with the drive's own
service-time arithmetic (:func:`repro.disk.drive.service_components`),
on the track runs :meth:`Disk.submit <repro.disk.drive.Disk.submit>`
derived for the request. Queues on the paper's workloads stay short
(a few dozen candidates at most), so a plain loop is the cheapest way
to do it. The winner carries its price to the drive
(``DiskRequest.priced``), which services it at that same head position
and instant and so does not price it again.
"""

from __future__ import annotations

import typing

from repro.disk.drive import service_components
from repro.disk.scheduling.base import Scheduler


class SptfScheduler(Scheduler):
    """Service the queued request with the smallest physical service time.

    Ties break toward the earlier arrival: the queue is kept in arrival
    order and the scan below takes the first strict minimum. Requires
    :meth:`bind_disk` (the drive's spec, clock, and head state price
    the candidates); :class:`~repro.disk.drive.Disk` binds any
    scheduler that asks during construction.
    """

    def __init__(self):
        self._queue: typing.List = []
        self._disk = None

    def bind_disk(self, disk) -> None:
        """Attach the drive whose physical state prices candidates."""
        spec = disk.spec
        self._disk = disk
        # The spec derives these on every property read and is frozen,
        # so snapshot them once, as the drive does.
        self._seek_time = disk.seek_model.seek_time
        self._sector_time_ms = spec.sector_time_ms
        self._sectors_per_track = spec.sectors_per_track
        self._head_switch_ms = spec.head_switch_ms

    def push(self, request) -> None:
        self._queue.append(request)

    def pop(self, head_cylinder: int, direction: int):
        queue = self._queue
        if len(queue) == 1:
            return queue.pop()
        disk = self._disk
        if disk is None:
            raise RuntimeError(
                "SptfScheduler needs bind_disk() before pop() — construct it "
                "through make_scheduler()/Disk, which bind automatically"
            )
        now = disk.env.now
        seek_time = self._seek_time
        sector_time_ms = self._sector_time_ms
        sectors_per_track = self._sectors_per_track
        head_switch_ms = self._head_switch_ms
        best = 0
        best_priced = None
        for index, request in enumerate(queue):
            priced = service_components(
                request.runs,
                head_cylinder,
                direction,
                now,
                seek_time,
                sector_time_ms,
                sectors_per_track,
                head_switch_ms,
            )
            if best_priced is None or priced[0] < best_priced[0]:
                best = index
                best_priced = priced
        request = queue.pop(best)
        request.priced = best_priced
        return request

    def __len__(self) -> int:
        return len(self._queue)
