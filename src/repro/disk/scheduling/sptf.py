"""Shortest-positioning-time-first scheduling.

SSTF ranks candidates by cylinder distance alone; SPTF ranks them by
their full physical service time — seek *plus* rotational latency plus
transfer — evaluated from the drive's current head position and the
platter phase at the moment the head frees up. Rotational latency is
the same order of magnitude as a short seek on the paper's drives, so
SPTF finds wins SSTF cannot see (a slightly farther cylinder whose
target sector is about to rotate under the head).

Each pop prices every queued candidate once, from the drive's head
position, direction and clock. A one-track candidate (every
stripe-unit access) is priced in the loop's own frame from the
``cylinder`` and ``rotational_start`` :meth:`Disk.submit
<repro.disk.drive.Disk.submit>` placed it at, with the seek table read
directly and :func:`~repro.disk.drive.service_components`' float
operations in its order, so the price has the same bits; a longer one
is priced by that function on its track runs. Queues on the paper's
workloads stay short (a few dozen candidates at most), so a plain loop
is the cheapest way to do it. The pop hands the drive no price: the
drive prices the winner once more when it services it.
"""

from __future__ import annotations

import math
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
        self._seek_table = disk.seek_model.table
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
        now = disk.env._now  # the kernel's clock slot, as the drive reads it
        seek_table = self._seek_table
        sector_time_ms = self._sector_time_ms
        sectors_per_track = self._sectors_per_track
        snap = sectors_per_track - 1e-6
        best = 0
        best_ms = math.inf
        for index, request in enumerate(queue):
            if request.runs is None:
                # Disk._service_time's one-track pricing, service time only.
                cylinder = request.cylinder
                if cylinder != head_cylinder:
                    clock = now + seek_table[abs(cylinder - head_cylinder)]
                else:
                    clock = now
                position = (clock / sector_time_ms) % sectors_per_track
                slots_to_wait = (request.rotational_start - position) % sectors_per_track
                if slots_to_wait > snap:
                    slots_to_wait = 0.0
                clock += slots_to_wait * sector_time_ms
                clock += request.sector_count * sector_time_ms
                service_ms = clock - now
            else:
                service_ms = service_components(
                    request.runs,
                    head_cylinder,
                    direction,
                    now,
                    self._seek_time,
                    sector_time_ms,
                    sectors_per_track,
                    self._head_switch_ms,
                )[0]
            if service_ms < best_ms:
                best = index
                best_ms = service_ms
        return queue.pop(best)

    def __len__(self) -> int:
        return len(self._queue)
