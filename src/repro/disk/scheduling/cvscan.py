"""CVSCAN scheduling (Geist & Daniel 1987), used by the paper's arrays.

CVSCAN is a continuum between SSTF and SCAN: the next request is the
one minimizing head travel distance, but requests *behind* the current
direction of travel are penalized by a constant bias ``R``. ``R = 0``
degenerates to SSTF; ``R -> infinity`` degenerates to SCAN. Geist &
Daniel report that a small bias (a fraction of the total cylinder span)
captures most of SCAN's fairness while keeping SSTF's throughput; we
default the bias to 20 % of the cylinder count.
"""

from __future__ import annotations

import math

from repro.disk.scheduling.base import Scheduler


class CvscanScheduler(Scheduler):
    """SSTF/SCAN continuum with directional bias ``R``.

    Parameters
    ----------
    cylinders:
        Disk size; the default bias is ``bias_fraction * cylinders``.
    bias_fraction:
        ``R`` as a fraction of the cylinder span.
    """

    def __init__(self, cylinders: int, bias_fraction: float = 0.2):
        if cylinders < 1:
            raise ValueError(f"cylinders must be positive, got {cylinders}")
        if bias_fraction < 0:
            raise ValueError(f"bias fraction must be >= 0, got {bias_fraction}")
        self.bias = bias_fraction * cylinders
        self._queue: list = []

    def push(self, request) -> None:
        self._queue.append(request)

    def pop(self, head_cylinder: int, direction: int):
        # An open-coded argmin of the biased distance: this runs once per
        # serviced request over an O(queue) scan, and the closure-based
        # min(key=...) spelling showed up in profiles. The queue is in
        # arrival order, so keeping the first strict minimum breaks ties
        # toward the earlier arrival.
        queue = self._queue
        if len(queue) == 1:
            return queue.pop()
        direction = 1 if direction >= 0 else -1
        bias = self.bias
        best_index = 0
        best_cost = math.inf
        for index, request in enumerate(queue):
            delta = request.cylinder - head_cylinder
            cost = abs(delta)
            if delta * direction < 0:
                cost += bias
            if cost < best_cost:
                best_cost = cost
                best_index = index
        return queue.pop(best_index)

    def __len__(self) -> int:
        return len(self._queue)
