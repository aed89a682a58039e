"""CVSCAN scheduling (Geist & Daniel 1987), used by the paper's arrays.

CVSCAN is Geist & Daniel's V(R), a continuum between SSTF and SCAN: the
next request is the one nearest the head, but a request *behind* the
direction of travel pays an extra ``R`` times the cylinder count. A
small R (the default is 0.2) captures most of SCAN's fairness while
keeping SSTF's throughput.

Its two ends are exactly the ``sstf`` and ``look`` policies. At R = 0
the cost is the seek distance. At R = 1, on C cylinders, a request
behind the head costs at least C + 1 and one at or ahead of it at most
C - 1, so the pick is the nearest request at or ahead, else the
nearest one behind: LOOK. Both keep the earliest arrival on ties.
"""

from __future__ import annotations

import math

from repro.disk.scheduling.base import Scheduler


class CvscanScheduler(Scheduler):
    """V(R): SSTF at R = 0, LOOK at R = 1, the paper's CVSCAN between.

    Parameters
    ----------
    cylinders:
        Disk size; the bias is ``bias_fraction * cylinders``.
    bias_fraction:
        ``R``, the bias as a fraction of the cylinder span. The ``sstf``
        and ``look`` policies are R = 0 and R = 1.
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
