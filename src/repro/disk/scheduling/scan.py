"""LOOK (elevator) scheduling.

The head sweeps in one direction servicing requests in cylinder order
and reverses when no requests remain ahead of it (LOOK, the practical
variant of SCAN that does not travel to the physical edge).
"""

from __future__ import annotations

from repro.disk.scheduling.base import Scheduler


class LookScheduler(Scheduler):
    """Elevator scheduling with reversal at the last pending request.

    Ties break toward the earlier arrival: the queue is kept in arrival
    order and ``min`` returns the first minimum.
    """

    def __init__(self):
        self._queue: list = []

    def push(self, request) -> None:
        self._queue.append(request)

    def pop(self, head_cylinder: int, direction: int):
        direction = 1 if direction >= 0 else -1
        queue = self._queue
        ahead = [
            index
            for index, request in enumerate(queue)
            if (request.cylinder - head_cylinder) * direction >= 0
        ]
        if not ahead:
            # Reverse the sweep: everything is behind the head.
            ahead = range(len(queue))
        best_index = min(ahead, key=lambda i: abs(queue[i].cylinder - head_cylinder))
        return queue.pop(best_index)

    def __len__(self) -> int:
        return len(self._queue)
