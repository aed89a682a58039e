"""Shortest-seek-time-first scheduling."""

from __future__ import annotations

from repro.disk.scheduling.base import Scheduler


class SstfScheduler(Scheduler):
    """Service the queued request closest to the head.

    Ties break toward the earlier arrival: the queue is kept in arrival
    order and ``min`` returns the first minimum, which avoids
    pathological starvation between two equidistant hot cylinders.
    """

    def __init__(self):
        self._queue: list = []

    def push(self, request) -> None:
        self._queue.append(request)

    def pop(self, head_cylinder: int, direction: int):
        queue = self._queue
        best_index = min(
            range(len(queue)), key=lambda i: abs(queue[i].cylinder - head_cylinder)
        )
        return queue.pop(best_index)

    def __len__(self) -> int:
        return len(self._queue)
