"""Host-speed calibration: a fixed kernel timed around every timed rep.

Other tenants slow this kind of shared host down by up to ~2x, switching
within fractions of a second and drifting over minutes, so medians of
raw rep times of one commit spread by 13-30% between 20-second
measurements. Every timed rep therefore runs this kernel twice just
before and twice just after its measured region; the geometric mean of
those four pass times, over :data:`NOMINAL_PASS_S`, is the host's
slowdown during the rep. Dividing the rep's time by it gives the rep's
time on the reference host. Medians of those spread by 3-8% over the
same measurements.

The kernel is pure Python like the simulator: generator processes
resumed from a heap, walking a large shuffled object graph so it misses
cache the way the simulator's heap of requests and events does. It
imports nothing from the simulator, so no change to the simulator can
change it.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time
import typing

#: Seconds one pass takes on the reference host (Intel Xeon, Sapphire
#: Rapids, KVM guest, Python 3.11) when no other tenant slows it.
NOMINAL_PASS_S = 0.020
STEPS_PER_PASS = 15_000
GRAPH_NODES = 200_000


class _Node:
    __slots__ = ("next", "tag")

    def __init__(self, tag: int):
        self.next: typing.Optional[_Node] = None
        self.tag = tag


class Calibrator:
    """Owns the kernel's object graph (built once, ~20 MB)."""

    def __init__(self):
        rng = random.Random(11)
        self._nodes = [_Node(i & 7) for i in range(GRAPH_NODES)]
        order = list(range(GRAPH_NODES))
        rng.shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            self._nodes[a].next = self._nodes[b]
        # Keep the collector from traversing the graph during the
        # measured region: the rep's garbage collections then cost what
        # they would without calibration.
        gc.freeze()
        self.pass_s()  # first pass warms the graph into cache

    def _kernel(self) -> int:
        nodes = self._nodes
        rng = random.Random(7)
        visits: typing.Dict[int, int] = {}

        def walker(start: int):
            node = nodes[start]
            while True:
                hops = yield
                for _ in range(hops):
                    node = node.next
                visits[node.tag] = visits.get(node.tag, 0) + 1

        heap = []
        for index in range(64):
            walk = walker(index * 997)
            next(walk)
            heap.append((rng.random(), index, walk.send))
        heapq.heapify(heap)
        seq = len(heap)
        for _ in range(STEPS_PER_PASS):
            at, _seq, send = heapq.heappop(heap)
            send(8)
            seq += 1
            heapq.heappush(heap, (at + rng.expovariate(1.0), seq, send))
        return sum(visits.values())

    def pass_s(self) -> float:
        started = time.perf_counter()
        self._kernel()
        return time.perf_counter() - started


def slowdown(pass_times: typing.Sequence[float]) -> float:
    """The host's slowdown over the reference host, from kernel passes."""
    mean_log = sum(math.log(t) for t in pass_times) / len(pass_times)
    return math.exp(mean_log) / NOMINAL_PASS_S
