"""A trace generator for Zipf-like hot spots.

The paper's generator is uniform random; real storage workloads are
not. :func:`zipf_hot_spot` synthesizes a
:class:`~repro.workload.trace.TraceRecord` list whose accesses
concentrate on a small working set, so the same simulator can answer
a question the uniform model cannot: does declustering still balance
load under skew?

The generator takes an explicit RNG seed and produces deterministic
traces.
"""

from __future__ import annotations

import math
import typing

from repro.sim.rng import RandomStreams
from repro.workload.trace import TraceRecord


def _interarrivals(rng, rate_per_s: float, count: int) -> typing.List[float]:
    clock = 0.0
    times = []
    for _ in range(count):
        clock += rng.expovariate(rate_per_s / 1000.0)
        times.append(clock)
    return times


def zipf_hot_spot(
    num_units: int,
    count: int,
    rate_per_s: float = 100.0,
    read_fraction: float = 0.5,
    skew: float = 1.0,
    working_set: int = 100,
    seed: int = 1992,
) -> typing.List[TraceRecord]:
    """Zipf-distributed accesses over a working set of hot units.

    ``skew`` is the Zipf exponent (0 = uniform over the working set;
    ~1 = classic 80/20-like behaviour). The working set occupies the
    lowest unit numbers, spreading across parity stripes.
    """
    if not 1 <= working_set <= num_units:
        raise ValueError("working set must fit the data space")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    streams = RandomStreams(seed)
    arrival_rng = streams.stream("zipf-arrivals")
    pick_rng = streams.stream("zipf-pick")
    kind_rng = streams.stream("zipf-kind")
    weights = [1.0 / math.pow(rank, skew) for rank in range(1, working_set + 1)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running / total)
    times = _interarrivals(arrival_rng, rate_per_s, count)

    def pick_unit() -> int:
        point = pick_rng.random()
        low, high = 0, working_set - 1
        while low < high:
            mid = (low + high) // 2
            if cumulative[mid] < point:
                low = mid + 1
            else:
                high = mid
        return low

    return [
        TraceRecord(
            at_ms=times[i],
            is_write=kind_rng.random() >= read_fraction,
            logical_unit=pick_unit(),
        )
        for i in range(count)
    ]

