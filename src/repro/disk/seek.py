"""Seek-time model calibrated to a spec's (min, avg, max) seek times.

Seek time as a function of cylinder distance ``d`` is modeled with the
standard two-regime-inspired curve

    t(d) = a + b * sqrt(d) + c * d      for d >= 1,     t(0) = 0

(square-root acceleration-limited region plus a linear coast term). The
three coefficients are solved from three constraints:

- ``t(1) = seek_min`` (single-cylinder seek),
- ``t(D) = seek_max`` (full stroke, ``D = cylinders - 1``),
- ``E[t(d) | d >= 1] = seek_avg`` under the distance distribution of
  uniformly random seeks, ``P(d) ∝ 2 * (N - d)`` for ``1 <= d < N``.

This matches how drive vendors quote "average seek" and gives a smooth,
monotonic curve hitting all three published numbers exactly.

The fit is plain Python that performs, operation for operation, the
float arithmetic the original ``numpy`` fit performed on an x86-64
host with OpenBLAS: numpy's pairwise summation for the means, then
OpenBLAS ``dgesv``'s elimination order, fused multiply-adds included.
Every recorded result was computed from that fit's bits, so copying its
rounding keeps them; doing it by hand also makes the table independent
of whichever BLAS the host happens to have (a solver that does not fuse
changes most table entries in their last bit).
"""

from __future__ import annotations

import functools
import math
import typing

from repro.disk.specs import DiskSpec


def _fma(x: float, y: float, z: float) -> float:
    """``x * y + z`` rounded once, as a fused multiply-add rounds it.

    ``math.fma`` needs Python 3.13. Here the sum is formed exactly from
    the operands' integer ratios; ``int / int`` is correctly rounded.
    """
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    return (xn * yn * zd + zn * xd * yd) / (xd * yd * zd)


def _pairwise_sum(values: typing.Sequence[float]) -> float:
    """``numpy.add.reduce`` of a float64 vector, bit for bit.

    numpy adds short runs left to right, blocks of at most 128 through
    eight interleaved running sums, and splits longer runs in halves at
    a multiple of 8. The builtin ``sum`` is no substitute: from Python
    3.12 it compensates rounding error, so its float result differs.
    """
    count = len(values)
    if count < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if count <= 128:
        lanes = values[:8]
        blocks_end = count - count % 8
        for base in range(8, blocks_end, 8):
            lanes = [lane + value for lane, value in zip(lanes, values[base:base + 8])]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for value in values[blocks_end:]:
            total += value
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _random_seek_weights(cylinders: int) -> typing.List[float]:
    """``P(d)`` for ``d = 1 .. cylinders - 1``, normalised as numpy did."""
    raw = [2.0 * (cylinders - distance) for distance in range(1, cylinders)]
    total = _pairwise_sum(raw)
    return [weight / total for weight in raw]


def _weighted_mean(weights: typing.Sequence[float], values: typing.Sequence[float]) -> float:
    return _pairwise_sum([weight * value for weight, value in zip(weights, values)])


class SeekModel:
    """Seek time (ms) as a function of cylinder distance.

    The curve is evaluated once per possible distance at construction
    into a lookup table — ``seek_time`` on the service-time hot path is
    then a list index instead of a ``sqrt``. Models are immutable, so
    :meth:`for_spec` shares one instance per spec across all disks of an
    array (the curve fit solves a small linear system; doing it 21 times
    per scenario is pure waste).
    """

    def __init__(self, spec: DiskSpec):
        self.spec = spec
        n = spec.cylinders
        max_distance = n - 1
        if max_distance == 1:
            # Two-cylinder degenerate disk: min == the only seek.
            self._coefficients = (spec.seek_min_ms, 0.0, 0.0)
            self._table = [0.0, spec.seek_min_ms]
            return
        weights = _random_seek_weights(n)
        distances = range(1, n)
        mean_sqrt = _weighted_mean(weights, [math.sqrt(d) for d in distances])
        mean_linear = _weighted_mean(weights, [float(d) for d in distances])
        # Solve [1 1 1; 1 sqrt(D) D; 1 mean_sqrt mean_linear] (a b c)^T =
        # (min max avg)^T by LU without pivoting (column 0 is all ones
        # and mean_sqrt < sqrt(D), so partial pivoting never swaps).
        # At 3 cylinders the third row is a mix of the first two: u22 is
        # rounding residue, and the fitted table is [0, 4, 24] ms for the
        # 0661's (2, 12.5, 25). It is kept as fitted, not corrected.
        seek_min, seek_max = spec.seek_min_ms, spec.seek_max_ms
        u11 = math.sqrt(max_distance) - 1.0
        u12 = max_distance - 1.0
        l21 = (mean_sqrt - 1.0) * (1.0 / u11)
        u22 = mean_linear - _fma(l21, u12, 1.0)
        stroke = seek_max - seek_min
        c = _fma(-stroke, l21, spec.seek_avg_ms - seek_min) / u22
        b = _fma(-c, u12, stroke) / u11
        a = (seek_min - c) - b
        self._coefficients = (a, b, c)
        self._table = [0.0] + [a + b * math.sqrt(d) + c * d for d in distances]

    @classmethod
    @functools.lru_cache(maxsize=None)
    def for_spec(cls, spec: DiskSpec) -> "SeekModel":
        """The shared (immutable) model for a spec."""
        return cls(spec)

    @property
    def coefficients(self) -> tuple:
        """The fitted ``(a, b, c)`` of ``t(d) = a + b*sqrt(d) + c*d``."""
        return self._coefficients

    @property
    def table(self) -> tuple:
        """The distance-indexed lookup table (``table[d]`` = seek ms).

        The drive and the SPTF scheduler snapshot it once and index it
        directly when they price a one-track transfer, and the seek pins
        in ``tests/disk/test_seek.py`` hash it. Same floats, same bits
        as :meth:`seek_time`.
        """
        return tuple(self._table)

    def seek_time(self, distance: int) -> float:
        """Seek time in ms for a move of ``distance`` cylinders."""
        if distance < 0:
            raise ValueError(f"negative seek distance {distance}")
        return self._table[distance]

    def average_over_random_seeks(self) -> float:
        """Mean of ``seek_time`` under the random-seek distance law.

        Should reproduce ``spec.seek_avg_ms`` up to float error; exposed
        for calibration tests.
        """
        weights = _random_seek_weights(self.spec.cylinders)
        return _weighted_mean(weights, self._table[1:])
