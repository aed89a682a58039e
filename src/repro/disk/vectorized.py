"""Vectorized disk service-time kernel: batch seek/rotation/transfer.

Evaluates the physical service time of *many* candidate requests of one
drive in a single numpy batch, every candidate measured independently
from the same head position and platter phase. The scalar loop in
:func:`repro.disk.drive.service_components` is the **reference
implementation**; this module reproduces its results **bit-for-bit**
(pinned by the exact-equality property tests in
``tests/disk/test_vectorized.py``), which requires mirroring not just
the formulas but the floating-point *operation order*:

- per run, the clock takes the seek (or head-switch) add first, then
  the rotational wait add, then the transfer add — three separate
  float64 additions, never fused;
- a lane whose first run does not move the head adds an exact ``+0.0``
  (seek-table entry zero); lanes that have run out of runs take no
  operations at all — the ragged tail gathers only still-live lanes;
- ``%`` is ``numpy.remainder``, which matches Python's float ``%``
  (fmod plus sign-of-divisor adjustment) bit-for-bit for the
  non-negative divisors used here.

Users: the end-to-end benchmark's attribution, which counts calls to
:func:`service_times` as ``disk.batch_pricings``, and the property
tests. No scenario path uses this module: the SPTF scheduler prices
its short queues in its own loop (one-track candidates in frame,
longer ones with :func:`~repro.disk.drive.service_components`).

The kernel switch
-----------------
:func:`service_times` selects the active path from the
``REPRO_DISK_KERNEL`` environment variable (or an explicit ``mode=``
argument) — deliberately **not** part of ``ScenarioConfig``: both paths
return bit-identical times, so the switch cannot change any simulation
result and therefore must not fragment the sweep-cache key space.

- ``scalar``     — always the reference loop;
- ``vectorized`` — always the numpy batch;
- ``auto`` (default) — numpy at or above :data:`AUTO_THRESHOLD`
  candidates, scalar below it (a numpy call's fixed overhead dominates
  tiny batches). Safe because the two paths agree exactly.
"""

from __future__ import annotations

import functools
import os
import typing

import numpy as np

from repro.disk.drive import service_components
from repro.disk.geometry import DiskGeometry
from repro.disk.seek import SeekModel
from repro.disk.specs import DiskSpec

#: The process-wide switch read by :func:`kernel_mode`.
ENV_VAR = "REPRO_DISK_KERNEL"

MODES = ("auto", "scalar", "vectorized")

#: Below this many candidates ``auto`` stays scalar: the numpy batch
#: pays fixed per-call overhead (a dozen ufunc invocations plus column
#: gathers) that a short Python loop undercuts. The measured crossover
#: on the reference container sat near 128 candidates; above it the
#: batch wins by a growing margin — ~1.9x by a thousand candidates. The
#: exact value only moves wall-clock, never results — both paths are
#: bit-identical.
AUTO_THRESHOLD = 128


def kernel_mode(override: typing.Optional[str] = None) -> str:
    """Resolve the active kernel mode (``override`` beats the env var).

    Raises ``ValueError`` on an unknown mode name.
    """
    mode = override if override is not None else os.environ.get(ENV_VAR, "auto")
    mode = mode.strip().lower()
    if mode not in MODES:
        raise ValueError(
            f"unknown disk kernel mode {mode!r} "
            f"(from ${ENV_VAR}); choose from {MODES}"
        )
    return mode


class VectorizedServiceModel:
    """Per-spec constants for batch evaluation, built once per spec.

    Snapshots the seek lookup table into a float64 array and the
    spec-derived divisors into plain attributes (the spec recomputes
    them on every property read). The spec is frozen, so nothing here
    can go stale; share instances via :func:`model_for`.
    """

    def __init__(self, spec: DiskSpec):
        self.spec = spec
        self.geometry = DiskGeometry(spec)
        self.seek_model = SeekModel.for_spec(spec)
        self.seek_table = np.asarray(self.seek_model.table, dtype=np.float64)
        self.sector_time_ms = spec.sector_time_ms
        self.sectors_per_track = spec.sectors_per_track
        self.head_switch_ms = spec.head_switch_ms


@functools.lru_cache(maxsize=None)
def model_for(spec: DiskSpec) -> VectorizedServiceModel:
    """The shared (immutable) batch model for a spec."""
    return VectorizedServiceModel(spec)


def service_times_scalar(
    model: VectorizedServiceModel,
    head_cylinder: int,
    start_ms: float,
    requests: typing.Sequence,
) -> typing.List[float]:
    """Reference path: one scalar evaluation per candidate.

    Every candidate is priced independently from the same
    ``(head_cylinder, start_ms)`` state — the counterfactual "what if
    this one were serviced next", exactly what a positioning-aware
    scheduler needs.
    """
    split = model.geometry.split_by_track
    seek_time = model.seek_model.seek_time
    sector_time_ms = model.sector_time_ms
    sectors_per_track = model.sectors_per_track
    head_switch_ms = model.head_switch_ms
    return [
        service_components(
            split(request.start_sector, request.sector_count),
            head_cylinder,
            1,
            start_ms,
            seek_time,
            sector_time_ms,
            sectors_per_track,
            head_switch_ms,
        )[0]
        for request in requests
    ]


def service_times_vectorized(
    model: VectorizedServiceModel,
    head_cylinder: int,
    start_ms: float,
    requests: typing.Sequence,
) -> np.ndarray:
    """Numpy path: all candidates in one batch, bit-identical to scalar.

    The chain *within* one request is sequential (each run's rotational
    wait depends on the clock left by the previous run), so the batch
    axis is the request axis: a short loop over run index with validity
    masks, vector math across requests. Real transfers split into very
    few runs (one or two tracks), so the loop body executes a handful
    of times regardless of batch size.
    """
    count = len(requests)
    if count == 0:
        return np.empty(0, dtype=np.float64)
    split = model.geometry.split_by_track
    batch = [split(r.start_sector, r.sector_count) for r in requests]
    lengths = [len(runs) for runs in batch]
    max_runs = max(lengths)
    min_runs = min(lengths)
    table = model.seek_table
    sector_time_ms = model.sector_time_ms
    sectors_per_track = model.sectors_per_track
    head_switch_ms = model.head_switch_ms
    snap_threshold = sectors_per_track - 1e-6
    clock = np.full(count, start_ms, dtype=np.float64)
    current = np.full(count, head_cylinder, dtype=np.int64)
    for r in range(max_runs):
        if r < min_runs:
            # Dense prefix: every lane still has a run here, so no
            # validity masking — columns are plain list-comprehension
            # gathers, the cheapest way to feed numpy from namedtuples.
            column = [runs[r] for runs in batch]
            cylinder = np.array([run.cylinder for run in column], dtype=np.int64)
            rotational = np.array(
                [run.rotational_start for run in column], dtype=np.float64
            )
            counts = np.array([run.count for run in column], dtype=np.float64)
            delta = cylinder - current
            head_move = table[np.abs(delta)]
            if r > 0:
                # Same cylinder, next head: the switch settle time.
                head_move = np.where(delta != 0, head_move, head_switch_ms)
            clock += head_move
            current = cylinder
            position = (clock / sector_time_ms) % sectors_per_track
            slots_to_wait = (rotational - position) % sectors_per_track
            # Same snap-to-zero guard as the scalar loop, same constant.
            slots_to_wait = np.where(
                slots_to_wait > snap_threshold, 0.0, slots_to_wait
            )
            clock += slots_to_wait * sector_time_ms
            clock += counts * sector_time_ms
        else:
            # Ragged tail (r >= min_runs): exhausted lanes take no adds
            # at all in the scalar loop, so instead of masking the full
            # batch, gather the still-live lanes into a subarray, price
            # the run there, and scatter the clocks back. Typically only
            # a small fraction of lanes reach this branch (multi-track
            # transfers), so both the Python gather and the numpy ops
            # shrink to that fraction.
            live = [index for index, length in enumerate(lengths) if length > r]
            if not live:
                break
            column = [batch[index][r] for index in live]
            idx = np.array(live, dtype=np.intp)
            cylinder = np.array([run.cylinder for run in column], dtype=np.int64)
            rotational = np.array(
                [run.rotational_start for run in column], dtype=np.float64
            )
            counts = np.array([run.count for run in column], dtype=np.float64)
            delta = cylinder - current[idx]
            head_move = table[np.abs(delta)]
            if r > 0:
                # Same cylinder, next head: the switch settle time.
                head_move = np.where(delta != 0, head_move, head_switch_ms)
            sub_clock = clock[idx] + head_move
            current[idx] = cylinder
            position = (sub_clock / sector_time_ms) % sectors_per_track
            slots_to_wait = (rotational - position) % sectors_per_track
            slots_to_wait = np.where(
                slots_to_wait > snap_threshold, 0.0, slots_to_wait
            )
            sub_clock = sub_clock + slots_to_wait * sector_time_ms
            sub_clock = sub_clock + counts * sector_time_ms
            clock[idx] = sub_clock
    return clock - start_ms


def service_times(
    model: VectorizedServiceModel,
    head_cylinder: int,
    start_ms: float,
    requests: typing.Sequence,
    mode: typing.Optional[str] = None,
) -> typing.Sequence[float]:
    """Batch service times, honoring the kernel switch.

    Returns a list (scalar path) or a float64 array (vectorized path);
    element values are bit-identical either way, so callers may index
    and compare without caring which path ran.
    """
    resolved = kernel_mode(mode)
    if resolved == "vectorized" or (
        resolved == "auto" and len(requests) >= AUTO_THRESHOLD
    ):
        return service_times_vectorized(model, head_cylinder, start_ms, requests)
    return service_times_scalar(model, head_cylinder, start_ms, requests)
