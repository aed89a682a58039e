"""Sweep orchestration: run many scenario points well.

Every figure of the paper is a sweep over independent
:class:`~repro.experiments.runner.ScenarioConfig` points. This package
owns that execution shape end to end:

- :mod:`repro.sweep.grid` — declarative grids (:class:`SweepSpec`)
  that enumerate config points deterministically;
- :mod:`repro.sweep.cache` — a content-addressed on-disk result cache
  (:class:`ResultCache`) so repeated runs are near-instant;
- :mod:`repro.sweep.pool` — :func:`run_sweep`, the front door: runs
  each uncached point once, over a process pool or in-process, and
  writes each result to the cache before announcing it, so a killed
  sweep resumes from the cache;
- :mod:`repro.sweep.progress` — throughput/ETA reporting and the
  per-sweep :class:`SweepSummary`.

The figure modules, the CLI (``--jobs``/``--no-cache``), and the
benchmark suite all route through :func:`run_sweep`; any new
experiment inherits parallelism and caching by building a spec.
"""

from repro.sweep.cache import (
    ResultCache,
    config_cache_key,
    default_cache_dir,
    result_from_dict,
    result_to_dict,
)
from repro.sweep.grid import SweepPoint, SweepSpec
from repro.sweep.pool import (
    SweepCancelled,
    SweepError,
    SweepOptions,
    SweepOutcome,
    run_sweep,
)
from repro.sweep.progress import ProgressReporter, SweepEvent, SweepSummary

__all__ = [
    "ProgressReporter",
    "ResultCache",
    "SweepCancelled",
    "SweepError",
    "SweepEvent",
    "SweepOptions",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "SweepSummary",
    "config_cache_key",
    "default_cache_dir",
    "result_from_dict",
    "result_to_dict",
    "run_sweep",
]
