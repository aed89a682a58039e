"""Sweep execution: a process pool or the calling process, each point once.

:func:`run_sweep` is the subsystem's front door. It resolves cache
hits, fans the remaining points out over a ``ProcessPoolExecutor``
(``jobs > 1``) or runs them in-process (``jobs == 1``, or whenever a
pool cannot be created), and returns results in point order plus a
:class:`~repro.sweep.progress.SweepSummary`.

A point's result is a pure function of its config key, so each point
runs once: a point whose simulation raises would raise again, and the
sweep raises :class:`SweepError` once the other points are done. Only a
worker process that died under a point (``BrokenProcessPool``) says
nothing about the point; it is requeued on a fresh pool, at most
:data:`WORKER_DEATH_RETRIES` times.

Each result is written to the cache before ``on_event`` announces it,
so a sweep killed at any instant loses only the points in flight: a
rerun gets every announced point back as a cache hit. That is how the
job service resumes a killed job.

Work crosses the process boundary as plain dicts — the config's
canonical key in, the serialized result out — so the worker payload is
picklable regardless of what objects (algorithm, scale preset) the
config holds, and the parallel path exercises exactly the
serialization the cache relies on: a cached rerun cannot differ from
the run that populated it.
"""

from __future__ import annotations

import collections
import concurrent.futures
import os
import typing
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.sweep.cache import ResultCache, result_from_dict, result_to_dict
from repro.sweep.grid import SweepPoint, SweepSpec
from repro.sweep.progress import ProgressReporter, SweepEvent, SweepSummary

#: Requeues a point gets when the worker process running it dies. A
#: dead interpreter is no verdict on the point; a raised exception is.
WORKER_DEATH_RETRIES = 2


class SweepError(RuntimeError):
    """A sweep point raised; that exception is the ``__cause__``."""


class SweepCancelled(RuntimeError):
    """The sweep's cancel token was set before every point completed.

    Raised by :func:`run_sweep` when ``SweepOptions.cancel`` fires.
    Points that already completed were cached (when a cache is
    configured) and reported through ``on_event``; in-flight pool
    workers are discarded without waiting for them.
    """


def execute_config_key(key: typing.Dict[str, typing.Any]) -> dict:
    """Worker entry point: canonical config key in, result dict out."""
    config = ScenarioConfig.from_key(key)
    return result_to_dict(run_scenario(config))


@dataclass
class SweepOptions:
    """How a sweep runs, as opposed to what it runs.

    ``cache`` accepts a ready :class:`ResultCache`, a directory path,
    or None (caching off).

    ``on_event`` and ``cancel`` are the embeddable-engine surface: an
    ``on_event`` callable receives a
    :class:`~repro.sweep.progress.SweepEvent` for every cache hit,
    completed point (with its serialized result), failure, requeue
    after a dead worker, and note, in the order they happen; ``cancel``
    is any object with an ``is_set()`` method (e.g.
    ``threading.Event``) — once set, :func:`run_sweep` stops at the
    next point boundary and raises :class:`SweepCancelled`. A
    long-running single point is not preempted; cancellation
    granularity is one point.
    """

    jobs: int = 1
    cache: typing.Union[ResultCache, str, os.PathLike, None] = None
    progress: bool = False
    stream: typing.Optional[typing.TextIO] = None
    on_event: typing.Optional[typing.Callable[[SweepEvent], None]] = None
    cancel: typing.Optional[typing.Any] = None

    def resolve_cache(self) -> typing.Optional[ResultCache]:
        if self.cache is None or isinstance(self.cache, ResultCache):
            return self.cache
        return ResultCache(self.cache)


@dataclass
class SweepOutcome:
    """Results in point order + accounting."""

    results: typing.List[ScenarioResult]
    summary: SweepSummary


def run_sweep(
    spec: typing.Union[SweepSpec, typing.Iterable[ScenarioConfig]],
    options: typing.Optional[SweepOptions] = None,
    *,
    execute: typing.Optional[typing.Callable[[dict], dict]] = None,
) -> SweepOutcome:
    """Run every point of ``spec`` — a :class:`SweepSpec` or an iterable
    of configs — honoring ``options``; see :class:`SweepOptions`.

    If any point raised, :class:`SweepError` is raised after the other
    points ran, naming the first failed point and carrying its
    ``scenario_key``.

    A custom ``execute`` (key dict → result dict) replaces the
    simulation itself; in pool mode it must be picklable (a module-level
    function).
    """
    options = options or SweepOptions()
    if options.jobs < 1:
        raise ValueError("jobs must be >= 1")
    execute = execute or execute_config_key
    if isinstance(spec, SweepSpec):
        points = spec.points()
    else:
        points = [
            SweepPoint(index=i, coords={}, config=config)
            for i, config in enumerate(spec)
        ]
    reporter = ProgressReporter(
        total=len(points), enabled=options.progress, stream=options.stream
    )
    cache = options.resolve_cache()
    results: typing.List[typing.Any] = [None] * len(points)
    failures: typing.List[typing.Tuple[SweepPoint, BaseException]] = []

    def emit(
        kind: str,
        point: typing.Optional[SweepPoint] = None,
        result: typing.Optional[dict] = None,
        message: typing.Optional[str] = None,
    ) -> None:
        if options.on_event is None:
            return
        summary = reporter.summary
        options.on_event(
            SweepEvent(
                kind=kind,
                index=None if point is None else point.index,
                config_key=None if point is None else point.config.to_key(),
                result=result,
                message=message,
                completed=summary.completed + summary.failures,
                total=len(points),
            )
        )

    to_run: typing.List[SweepPoint] = []
    for point in points:
        cached = cache.get_dict(point.config) if cache is not None else None
        if cached is not None:
            results[point.index] = result_from_dict(cached)
            reporter.cache_hit()
            emit("cache-hit", point, result=cached)
        else:
            to_run.append(point)

    def on_done(point: SweepPoint, result: dict) -> None:
        results[point.index] = result_from_dict(result)
        if cache is not None:
            cache.put_dict(point.config, result)
        reporter.executed()
        emit("executed", point, result=result)

    def on_fail(point: SweepPoint, error: BaseException) -> None:
        # The sweep runs many points: the error must say which config
        # produced it, or the report is undebuggable.
        error.scenario_key = point.config.to_key()  # type: ignore[attr-defined]
        failures.append((point, error))
        reporter.failed()
        emit("failed", point, message=repr(error))

    if to_run:
        if options.jobs > 1:
            _pool_run(to_run, options, execute, reporter, emit, on_done, on_fail)
        else:
            _serial_run(to_run, options, execute, on_done, on_fail)

    summary = reporter.finish()
    if failures:
        point, error = failures[0]
        where = point.coords or point.config
        sweep_error = SweepError(
            f"sweep point #{point.index} ({where}) failed: {error!r}"
            + (f" (+{len(failures) - 1} more failed points)" if len(failures) > 1 else "")
        )
        sweep_error.scenario_key = point.config.to_key()  # type: ignore[attr-defined]
        raise sweep_error from error
    return SweepOutcome(results=results, summary=summary)


def _cancelled(options: SweepOptions) -> bool:
    return options.cancel is not None and options.cancel.is_set()


def _serial_run(points, options, execute, on_done, on_fail) -> None:
    for point in points:
        if _cancelled(options):
            raise SweepCancelled("sweep cancelled between points")
        try:
            result = execute(point.config.to_key())
        except Exception as exc:  # simlint: disable=ERR001 (recorded, then raised as the SweepError's cause)
            on_fail(point, exc)
        else:
            on_done(point, result)


def _pool_run(points, options, execute, reporter, emit, on_done, on_fail) -> None:
    try:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=options.jobs)
    except (ImportError, NotImplementedError, OSError) as exc:
        reporter.note(f"process pool unavailable ({exc!r}); running serially")
        emit("note", message="process pool unavailable; running serially")
        _serial_run(points, options, execute, on_done, on_fail)
        return

    # (point, requeues left) queue; outstanding maps a future to its entry.
    pending = collections.deque((point, WORKER_DEATH_RETRIES) for point in points)
    outstanding: typing.Dict[
        concurrent.futures.Future, typing.Tuple[SweepPoint, int]
    ] = {}
    try:
        while pending or outstanding:
            if _cancelled(options):
                raise SweepCancelled(
                    "sweep cancelled; discarding in-flight points"
                )
            while pending and len(outstanding) < options.jobs:
                point, budget = pending.popleft()
                future = pool.submit(execute, point.config.to_key())
                outstanding[future] = (point, budget)

            # With a cancel token, wake up periodically so a cancellation
            # set while every worker is busy is noticed within a bounded
            # delay.
            done, _not_done = concurrent.futures.wait(
                set(outstanding),
                timeout=None if options.cancel is None else 0.25,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            broken = False
            for future in done:
                point, budget = outstanding.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    if budget > 0:
                        reporter.retried()
                        emit("retried", point)
                        pending.append((point, budget - 1))
                    else:
                        on_fail(point, exc)
                except Exception as exc:  # simlint: disable=ERR001 (recorded, then raised as the SweepError's cause)
                    on_fail(point, exc)
                else:
                    on_done(point, result)
            if broken:
                # The pool died; everything still in flight is doomed.
                # Requeue survivors without charging their budgets.
                reporter.note("worker pool broke; restarting it")
                emit("note", message="worker pool broke; restarting it")
                for point, budget in outstanding.values():
                    pending.appendleft((point, budget))
                outstanding.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = concurrent.futures.ProcessPoolExecutor(max_workers=options.jobs)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
