"""Blocking job execution: the engine the server drives from a thread.

:func:`execute_job` turns one persisted :class:`~repro.service.jobs.Job`
into a result document. Every job kind is one
:func:`~repro.sweep.run_sweep` over the job's points — content-addressed
cache dedup first, then sharding of the misses across worker processes
— so the service inherits exactly the execution semantics of the CLI,
including the guarantee that a warm resubmission touches no worker
process at all.

The result cache is the only resume state. ``run_sweep`` writes each
point's result to the cache before it announces it, so when a killed
service reruns a job, every point finished before the kill comes back
as a cache hit and only the rest are simulated. A campaign's rows are
aggregated from the :func:`~repro.experiments.campaign.trial_summary`
of every trial through the same
:func:`~repro.experiments.campaign.rows_from_summaries` the CLI uses, so
interrupted and uninterrupted campaigns cannot diverge.

Per-point reports come from
:func:`repro.metrics.report.document_report`, the same function behind
``repro report --json``.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.experiments.campaign import rows_from_summaries, trial_summary
from repro.metrics.report import document_report
from repro.service.jobs import Job, JobStore
from repro.service.spec import JobSpec, spec_from_normalized
from repro.sweep import (
    ResultCache,
    SweepCancelled,
    SweepEvent,
    SweepOptions,
    result_from_dict,
    result_to_dict,
    run_sweep,
)

ProgressFn = typing.Callable[[dict], None]


class JobCancelled(Exception):
    """The job's cancel token fired; the job ends in state ``cancelled``."""


@dataclass
class EngineOptions:
    """How the engine executes jobs (shared by every job of a service)."""

    cache: typing.Optional[ResultCache] = None
    #: Worker processes per job; 1 runs points in the engine thread.
    workers: int = 1
    #: Test hook: replaces the simulation (key dict -> result dict),
    #: forwarded to :func:`run_sweep`'s ``execute``.
    execute: typing.Optional[typing.Callable[[dict], dict]] = None


def condense_metrics(
    metrics: typing.Optional[typing.Mapping],
) -> typing.Optional[dict]:
    """The streamable slice of a MetricsRegistry snapshot.

    Progress events ride an NDJSON stream; full per-disk rows and
    progress series would bloat every line, so events carry counters
    and the per-class latency quantiles only. The full snapshot stays
    on the result document.
    """
    if not metrics:
        return None
    latency = metrics.get("latency_ms") or {}
    return {
        "window_ms": metrics.get("window_ms"),
        "counters": dict(metrics.get("counters") or {}),
        "latency_ms": {
            klass: {
                name: entry[name]
                for name in ("count", "mean", "p50", "p90", "p99")
                if name in entry
            }
            for klass, entry in sorted(latency.items())
        },
    }


def all_cached(spec: JobSpec, cache: ResultCache) -> bool:
    """Would this job be served entirely from cache, with no workers?"""
    return all(cache.get_dict(config) is not None for config in spec.configs)


def _event_line(event: SweepEvent, campaign: bool) -> dict:
    """The progress-stream line for one sweep event.

    A campaign announces each finished trial with its data-loss outcome
    and condensed metrics; every other event is a ``point`` line.
    """
    if campaign and event.result is not None:
        result = result_from_dict(event.result)
        return {
            "event": "trial",
            "kind": event.kind,
            "index": event.index,
            "completed": event.completed,
            "total": event.total,
            "data_lost": bool(result.fault_summary["data_lost"]),
            "metrics": condense_metrics(result.metrics),
        }
    return {
        "event": "point",
        "kind": event.kind,
        "index": event.index,
        "completed": event.completed,
        "total": event.total,
        "message": event.message,
    }


def _campaign_document(spec: JobSpec, results: typing.Sequence) -> dict:
    """Campaign rows and per-trial summaries, in grid order."""
    assert spec.campaign is not None
    summaries = [trial_summary(result) for result in results]
    return {
        "rows": rows_from_summaries(
            summaries,
            spec.campaign["trials"],
            spec.campaign["mission_hours"],
        ),
        "trials": [
            {"index": index, "config": result.config.to_key(), "summary": summary}
            for index, (result, summary) in enumerate(zip(results, summaries))
        ],
    }


def execute_job(
    job: Job,
    store: JobStore,
    options: EngineOptions,
    progress: typing.Optional[ProgressFn] = None,
    cancel: typing.Optional[typing.Any] = None,
) -> dict:
    """Run one job to completion; persist and return its result document.

    Blocking — the server calls this from an executor thread. Raises
    :class:`JobCancelled` if the cancel token fires, and lets execution
    errors (:class:`~repro.sweep.SweepError` and friends) propagate for
    the caller to record on the job.
    """
    progress = progress or (lambda event: None)
    spec = spec_from_normalized(job.spec)
    campaign = spec.kind == "campaign"
    job.progress.setdefault("total", len(spec.configs))

    def on_event(event: SweepEvent) -> None:
        job.progress.update(completed=event.completed, total=event.total)
        progress(_event_line(event, campaign))

    try:
        outcome = run_sweep(
            spec.configs,
            SweepOptions(
                jobs=options.workers,
                cache=options.cache,
                on_event=on_event,
                cancel=cancel,
            ),
            execute=options.execute,
        )
    except SweepCancelled as error:
        raise JobCancelled(str(error)) from error
    summary = outcome.summary
    document: typing.Dict[str, typing.Any] = {
        "kind": spec.kind,
        "sweep": {
            "total": summary.total,
            "executed": summary.executed,
            "cache_hits": summary.cache_hits,
            "failures": summary.failures,
            "retries": summary.retries,
        },
    }
    if campaign:
        document.update(_campaign_document(spec, outcome.results))
    else:
        document["points"] = [
            {
                "config": result.config.to_key(),
                "report": document_report(result_to_dict(result)),
            }
            for result in outcome.results
        ]
    store.save_result(job.id, document)
    return document
