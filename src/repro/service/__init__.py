"""Simulation-as-a-service: an async job API over the sweep substrate.

The rest of the package turns "a script that runs experiments" into
"an engine that serves them":

- :mod:`repro.service.spec` — untrusted JSON job specs validated into
  :class:`~repro.experiments.runner.ScenarioConfig` points; the
  canonical spec is content-addressed, so identical submissions are
  one job;
- :mod:`repro.service.jobs` — the persistent job store: one atomic
  JSON document per job, states ``queued → running → done`` (or
  ``failed``/``cancelled``), crash recovery on startup;
- :mod:`repro.service.engine` — blocking job execution over
  :func:`~repro.sweep.run_sweep` (cache dedup, sharded worker
  processes, progress events, cancellation). The result cache is the
  only resume state: a killed service reruns its interrupted jobs, and
  every point finished before the kill comes back as a cache hit;
- :mod:`repro.service.server` — the asyncio HTTP server
  (``python -m repro serve``): submit/status/result endpoints plus a
  streaming NDJSON progress feed;
- :mod:`repro.service.client` — the stdlib HTTP client behind
  ``python -m repro job submit/list/status/watch/result/cancel``.
"""

from repro.service.engine import EngineOptions, JobCancelled, execute_job
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobStore,
)
from repro.service.spec import JobSpec, SpecError, parse_spec

__all__ = [
    "CANCELLED",
    "DONE",
    "EngineOptions",
    "FAILED",
    "Job",
    "JobCancelled",
    "JobSpec",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "SpecError",
    "TERMINAL_STATES",
    "execute_job",
    "parse_spec",
]
