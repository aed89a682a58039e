"""First-class jobs and their persistent store.

One job is one submitted spec: content-addressed id, lifecycle state
(``queued → running → done | failed | cancelled``), progress counters,
and — once finished — a result document. Each job persists as a single
JSON file written atomically (:mod:`repro.atomicio`), so a killed
service never leaves a torn job record, and a restarted service
recovers exactly the jobs that were in flight.

The store is a directory::

    <data_dir>/jobs/<id>.json         job record
    <data_dir>/jobs/<id>.result.json  result document (terminal jobs)

A job keeps no resume state of its own: the points it finished before
a kill are in the sweep result cache.

Submission order is a persisted sequence number, not a wall-clock
timestamp, so recovery replays the queue in the original order without
reading the host clock.
"""

from __future__ import annotations

import pathlib
import typing
from dataclasses import asdict, dataclass, field

from repro.atomicio import atomic_write_json, read_json

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

JOB_FORMAT_VERSION = 1


@dataclass
class Job:
    """One submitted spec and everything known about its execution."""

    id: str
    kind: str
    spec: dict
    state: str = QUEUED
    seq: int = 0
    error: typing.Optional[str] = None
    #: Running counters: total and completed points.
    progress: typing.Dict[str, typing.Any] = field(default_factory=dict)
    #: True once a cancel was requested (the state flips to
    #: ``cancelled`` at the next point boundary).
    cancel_requested: bool = False
    #: How many times this job resumed after a service restart.
    resumes: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        document = asdict(self)
        document["format"] = JOB_FORMAT_VERSION
        return document

    @classmethod
    def from_dict(cls, document: typing.Mapping) -> "Job":
        return cls(
            id=document["id"],
            kind=document["kind"],
            spec=dict(document["spec"]),
            state=document.get("state", QUEUED),
            seq=int(document.get("seq", 0)),
            error=document.get("error"),
            progress=dict(document.get("progress") or {}),
            cancel_requested=bool(document.get("cancel_requested", False)),
            resumes=int(document.get("resumes", 0)),
        )


class JobStore:
    """Directory-backed job persistence with atomic writes."""

    def __init__(self, directory: typing.Union[str, pathlib.Path]):
        self.directory = pathlib.Path(directory)
        self.jobs_dir = self.directory / "jobs"

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def job_path(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / f"{job_id}.json"

    def result_path(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / f"{job_id}.result.json"

    # ------------------------------------------------------------------
    # Job records
    # ------------------------------------------------------------------
    def load(self, job_id: str) -> typing.Optional[Job]:
        document = read_json(self.job_path(job_id))
        if not isinstance(document, dict):
            return None
        if document.get("format") != JOB_FORMAT_VERSION:
            return None
        try:
            return Job.from_dict(document)
        except (KeyError, TypeError, ValueError):
            return None

    def save(self, job: Job) -> None:
        atomic_write_json(self.job_path(job.id), job.to_dict())

    def list(self) -> typing.List[Job]:
        """Every stored job, in submission order."""
        jobs = []
        if self.jobs_dir.is_dir():
            for path in sorted(self.jobs_dir.glob("*.json")):
                if path.name.endswith(".result.json"):
                    continue
                document = read_json(path)
                if (
                    isinstance(document, dict)
                    and document.get("format") == JOB_FORMAT_VERSION
                ):
                    try:
                        jobs.append(Job.from_dict(document))
                    except (KeyError, TypeError, ValueError):
                        continue
        jobs.sort(key=lambda job: (job.seq, job.id))
        return jobs

    def next_seq(self) -> int:
        jobs = self.list()
        return (max(job.seq for job in jobs) + 1) if jobs else 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def save_result(self, job_id: str, document: dict) -> None:
        atomic_write_json(self.result_path(job_id), document)

    def load_result(self, job_id: str) -> typing.Optional[dict]:
        document = read_json(self.result_path(job_id))
        return document if isinstance(document, dict) else None

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> typing.List[Job]:
        """Requeue interrupted jobs; return everything runnable.

        A job found in ``running`` state was interrupted by a kill: it
        goes back to ``queued`` (the result cache keeps the points it
        finished). The returned list is every queued job in submission
        order, ready to enqueue.
        """
        runnable = []
        for job in self.list():
            if job.state == RUNNING:
                job.state = QUEUED
                job.resumes += 1
                self.save(job)
            if job.state == QUEUED:
                runnable.append(job)
        return runnable
