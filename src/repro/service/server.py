"""``python -m repro serve`` — the asyncio HTTP job service.

A deliberately small HTTP/1.1 server on stdlib asyncio streams (no new
dependencies): one request per connection, JSON in, JSON out, plus one
streaming endpoint. Endpoints:

- ``POST /jobs`` — submit a spec (see :mod:`repro.service.spec`).
  Returns 201 with the job, or 200 with the *existing* job when an
  identical spec was submitted before (dedup by content address). A
  spec whose every point is already in the result cache completes
  inline — the response is already ``done`` and no worker ran.
- ``GET /jobs`` — all jobs, in submission order.
- ``GET /jobs/{id}`` — one job's state and progress.
- ``GET /jobs/{id}/events`` — NDJSON progress stream: replays the
  job's event history, then follows live events (sweep progress,
  per-trial campaign summaries with condensed metrics snapshots) until
  the job reaches a terminal state. Every event carries a per-job
  ``seq`` number and the response carries an ``X-Repro-Stream-Epoch``
  header (one value per server process): a reconnecting watcher sends
  ``?since=N&epoch=E`` to resume after the last event it saw. A
  matching epoch skips the first ``N`` events; a stale epoch (the
  server restarted, so sequence numbers restarted too) replays the new
  process's history from the start.
- ``GET /jobs/{id}/result`` — the result document (409 until done).
- ``POST /jobs/{id}/cancel`` — cancel: a queued job immediately, a
  running job at its next point boundary.
- ``GET /healthz`` — liveness.

Execution: queued jobs feed ``--max-jobs`` concurrent runner tasks;
each drives :func:`repro.service.engine.execute_job` in a thread, and
the engine shards cache misses over ``--workers`` worker processes.
On startup the store is recovered: jobs found ``running`` (a previous
process was killed) are requeued, and the points they finished before
the kill come back from the result cache.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import json
import os
import sys
import threading
import typing
import urllib.parse
import uuid

from repro._version import __version__
from repro.array.faults import DataLossError
from repro.atomicio import atomic_write_json
from repro.service import engine as engine_mod
from repro.service.engine import EngineOptions, JobCancelled
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
from repro.service.spec import SpecError, parse_spec
from repro.sweep import ResultCache

MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_LINES = 100

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _EventLog:
    """In-memory per-job event history + wakeup for streaming readers."""

    def __init__(self) -> None:
        self.history: typing.List[dict] = []
        #: Set by the next append, then replaced by a fresh one: a
        #: reader that took it before catching up misses no event.
        self.changed = asyncio.Event()


class _Request:
    def __init__(self, method: str, path: str, headers: dict, body: bytes,
                 query: typing.Optional[dict] = None):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        #: Last value per query-string parameter (parsed, URL-decoded).
        self.query: typing.Dict[str, str] = query or {}

    def json(self) -> typing.Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise SpecError(f"request body is not valid JSON: {error}") from error


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class Service:
    """Job state, queue, and executors behind the HTTP handlers.

    ``execute`` is a test hook forwarded to the engine (it replaces the
    simulation itself, key dict → result dict); production code leaves
    it None.
    """

    def __init__(
        self,
        data_dir: typing.Union[str, os.PathLike],
        cache_dir: typing.Union[str, os.PathLike],
        workers: int = 1,
        max_jobs: int = 1,
        execute: typing.Optional[typing.Callable[[dict], dict]] = None,
    ):
        self.store = JobStore(data_dir)
        self.cache = ResultCache(cache_dir)
        self.engine_options = EngineOptions(
            cache=self.cache, workers=workers, execute=execute
        )
        self.max_jobs = max_jobs
        #: One value per server process: lets a reconnecting watcher
        #: detect that event sequence numbers restarted with us.
        self.epoch = uuid.uuid4().hex[:12]
        self._jobs: typing.Dict[str, Job] = {}
        self._logs: typing.Dict[str, _EventLog] = {}
        self._cancels: typing.Dict[str, threading.Event] = {}
        self._queue: "asyncio.Queue[str]" = asyncio.Queue()
        self._runners: typing.List[asyncio.Task] = []
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_jobs, thread_name_prefix="repro-job"
        )
        self._loop: typing.Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Recover persisted jobs and start the runner tasks."""
        self._loop = asyncio.get_running_loop()
        for job in self.store.recover():
            self._jobs[job.id] = job
            self._log_for(job.id)
            await self._queue.put(job.id)
        for job in self.store.list():
            self._jobs.setdefault(job.id, job)
        for _ in range(self.max_jobs):
            self._runners.append(asyncio.ensure_future(self._runner()))

    async def close(self) -> None:
        for task in self._runners:
            task.cancel()
        for task in self._runners:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _log_for(self, job_id: str) -> _EventLog:
        log = self._logs.get(job_id)
        if log is None:
            log = self._logs[job_id] = _EventLog()
        return log

    def _emit(self, job_id: str, event: dict) -> None:
        """Append an event and wake streaming readers (loop thread only)."""
        log = self._log_for(job_id)
        event = dict(event)
        event["seq"] = len(log.history) + 1
        log.history.append(event)
        log.changed.set()
        log.changed = asyncio.Event()

    def _emit_threadsafe(self, job_id: str, event: dict) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._emit, job_id, event)

    # ------------------------------------------------------------------
    # Job transitions
    # ------------------------------------------------------------------
    def _set_state(
        self, job: Job, state: str, error: typing.Optional[str] = None
    ) -> None:
        job.state = state
        job.error = error
        self.store.save(job)
        event: typing.Dict[str, typing.Any] = {
            "event": "state",
            "job": job.id,
            "state": state,
        }
        if error is not None:
            event["error"] = error
        if state in (DONE, FAILED, CANCELLED):
            event["progress"] = dict(job.progress)
        self._emit(job.id, event)

    async def submit(self, raw_spec: typing.Any) -> typing.Tuple[Job, bool]:
        """Validate, dedup, persist, and schedule one submission.

        Returns ``(job, created)``. An identical spec maps to the same
        job id: ``done``/``running``/``queued`` jobs are returned as
        they are; a ``failed`` or ``cancelled`` job is requeued.
        """
        spec = parse_spec(raw_spec)
        job_id = spec.job_id()
        job = self._jobs.get(job_id) or self.store.load(job_id)
        if job is not None:
            self._jobs[job_id] = job
            if job.state in (FAILED, CANCELLED):
                job.error = None
                job.cancel_requested = False
                self._cancels.pop(job_id, None)
                self._set_state(job, QUEUED)
                await self._queue.put(job_id)
            return job, False
        job = Job(
            id=job_id,
            kind=spec.kind,
            spec=spec.document,
            seq=self.store.next_seq(),
            progress={"total": len(spec.configs), "completed": 0},
        )
        self._jobs[job_id] = job
        self._log_for(job_id)
        self.store.save(job)
        self._emit(job.id, {"event": "state", "job": job.id, "state": QUEUED})
        if engine_mod.all_cached(spec, self.cache):
            # Every point is already in the content-addressed cache:
            # serve the job inline, without touching the worker queue.
            await self._run_job(job)
        else:
            await self._queue.put(job_id)
        return job, True

    async def cancel(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"no such job: {job_id}")
        if job.terminal:
            raise _HttpError(409, f"job is already {job.state}")
        job.cancel_requested = True
        self._cancels.setdefault(job_id, threading.Event()).set()
        if job.state == QUEUED:
            self._set_state(job, CANCELLED)
        else:
            self.store.save(job)
        return job

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _runner(self) -> None:
        while True:
            job_id = await self._queue.get()
            job = self._jobs.get(job_id)
            if job is None or job.state != QUEUED:
                continue  # cancelled (or superseded) while queued
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        assert self._loop is not None
        cancel = self._cancels.setdefault(job.id, threading.Event())
        if cancel.is_set():
            self._set_state(job, CANCELLED)
            return
        self._set_state(job, RUNNING)

        def progress(event: dict, job_id: str = job.id) -> None:
            self._emit_threadsafe(job_id, event)

        try:
            await self._loop.run_in_executor(
                self._executor,
                engine_mod.execute_job,
                job,
                self.store,
                self.engine_options,
                progress,
                cancel,
            )
        except JobCancelled:
            self._set_state(job, CANCELLED)
        except SpecError as error:
            self._set_state(job, FAILED, error=f"stored spec unusable: {error}")
        except DataLossError as error:
            # A data-loss outcome that escapes the engine is still a
            # result, not a flake: record it verbatim on the job.
            self._set_state(job, FAILED, error=f"data loss: {error}")
        except Exception as error:
            self._set_state(job, FAILED, error=str(error) or repr(error))
        else:
            self._set_state(job, DONE)

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------
    async def handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                await self._route(request, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
        ):
            pass
        except _HttpError as error:
            await self._send_json(
                writer, error.status, {"error": error.message}, best_effort=True
            )
        except DataLossError as error:  # pragma: no cover - engine records it
            await self._send_json(
                writer, 500, {"error": f"internal error: {error}"}, best_effort=True
            )
        except Exception as error:
            await self._send_json(
                writer, 500, {"error": f"internal error: {error}"}, best_effort=True
            )
        finally:
            try:
                writer.close()
            except OSError:  # pragma: no cover - socket already gone
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> typing.Optional[_Request]:
        request_line = await asyncio.wait_for(reader.readline(), timeout=30.0)
        if not request_line.strip():
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError as error:
            raise _HttpError(400, "malformed request line") from error
        headers: typing.Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "too many headers")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as error:
            raise _HttpError(400, "bad Content-Length") from error
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        path, _sep, query_string = target.partition("?")
        query = {
            name: values[-1]
            for name, values in urllib.parse.parse_qs(query_string).items()
        }
        return _Request(method.upper(), path, headers, body, query=query)

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: typing.Any,
        best_effort: bool = False,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            if not best_effort:
                raise

    def _job_payload(self, job: Job) -> dict:
        return job.to_dict()

    async def _route(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/" and method == "GET":
            by_state: typing.Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            await self._send_json(
                writer,
                200,
                {
                    "service": "repro",
                    "version": __version__,
                    "jobs": {state: by_state[state] for state in sorted(by_state)},
                },
            )
            return
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, {"ok": True})
            return
        if path == "/jobs":
            if method == "POST":
                try:
                    job, created = await self.submit(request.json())
                except SpecError as error:
                    raise _HttpError(400, str(error)) from error
                payload = self._job_payload(job)
                payload["created"] = created
                await self._send_json(writer, 201 if created else 200, payload)
                return
            if method == "GET":
                jobs = sorted(
                    self._jobs.values(), key=lambda job: (job.seq, job.id)
                )
                await self._send_json(
                    writer, 200, {"jobs": [self._job_payload(job) for job in jobs]}
                )
                return
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            parts = path.split("/")  # ['', 'jobs', id, tail?]
            job_id = parts[2]
            tail = parts[3] if len(parts) > 3 else None
            if tail is None and method == "GET":
                job = self._jobs.get(job_id)
                if job is None:
                    raise _HttpError(404, f"no such job: {job_id}")
                await self._send_json(writer, 200, self._job_payload(job))
                return
            if tail == "cancel" and method == "POST":
                job = await self.cancel(job_id)
                await self._send_json(writer, 200, self._job_payload(job))
                return
            if tail == "result" and method == "GET":
                job = self._jobs.get(job_id)
                if job is None:
                    raise _HttpError(404, f"no such job: {job_id}")
                if job.state != DONE:
                    raise _HttpError(409, f"job is {job.state}, not done")
                result = self.store.load_result(job_id)
                if result is None:
                    raise _HttpError(500, "result document missing")
                await self._send_json(
                    writer, 200, {"job": self._job_payload(job), "result": result}
                )
                return
            if tail == "events" and method == "GET":
                try:
                    since = int(request.query.get("since", "0"))
                except ValueError as error:
                    raise _HttpError(400, "'since' must be an integer") from error
                if since < 0:
                    raise _HttpError(400, "'since' must be non-negative")
                await self._stream_events(
                    writer, job_id, since=since,
                    epoch=request.query.get("epoch"),
                )
                return
        raise _HttpError(404, f"no route for {method} {request.path}")

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        job_id: str,
        since: int = 0,
        epoch: typing.Optional[str] = None,
    ) -> None:
        job = self._jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"no such job: {job_id}")
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            f"X-Repro-Stream-Epoch: {self.epoch}\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()
        log = self._log_for(job_id)
        if not log.history and job.terminal:
            # Restarted service: history predates this process. Replay
            # the one fact that persists — the terminal state.
            self._emit(
                job.id, {"event": "state", "job": job.id, "state": job.state}
            )
        # A matching epoch resumes after the last event the client saw;
        # any other epoch means the sequence restarted with this
        # process, so its history replays from the start.
        position = min(since, len(log.history)) if epoch == self.epoch else 0
        if job.terminal and position >= len(log.history) and log.history:
            # Nothing left to say and nothing more will come: re-send
            # the terminal event so the stream ends instead of hanging.
            position = len(log.history) - 1
        try:
            while True:
                changed = log.changed
                while position < len(log.history):
                    event = log.history[position]
                    position += 1
                    writer.write(
                        (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                    )
                    await writer.drain()
                    if (
                        event.get("event") == "state"
                        and event.get("state") in TERMINAL_STATES
                        and not any(
                            later.get("event") == "state"
                            for later in log.history[position:]
                        )
                    ):
                        # The job's current terminal event. One that a
                        # later state event follows ended an earlier
                        # attempt of a resubmitted job.
                        return
                await changed.wait()
        except (ConnectionResetError, BrokenPipeError):
            return  # reader went away; nothing to clean up


async def _serve(args: argparse.Namespace) -> int:
    service = Service(
        data_dir=args.data_dir,
        cache_dir=args.cache_dir,
        workers=args.workers,
        max_jobs=args.max_jobs,
    )
    await service.start()
    server = await asyncio.start_server(service.handle_client, args.host, args.port)
    sockets = server.sockets or []
    port = sockets[0].getsockname()[1] if sockets else args.port
    print(
        f"repro serve: listening on http://{args.host}:{port} "
        f"(data={args.data_dir}, cache={args.cache_dir}, "
        f"workers={args.workers}, max-jobs={args.max_jobs})",
        flush=True,
    )
    if args.port_file:
        atomic_write_json(
            args.port_file,
            {"host": args.host, "port": port, "pid": os.getpid()},
        )
    try:
        async with server:
            await server.serve_forever()
    finally:
        await service.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the simulation job service: an HTTP API that accepts "
            "scenario/sweep/campaign specs, dedups them against the "
            "content-addressed result cache, shards misses across worker "
            "processes, and streams progress. The cache is also what a "
            "restarted service resumes killed jobs from."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port; 0 picks an ephemeral port (default: 8765)",
    )
    parser.add_argument(
        "--data-dir",
        default=os.path.join("results", "service"),
        help="job store location (default: results/service)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "sweep result cache, shared with CLI runs and read back when "
            "a killed job resumes (default: $REPRO_SWEEP_CACHE or "
            "results/sweep-cache)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per job (default: 1, in-process)",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=1,
        metavar="N",
        help="jobs executed concurrently (default: 1)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write {host, port, pid} JSON here once listening",
    )
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.port < 0 or args.port > 65535:
        print("repro serve: --port must be 0..65535", file=sys.stderr)
        return 2
    if args.workers < 1 or args.max_jobs < 1:
        print("repro serve: --workers and --max-jobs must be >= 1", file=sys.stderr)
        return 2
    if args.cache_dir is None:
        from repro.sweep import default_cache_dir

        args.cache_dir = str(default_cache_dir())
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli
    sys.exit(main())
