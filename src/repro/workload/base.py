"""Shared workload mechanics: submission, completion, verification.

Both the synthetic generator and the trace replayer funnel requests
through this base class, which owns response recording, the
drained-event protocol, and read verification against expected
contents when the controller carries a data store.
"""

from __future__ import annotations

import typing

from repro.array.controller import ArrayController
from repro.array.datastore import initial_data_pattern
from repro.array.requests import UserRequest
from repro.workload.recorder import ResponseRecorder


class WorkloadBase:
    """Request submission and bookkeeping common to all workloads."""

    def __init__(
        self,
        controller: ArrayController,
        recorder: typing.Optional[ResponseRecorder] = None,
    ):
        self.controller = controller
        self.recorder = recorder if recorder is not None else ResponseRecorder()
        self.submitted = 0
        self.completed = 0
        self.integrity_errors: typing.List[str] = []
        self.verify = controller.datastore is not None
        self._expected: typing.Dict[int, int] = {}
        self._inflight_writes: typing.Dict[int, int] = {}
        self._verification_paused_until = -1.0
        self._stopped = False
        self._generator_done = False
        self._drained = None

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop issuing new requests (in-flight ones still complete)."""
        self._stopped = True

    def drained(self):
        """Event firing once generation ended and all requests completed."""
        self._drained = self.controller.env.event()
        self._maybe_drain()
        return self._drained

    def pause_verification(self) -> None:
        """Suspend read verification for requests submitted before now.

        Call at fault-injection instants: requests in flight across the
        failure may legitimately observe pre-failure state.
        """
        self._verification_paused_until = self.controller.env.now

    def _maybe_drain(self) -> None:
        if (
            self._drained is not None
            and not self._drained.triggered
            and self._generator_done
            and self.completed == self.submitted
        ):
            self._drained.succeed()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _submit(self, logical_unit: int, is_write: bool, num_units: int,
                values: typing.Optional[typing.List[int]] = None) -> None:
        if is_write and self.verify and values is None:
            raise ValueError("verifying workloads must supply write values")
        if is_write and values is not None:
            for i in range(num_units):
                unit = logical_unit + i
                self._inflight_writes[unit] = self._inflight_writes.get(unit, 0) + 1
        request = UserRequest(
            logical_unit=logical_unit,
            is_write=is_write,
            num_units=num_units,
            values=values,
        )
        self.submitted += 1
        self.controller.submit(request).callbacks.append(self._on_complete)

    def _on_complete(self, done) -> None:
        """Record a finished request; runs when its ``done`` event fires."""
        request = done.value
        self.completed += 1
        self.recorder.record(
            complete_ms=request.complete_ms,
            response_ms=request.response_ms,
            is_write=request.is_write,
        )
        if self.verify:
            self._account(request)
        self._maybe_drain()

    # ------------------------------------------------------------------
    # Verification bookkeeping
    # ------------------------------------------------------------------
    def _account(self, request: UserRequest) -> None:
        if request.is_write:
            for i, unit in enumerate(request.units()):
                self._expected[unit] = request.values[i]
                remaining = self._inflight_writes.get(unit, 0) - 1
                if remaining <= 0:
                    self._inflight_writes.pop(unit, None)
                else:
                    self._inflight_writes[unit] = remaining
            return
        if request.submit_ms < self._verification_paused_until:
            return
        for i, unit in enumerate(request.units()):
            if unit in self._inflight_writes:
                continue  # racing write: either value is legitimate
            expected = self._expected.get(unit)
            if expected is None:
                # Never written: the unit must still hold its initial pattern.
                address = self.controller.addressing.logical_unit_address(unit)
                expected = initial_data_pattern(address.disk, address.offset)
            actual = request.read_values[i]
            if actual != expected:
                self.integrity_errors.append(
                    f"unit {unit}: read {actual:#x}, expected {expected:#x} "
                    f"(completed at {request.complete_ms:.3f} ms)"
                )
