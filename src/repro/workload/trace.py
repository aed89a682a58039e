"""Trace-driven workload replay.

The paper's raidSim could be fed arbitrary reference streams; this
module provides the equivalent: replay a recorded sequence of
timestamped accesses against the array. Traces can be built in code,
loaded from a simple text format, or captured from a synthetic run and
replayed bit-identically later — useful for regression experiments and
for studying specific pathological patterns (sequential floods, hot
spots) that the uniform generator cannot express.

Trace text format, one access per line (``#`` comments allowed)::

    <at_ms> <r|w> <logical_unit> [num_units]
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.array.controller import ArrayController
from repro.sim.rng import RandomStreams
from repro.workload.base import WorkloadBase
from repro.workload.recorder import ResponseRecorder


@dataclass(frozen=True)
class TraceRecord:
    """One access in a trace."""

    at_ms: float
    is_write: bool
    logical_unit: int
    num_units: int = 1

    def __post_init__(self):
        if self.at_ms < 0:
            raise ValueError("trace timestamps must be non-negative")
        if self.logical_unit < 0:
            raise ValueError("trace logical units must be non-negative")
        if self.num_units < 1:
            raise ValueError("accesses must cover at least one unit")

    def to_line(self) -> str:
        op = "w" if self.is_write else "r"
        return f"{self.at_ms:.3f} {op} {self.logical_unit} {self.num_units}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ValueError(f"malformed trace line: {line!r}")
        at_ms, op, unit = float(fields[0]), fields[1], int(fields[2])
        if op not in ("r", "w"):
            raise ValueError(f"trace op must be 'r' or 'w', got {op!r}")
        num_units = int(fields[3]) if len(fields) == 4 else 1
        return cls(at_ms=at_ms, is_write=op == "w", logical_unit=unit,
                   num_units=num_units)


def load_trace(path) -> typing.List[TraceRecord]:
    """Read a trace file, skipping blank lines and ``#`` comments."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            records.append(TraceRecord.from_line(stripped))
    return records


def save_trace(path, records: typing.Iterable[TraceRecord]) -> None:
    """Write a trace file in the module's text format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# at_ms op logical_unit num_units\n")
        for record in records:
            handle.write(record.to_line() + "\n")


class TraceWorkload(WorkloadBase):
    """Replay a trace against the array in timestamp order."""

    def __init__(
        self,
        controller: ArrayController,
        records: typing.Sequence[TraceRecord],
        recorder: typing.Optional[ResponseRecorder] = None,
        seed: int = 1992,
    ):
        super().__init__(controller, recorder=recorder)
        self.records = sorted(records, key=lambda r: r.at_ms)
        for record in self.records:
            end = record.logical_unit + record.num_units
            if end > controller.addressing.num_data_units:
                raise ValueError(
                    f"trace access [{record.logical_unit}, {end}) exceeds the "
                    f"array's {controller.addressing.num_data_units} data units"
                )
        self._value_rng = RandomStreams(seed).stream("trace-values")

    def run(self):
        """Start the replay; returns the replayer process."""
        self._generator_done = False
        return self.controller.env.process(self._replay(), name="trace-workload")

    def _replay(self):
        env = self.controller.env
        start = env.now
        for record in self.records:
            if self._stopped:
                break
            due = start + record.at_ms
            if due > env.now:
                yield env.timeout(due - env.now)
            if self._stopped:  # stop may have landed while we waited
                break
            values = None
            if record.is_write and self.verify:
                values = [
                    self._value_rng.getrandbits(64) for _ in range(record.num_units)
                ]
            self._submit(record.logical_unit, record.is_write, record.num_units,
                         values=values)
        self._generator_done = True
        self._maybe_drain()
