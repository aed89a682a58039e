"""User-level array requests and their lifecycle records."""

from __future__ import annotations

import typing
from dataclasses import dataclass, field


@dataclass
class UserRequest:
    """One user access to the array's logical data space.

    The unit of addressing is the stripe unit (4 KB in the paper's
    configuration); ``num_units`` > 1 expresses a larger sequential
    access. For writes, ``values`` optionally carries the 64-bit
    content written to each unit when a data store is attached.
    """

    logical_unit: int
    is_write: bool
    num_units: int = 1
    values: typing.Optional[typing.List[int]] = None
    submit_ms: float = 0.0
    complete_ms: float = 0.0
    read_values: typing.List[int] = field(default_factory=list)
    paths: typing.List[str] = field(default_factory=list)  # access paths taken
    #: Logical units this request touched whose data was destroyed by a
    #: multi-failure (served via the accounted ``data-loss`` path).
    lost_units: typing.List[int] = field(default_factory=list)

    def __post_init__(self):
        if self.num_units < 1:
            raise ValueError("requests must cover at least one unit")
        if self.is_write and self.values is not None:
            if len(self.values) != self.num_units:
                raise ValueError(
                    f"{len(self.values)} values for {self.num_units} units"
                )

    @property
    def response_ms(self) -> float:
        return self.complete_ms - self.submit_ms

    @property
    def data_lost(self) -> bool:
        """True if any unit of this request hit destroyed data."""
        return bool(self.lost_units)

    def units(self) -> range:
        return range(self.logical_unit, self.logical_unit + self.num_units)
