"""Price a batch of candidate requests from one drive state.

No scenario calls :func:`service_times`. The end-to-end benchmark's
attribution counts its calls as ``disk.batch_pricings``; the module
goes when the benchmark drops that count.
"""

from __future__ import annotations

import typing

from repro.disk.drive import service_components
from repro.disk.geometry import DiskGeometry
from repro.disk.seek import SeekModel
from repro.disk.specs import DiskSpec


def service_times(
    spec: DiskSpec, head_cylinder: int, start_ms: float, requests: typing.Sequence
) -> typing.List[float]:
    """Each request's service time (ms) if it were serviced next, from
    the same head cylinder and clock; a request needs ``start_sector``
    and ``sector_count``."""
    split = DiskGeometry(spec).split_by_track
    seek_time = SeekModel.for_spec(spec).seek_time
    return [
        service_components(
            split(request.start_sector, request.sector_count),
            head_cylinder,
            1,
            start_ms,
            seek_time,
            spec.sector_time_ms,
            spec.sectors_per_track,
            spec.head_switch_ms,
        )[0]
        for request in requests
    ]
