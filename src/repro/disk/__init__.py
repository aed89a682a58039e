"""Sector-accurate magnetic disk model.

Models the aspects of a disk drive the paper identifies as decisive —
seek time as a function of cylinder distance, rotational position as a
function of wall-clock time, per-track sector layout with skew, and
head switches — so that sequential transfers are much faster than
random ones. This non-work-preserving behaviour is precisely what the
Muntz & Lui single-service-rate model misses and what drives the
paper's surprising reconstruction-algorithm results.

The reference drive is the IBM 0661 Model 370 "Lightning" from
Table 5-1(b); scaled-down variants with fewer cylinders (same track
geometry) keep tests and benchmarks fast.

The package runs on the standard library alone: each access is priced
one request at a time, in plain Python floats.
"""

from repro.disk.specs import IBM_0661, DiskSpec, scaled_spec
from repro.disk.geometry import DiskGeometry, SectorRange
from repro.disk.seek import SeekModel
from repro.disk.drive import Disk, DiskRequest, DiskStats, service_components
from repro.disk.constant import ConstantRateDisk

__all__ = [
    "ConstantRateDisk",
    "Disk",
    "DiskGeometry",
    "DiskRequest",
    "DiskSpec",
    "DiskStats",
    "IBM_0661",
    "SectorRange",
    "SeekModel",
    "scaled_spec",
    "service_components",
]
