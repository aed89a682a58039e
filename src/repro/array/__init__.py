"""The RAID striping driver: user requests → physical disk accesses.

This package is the reproduction of raidSim's Sprite striping driver.
:class:`ArrayController` owns the disks, the parity layout, the fault
state, and the per-stripe locks, and translates each user read/write
into the paper's access sequences:

================================  =====================================
Situation                         Disk accesses
================================  =====================================
fault-free read                   1 read
fault-free write (G > 3)          2 reads + 2 writes (read-modify-write)
fault-free write (G = 3)          1 read + 2 writes (small-stripe opt)
full-stripe aligned write         G writes (large-write optimization)
degraded read of failed unit      G-1 reads (on-the-fly reconstruction)
degraded write, data lost         G-2 reads + 1 parity write (folding)
degraded write, parity lost       1 write
reconstruct-write (user-writes+)  G-2 reads + data & parity writes
redirected read                   1 read of the replacement
================================  =====================================

Dual-syndrome (P+Q) layouts take the same paths with a second check
unit: a fault-free write is 3 reads + 3 writes, and degraded reads and
writes decode the stripe from its live units.

An optional :class:`DataStore` carries real 64-bit contents for every
unit plus parity, so integration tests can fail a disk, reconstruct it,
and verify bit-exact recovery end to end.
"""

from repro.array.addressing import ArrayAddressing
from repro.array.controller import ArrayController, ControllerStats
from repro.array.datastore import DataStore
from repro.array.faults import ArrayFaults, DataLossError, DataLossEvent
from repro.array.locks import StripeLockTable
from repro.array.requests import UserRequest
from repro.array.scrubber import ParityScrubber, ScrubReport
from repro.array.sparing import RepairRecord, SparePool

__all__ = [
    "ArrayAddressing",
    "ArrayController",
    "ArrayFaults",
    "ControllerStats",
    "DataLossError",
    "DataLossEvent",
    "DataStore",
    "ParityScrubber",
    "RepairRecord",
    "ScrubReport",
    "SparePool",
    "StripeLockTable",
    "UserRequest",
]
