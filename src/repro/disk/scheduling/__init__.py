"""Disk head scheduling policies.

The per-disk server asks its scheduler which queued request to service
next, given the current head cylinder and travel direction. The paper's
arrays use CVSCAN (Geist & Daniel 1987). Its two ends are the ``sstf``
and ``look`` baselines of the scheduler ablation bench, built by
:func:`make_scheduler` as :class:`CvscanScheduler` at R = 0 and R = 1;
FIFO, SPTF and the ``+priority`` wrapper are the other policies.
"""

from repro.disk.scheduling.base import Scheduler, make_scheduler
from repro.disk.scheduling.fifo import FifoScheduler
from repro.disk.scheduling.cvscan import CvscanScheduler

__all__ = [
    "CvscanScheduler",
    "FifoScheduler",
    "Scheduler",
    "make_scheduler",
]
