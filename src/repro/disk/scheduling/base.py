"""Scheduler interface and factory."""

from __future__ import annotations

import typing


class Scheduler:
    """Chooses the next disk request to service.

    Implementations keep their own queue structure. ``pop`` receives the
    head's current cylinder and direction of travel (+1 toward higher
    cylinders, -1 toward lower) and must return one queued request.
    """

    def push(self, request) -> None:
        """Enqueue a request (its ``cylinder`` attribute must be set)."""
        raise NotImplementedError

    def pop(self, head_cylinder: int, direction: int):
        """Dequeue and return the request to service next."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Queued requests; truth tests (``while not scheduler``) use it."""
        raise NotImplementedError


def _policies(cylinders: int) -> typing.Dict[str, typing.Callable[[], Scheduler]]:
    """The base policies by name, each building a scheduler for a disk
    of ``cylinders`` cylinders."""
    from repro.disk.scheduling.cvscan import CvscanScheduler
    from repro.disk.scheduling.fifo import FifoScheduler
    from repro.disk.scheduling.sptf import SptfScheduler

    return {
        "fifo": FifoScheduler,
        "sstf": lambda: CvscanScheduler(cylinders, bias_fraction=0.0),
        "sptf": SptfScheduler,
        "look": lambda: CvscanScheduler(cylinders, bias_fraction=1.0),
        "cvscan": lambda: CvscanScheduler(cylinders=cylinders),
    }


def parse_policy(policy: str) -> typing.Tuple[str, bool]:
    """Split a policy name into its base policy and whether
    ``+priority`` wraps it.

    Raises ``ValueError`` for a name :func:`make_scheduler` cannot
    build, so a configuration can be checked before any disk exists.
    """
    if not isinstance(policy, str):
        raise ValueError(f"scheduling policy must be a name, got {policy!r}")
    base_policy, plus, modifier = policy.partition("+")
    names = sorted(_policies(cylinders=0))
    if base_policy not in names or (plus and modifier != "priority"):
        raise ValueError(
            f"unknown scheduling policy {policy!r}; choose from "
            f"{names} optionally suffixed with '+priority'"
        )
    return base_policy, modifier == "priority"


def make_scheduler(policy: str, cylinders: int) -> Scheduler:
    """Build a scheduler by policy name.

    Parameters
    ----------
    policy:
        One of ``"fifo"``, ``"sstf"``, ``"sptf"``, ``"look"``,
        ``"cvscan"``. ``"sstf"`` and ``"look"`` are CVSCAN at its two
        ends, R = 0 and R = 1 (see :mod:`repro.disk.scheduling.cvscan`).
        SPTF prices every queued candidate's full physical service time
        with the drive's arithmetic (see
        :mod:`repro.disk.scheduling.sptf`) and needs a drive bound via
        ``bind_disk`` — :class:`~repro.disk.drive.Disk` does this
        automatically for any scheduler exposing the hook.
    cylinders:
        Disk size, used by CVSCAN (and so by SSTF and LOOK) to scale
        its directional bias.

    Suffixing a policy with ``+priority`` (e.g. ``"cvscan+priority"``)
    wraps it in the two-class user-priority discipline: user requests
    are always served before reconstruction requests.
    """
    base_policy, priority = parse_policy(policy)
    build = _policies(cylinders)[base_policy]
    if priority:
        from repro.disk.scheduling.priority import UserPriorityScheduler

        return UserPriorityScheduler(build(), build())
    return build()
