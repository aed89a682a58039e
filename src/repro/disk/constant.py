"""A work-preserving, constant-rate disk for the Muntz & Lui ablation.

The M&L analytic model prices every access — sequential or random — at
one fixed service time (``1/mu``). This drive realizes that assumption
inside the simulator: no seeks, no rotation, no benefit for sequential
access. Running the reconstruction experiments on it reproduces the
M&L *conclusions* (the redirecting algorithms always help), and
switching back to the real :class:`~repro.disk.drive.Disk` flips them,
which is exactly the paper's Section 8.3 argument.
"""

from __future__ import annotations

import typing

from repro.disk.drive import Disk
from repro.disk.specs import DiskSpec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Environment


class ConstantRateDisk(Disk):
    """A disk whose every access takes exactly ``1000 / rate_per_s`` ms."""

    def __init__(
        self,
        env: "Environment",
        spec: DiskSpec,
        disk_id: int = 0,
        scheduler=None,
        policy: str = "fifo",
        rate_per_s: float = 46.0,
    ):
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.service_ms = 1000.0 / rate_per_s
        super().__init__(env, spec, disk_id=disk_id, scheduler=scheduler, policy=policy)

    def _service_time(self, request):
        # Fixed cost regardless of position; the head "moves" so the
        # inherited stats and scheduler interfaces stay meaningful.
        self.head_cylinder = request.cylinder
        return self.service_ms, 0.0, 0.0, self.service_ms
