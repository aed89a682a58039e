"""Reconstruction status map for the failed disk's units.

Tracks, per stripe-unit offset of the failed disk, whether the unit is
still lost, claimed by a sweep worker, or rebuilt on the replacement.
Units can become rebuilt either by the sweep or by user activity
(reconstruct-writes and piggybacked reads), and the map fires a
completion event when the last unit lands.
"""

from __future__ import annotations

import typing

UNBUILT = 0
CLAIMED = 1
BUILT = 2


class ReconStatus:
    """State machine over the failed disk's ``total_units`` offsets."""

    def __init__(self, env, total_units: int):
        if total_units < 1:
            raise ValueError(f"nothing to reconstruct: {total_units} units")
        self.env = env
        self.total_units = total_units
        self._state = bytearray(total_units)  # UNBUILT
        self.built_count = 0
        self.dirtied_count = 0
        self._cursor = 0  # next offset the sweep should look at
        self.complete_event = env.event()
        self.started_at = env.now
        self.completed_at: typing.Optional[float] = None
        #: Optional :class:`repro.metrics.registry.ProgressSeries`; the
        #: controller attaches one when a metrics registry is in play,
        #: turning rebuilt-unit counts into a progress time series.
        self.progress = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_built(self, offset: int) -> bool:
        return self._state[offset] == BUILT

    def is_claimed(self, offset: int) -> bool:
        return self._state[offset] == CLAIMED

    @property
    def all_built(self) -> bool:
        return self.built_count == self.total_units

    # ------------------------------------------------------------------
    # Sweep claiming
    # ------------------------------------------------------------------
    def claim_next(self) -> typing.Optional[int]:
        """Claim the lowest unbuilt, unclaimed offset; None when exhausted.

        A simple single sweep in offset order — the paper's
        reconstruction is sequential so that replacement-disk writes
        stay cheap.
        """
        while self._cursor < self.total_units:
            offset = self._cursor
            self._cursor += 1
            if self._state[offset] == UNBUILT:
                self._state[offset] = CLAIMED
                return offset
        return None

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def mark_built(self, offset: int) -> None:
        """Record a unit as rebuilt (by the sweep or by user activity)."""
        if self._state[offset] == BUILT:
            return
        self._state[offset] = BUILT
        self.built_count += 1
        if self.progress is not None:
            self.progress.record(self.env.now, self.built_count)
        if self.all_built and not self.complete_event.triggered:
            self.completed_at = self.env.now
            self.complete_event.succeed(self.env.now - self.started_at)

    def mark_dirty(self, offset: int) -> None:
        """Invalidate a rebuilt unit whose write was folded into parity.

        The baseline algorithm sends no user work to the replacement:
        a write to an already-rebuilt lost unit updates the parity unit
        only, leaving the replacement's copy stale. The unit returns to
        the unbuilt pool and the sweep cursor backs up so a live worker
        rebuilds it again. No-op unless the unit is currently built.
        """
        if self._state[offset] != BUILT:
            return
        if self.complete_event.triggered:
            raise RuntimeError("cannot dirty a unit after reconstruction completed")
        self._state[offset] = UNBUILT
        self.built_count -= 1
        self.dirtied_count += 1
        self._cursor = min(self._cursor, offset)

    def reconstruction_time_ms(self) -> float:
        if self.completed_at is None:
            raise RuntimeError("reconstruction has not completed")
        return self.completed_at - self.started_at
