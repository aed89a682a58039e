"""Bounded retry with exponential backoff, in simulated time."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How the controller reacts to a transient I/O fault.

    An access is attempted at most ``1 + max_retries`` times; attempt
    ``n`` (0-based) waits ``base_delay_ms * backoff_factor**n`` of
    simulated time before resubmitting, capped at ``max_delay_ms``.
    Media errors are deterministic (the sector is unreadable until
    rewritten), so they are not retried unless ``retry_media`` is set.
    """

    max_retries: int = 3
    base_delay_ms: float = 0.5
    backoff_factor: float = 2.0
    max_delay_ms: float = 50.0
    retry_media: bool = False

    def __post_init__(self):
        # NaN slips through every range check below (it compares false
        # both ways); job specs parsed from JSON can carry NaN and
        # Infinity.
        for name in ("base_delay_ms", "backoff_factor", "max_delay_ms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.base_delay_ms < 0:
            raise ValueError("base delay cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.max_delay_ms < self.base_delay_ms:
            raise ValueError("max delay must be >= base delay")

    def delay_ms(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        return min(
            self.base_delay_ms * self.backoff_factor ** attempt, self.max_delay_ms
        )

    def should_retry(self, error: str, attempt: int) -> bool:
        """Whether to retry an access that failed with ``error``."""
        if attempt >= self.max_retries:
            return False
        if error == "media":
            return self.retry_media
        return True
