"""simsan: the runtime lock-order sanitizer.

The static layer (``repro lint --project``) proves what it can about
stripe-lock protocols from the source; simsan watches the protocols
actually execute. A :class:`~repro.devtools.simsan.monitor.LockMonitor`
hangs off :class:`~repro.array.locks.StripeLockTable` (opt-in, None in
every normal run, observation only — an instrumented scenario is
bit-identical to an uninstrumented one) and records who acquires which
stripe from where, in what order, and who releases it. Violations
(SAN001–SAN005) come out as ordinary simlint findings, honouring the
same inline suppressions: an intended cross-process handoff is
declared by a ``# simlint: disable=SAN004 (reason)`` on its release,
which simsan reads from the source of the package it imported.

Run it with ``python -m repro simsan``.
"""

from repro.devtools.simsan.monitor import LockMonitor

__all__ = ["LockMonitor"]
