"""The lock monitor: runtime observation of stripe-lock protocol.

Owner identity is the *generator frame* that called
``StripeLockTable.acquire``/``release``. The simulation kernel has no
current-process notion, but every lock operation in this codebase
happens inside a generator process whose frame object is stable for
the generator's whole life — so the frame is exactly the process, with
no kernel changes and no cooperation from the instrumented code.

The monitor is wired *before* the lock table mutates (see
``locks.py``), sees grants both immediate (``granted=True``) and by
FIFO handoff (the head waiter passed to ``on_release``), and never
touches lock state itself: with the monitor attached the simulation
must remain event-for-event identical, which the integration tests
assert against golden traces.
"""

from __future__ import annotations

import os
import sys
import typing
from dataclasses import dataclass

from repro.devtools.simlint.findings import Finding

#: Filenames whose frames are skipped when attributing a lock call.
_SKIP_SUFFIXES = ("/locks.py", "/monitor.py")


class Site(typing.NamedTuple):
    """Where a lock call happened, in simlint finding coordinates."""

    path: str
    line: int
    function: str

    def describe(self) -> str:
        return f"{self.function} ({self.path}:{self.line})"


@dataclass
class Hold:
    stripe: int
    site: Site
    owner: typing.Any  # the acquiring generator's frame object


@dataclass(frozen=True)
class Violation:
    rule: str
    site: Site
    message: str


def _normalize(filename: str) -> str:
    path = filename.replace("\\", "/")
    try:
        relative = os.path.relpath(filename, os.getcwd()).replace("\\", "/")
    except ValueError:  # pragma: no cover - different drive on Windows
        return path
    return path if relative.startswith("..") else relative


class LockMonitor:
    """Observes one scenario's stripe-lock traffic; judges it at the end."""

    def __init__(self, expect_drained: bool = True):
        #: Whether the scenario is expected to end with no locks held
        #: (recon/degraded drain; a campaign cut off mid-mission is not).
        self.expect_drained = expect_drained
        self.acquires = 0
        self.releases = 0
        #: id(event) -> (event, stripe, site, owner); the event object
        #: is pinned so ids cannot be reused while pending.
        self._pending: typing.Dict[int, typing.Tuple] = {}
        self._holders: typing.Dict[int, Hold] = {}
        #: (held_stripe, then_stripe) -> example (held_site, new_site).
        self._stripe_pairs: typing.Dict[
            typing.Tuple[int, int], typing.Tuple[Site, Site]
        ] = {}
        self.violations: typing.List[Violation] = []
        self._path_cache: typing.Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def _caller_site(self) -> typing.Tuple[Site, typing.Any]:
        frame = sys._getframe(2)
        while frame is not None:
            filename = frame.f_code.co_filename
            normalized = self._path_cache.get(filename)
            if normalized is None:
                normalized = _normalize(filename)
                self._path_cache[filename] = normalized
            if not normalized.endswith(_SKIP_SUFFIXES):
                return (
                    Site(normalized, frame.f_lineno, frame.f_code.co_name),
                    frame,
                )
            frame = frame.f_back
        raise RuntimeError("lock call with no attributable frame")

    # ------------------------------------------------------------------
    # Hooks (called by StripeLockTable)
    # ------------------------------------------------------------------
    def on_acquire(self, stripe: int, event, granted: bool) -> None:
        site, frame = self._caller_site()
        self.acquires += 1
        holder = self._holders.get(stripe)
        if holder is not None and holder.owner is frame:
            self.violations.append(
                Violation(
                    "SAN001",
                    site,
                    f"stripe {stripe} re-requested by the process that "
                    f"already holds it (acquired at {holder.site.describe()}) "
                    "— the FIFO mutex is not reentrant, this waits forever",
                )
            )
        self._pending[id(event)] = (event, stripe, site, frame)
        if granted:
            self._grant(event)

    def on_release(self, stripe: int, next_event) -> None:
        site, frame = self._caller_site()
        self.releases += 1
        hold = self._holders.pop(stripe, None)
        if hold is None:
            self.violations.append(
                Violation(
                    "SAN003",
                    site,
                    f"stripe {stripe} released but no process holds it — "
                    "double release or release of a never-acquired stripe",
                )
            )
        elif hold.owner is not frame:
            self.violations.append(
                Violation(
                    "SAN004",
                    site,
                    f"stripe {stripe} released by a different process than "
                    f"acquired it (acquired at {hold.site.describe()}) — an "
                    "ownership handoff that must be declared at the release "
                    "site",
                )
            )
        if next_event is not None:
            self._grant(next_event)

    # ------------------------------------------------------------------
    def _grant(self, event) -> None:
        entry = self._pending.pop(id(event), None)
        if entry is None:  # pragma: no cover - defensive
            return
        _, stripe, site, frame = entry
        for other in self._holders.values():
            if other.owner is frame and other.stripe != stripe:
                self._record_edge(other, stripe, site)
        self._holders[stripe] = Hold(stripe, site, frame)

    def _record_edge(self, held: Hold, stripe: int, site: Site) -> None:
        pair = (held.stripe, stripe)
        if pair in self._stripe_pairs:
            return
        self._stripe_pairs[pair] = (held.site, site)
        reverse = self._stripe_pairs.get((stripe, held.stripe))
        if reverse is not None:
            self.violations.append(
                Violation(
                    "SAN002",
                    site,
                    f"stripes {held.stripe} and {stripe} acquired in both "
                    f"orders: here {held.stripe} is held "
                    f"({held.site.describe()}) while taking {stripe}; "
                    f"earlier {stripe} was held ({reverse[0].describe()}) "
                    f"while taking {held.stripe} at {reverse[1].describe()} "
                    "— one unlucky interleaving deadlocks both",
                )
            )

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """End-of-scenario checks; call once after the run completes."""
        if self.expect_drained:
            for stripe in sorted(self._holders):
                hold = self._holders[stripe]
                self.violations.append(
                    Violation(
                        "SAN005",
                        hold.site,
                        f"stripe {stripe} still held at end of scenario "
                        "(acquired here) — some exit path skipped the "
                        "release",
                    )
                )

    # ------------------------------------------------------------------
    # Reporting (simlint machinery)
    # ------------------------------------------------------------------
    def findings(self) -> typing.List[Finding]:
        """Violations as simlint findings, inline suppressions honoured."""
        from repro.devtools.simlint.context import ModuleContext
        from repro.devtools.simlint.registry import all_rules

        rules = {rule.id: rule for rule in all_rules()}
        contexts: typing.Dict[str, typing.Optional[ModuleContext]] = {}

        def context_for(path: str) -> typing.Optional[ModuleContext]:
            if path not in contexts:
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        contexts[path] = ModuleContext(path, handle.read())
                except (OSError, SyntaxError, UnicodeDecodeError):
                    contexts[path] = None
            return contexts[path]

        results = []
        for violation in self.violations:
            rule = rules.get(violation.rule)
            ctx = context_for(violation.site.path)
            line = violation.site.line
            snippet = ""
            if ctx is not None and 1 <= line <= len(ctx.lines):
                snippet = ctx.lines[line - 1].strip()
            finding = Finding(
                rule=violation.rule,
                path=violation.site.path,
                line=line,
                col=0,
                message=violation.message,
                severity=rule.severity if rule is not None else "error",
                symbol=violation.site.function,
                snippet=snippet,
                hint=rule.hint if rule is not None else "",
            )
            if ctx is not None:
                reason = ctx.suppression_for(violation.rule, line)
                if reason is not None:
                    finding.suppressed = True
                    finding.suppress_reason = reason
            results.append(finding)
        results.sort(key=Finding.sort_key)
        return results
