"""Whole-program rules DET010 and LOCK010, and the runtime sanitizer
rule IDs (SAN001–SAN005).

These run only under ``repro lint --project``: they need the
:class:`~repro.devtools.simlint.project.modules.ProjectContext` (every
module parsed and cross-linked) rather than one file at a time. The
SAN rules carry no static check at all — simsan emits them while a
macro scenario runs — but registering them here gives them stable IDs,
``--list-rules`` documentation, and the same inline suppressions as
everything else.
"""

from __future__ import annotations

import typing

from repro.devtools.simlint.findings import Finding
from repro.devtools.simlint.registry import ProjectRule, RuntimeRule, register

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.simlint.project.modules import ProjectContext

# The flow analyses import helpers from sibling rule modules
# (rules.determinism, rules.locks); importing them lazily inside each
# check keeps this module importable during package initialisation.


@register
class TransitiveNondeterminismRule(ProjectRule):
    id = "DET010"
    title = "call returns transitive nondeterminism"
    rationale = (
        "a helper that launders time.time()/random through two return "
        "statements defeats the per-module DET rules; its callers feed "
        "irreproducible values into the simulation without any flagged "
        "line in their own file"
    )
    hint = (
        "thread the value from the sim clock/seeded RNG instead, or mark "
        "the source with an inline justification "
        "(`# simlint: disable=DET001 (...)`) so the taint dies there; "
        "`# simlint: assume=deterministic (reason)` on the def overrides "
        "the summary"
    )
    severity = "error"

    def check_project(
        self, project: "ProjectContext"
    ) -> typing.Iterator[Finding]:
        from repro.devtools.simlint.project.taint import taint_analysis

        analysis = taint_analysis(project)
        for call in analysis.tainted_calls:
            yield self.finding(
                call.func.ctx,
                call.node,
                f"{call.callee.name}() returns a value tainted by "
                f"{call.taint.kind}-nondeterminism: {call.taint.describe()}",
            )


@register
class InterproceduralLockLeakRule(ProjectRule):
    id = "LOCK010"
    title = "stripe lock escapes its cross-function release protocol"
    rationale = (
        "lock ownership that crosses a function boundary (the "
        "reconstruction piggyback handoff) is invisible to LOCK001; an "
        "early return added to the releasing helper leaks the lock on "
        "one path and deadlocks the stripe under fault injection"
    )
    hint = (
        "make the releasing helper unconditional (release in "
        "try/finally on every path), or release in the caller before "
        "branching; suppress with a reason only for protocols verified "
        "by a simsan scenario"
    )
    severity = "error"

    def check_project(
        self, project: "ProjectContext"
    ) -> typing.Iterator[Finding]:
        from repro.devtools.simlint.project.lockflow import lockflow_analysis

        analysis = lockflow_analysis(project)
        for leak in analysis.leaks:
            node = analysis.leak_nodes.get(leak.node_id)
            if node is None:  # pragma: no cover - defensive
                continue
            yield self.finding(leak.func.ctx, node, leak.message)


def _runtime_rule(
    rule_id: str, rule_title: str, rule_rationale: str, rule_hint: str
) -> None:
    @register
    class _SanRule(RuntimeRule):
        id = rule_id
        title = rule_title
        rationale = rule_rationale
        hint = rule_hint
        severity = "error"

    _SanRule.__name__ = f"SanRule{rule_id}"


_runtime_rule(
    "SAN001",
    "process re-requests a stripe lock it already holds",
    "the kernel mutex is not reentrant: the second acquire waits on "
    "the first forever — a guaranteed self-deadlock",
    "release before re-acquiring, or widen the critical section",
)
_runtime_rule(
    "SAN002",
    "stripe locks acquired in inconsistent order at runtime",
    "an observed ABBA order over concrete stripes is one unlucky "
    "interleaving away from a deadlock",
    "acquire stripes in ascending order everywhere",
)
_runtime_rule(
    "SAN003",
    "release of a stripe lock nobody holds",
    "a double release corrupts the FIFO waiter queue: some later "
    "process is woken without the lock actually being free",
    "pair every release with exactly one acquire (try/finally)",
)
_runtime_rule(
    "SAN004",
    "lock released by a process that did not acquire it",
    "cross-process release outside a declared closer is an ownership "
    "handoff the static analysis cannot see — either undeclared "
    "protocol or a stripe-key collision",
    "route the handoff through a closer function (one that releases a "
    "parameter-keyed lock) so LOCK010 can track it",
)
_runtime_rule(
    "SAN005",
    "stripe locks still held at end of scenario",
    "a lock held at drain means some request path exited without "
    "releasing — the runtime twin of LOCK010",
    "find the exit path that skips the release; simsan reports the "
    "acquire site",
)
