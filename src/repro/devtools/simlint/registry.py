"""Rule base class and the global rule registry.

Rules self-register at import time via the :func:`register` decorator;
:mod:`repro.devtools.simlint.rules` imports every rule module, so
``all_rules()`` is complete as soon as the package is imported. Rule
IDs are stable public API: suppressions and CI logs refer to them, so
an ID is never renamed or reused.
"""

from __future__ import annotations

import ast
import typing

from repro.devtools.simlint.context import ModuleContext
from repro.devtools.simlint.findings import SEVERITIES, Finding


class Rule:
    """One invariant, checked over one module at a time.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings via :meth:`finding` so location, symbol, and
    snippet are filled in uniformly.
    """

    #: Stable identifier (e.g. ``DET001``). Never renamed.
    id: str = ""
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: Why the invariant exists, shown by ``--list-rules``.
    rationale: str = ""
    #: How to fix a finding (the autofix hint).
    hint: str = ""
    severity: str = "error"
    #: "module" rules see one file; "project" rules see the whole tree
    #: (run only under ``--project``); "runtime" rules are emitted by
    #: the simsan sanitizer, never by the engine — they are registered
    #: so ``--list-rules`` documents them and suppressions can target
    #: them.
    scope: str = "module"

    def check(self, ctx: ModuleContext) -> typing.Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=self.severity,
            symbol=ctx.symbol_for(node),
            snippet=ctx.snippet(node),
            hint=self.hint,
        )


class ProjectRule(Rule):
    """A whole-program rule: sees every module at once.

    Implements :meth:`check_project` against a
    :class:`~repro.devtools.simlint.project.modules.ProjectContext`;
    :meth:`finding` still anchors each finding in one module's
    :class:`ModuleContext`, so suppressions work unchanged.
    """

    scope = "project"

    def check(self, ctx: ModuleContext) -> typing.Iterator[Finding]:
        raise NotImplementedError(
            f"{self.id} is a project-scope rule; use check_project()"
        )

    def check_project(self, project: typing.Any) -> typing.Iterator[Finding]:
        raise NotImplementedError


class RuntimeRule(Rule):
    """A sanitizer rule: findings come from simsan at runtime.

    The engine never runs these; registration gives them stable IDs,
    ``--list-rules`` documentation, and suppression support.
    """

    scope = "runtime"

    def check(self, ctx: ModuleContext) -> typing.Iterator[Finding]:
        return iter(())


_REGISTRY: typing.Dict[str, Rule] = {}


def register(cls: typing.Type[Rule]) -> typing.Type[Rule]:
    """Class decorator adding one rule instance to the registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"rule {cls.id} has unknown severity {cls.severity!r}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> typing.List[Rule]:
    """Every registered rule, sorted by ID."""
    import repro.devtools.simlint.rules  # noqa: F401  (registers on import)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rules(
    select: typing.Optional[typing.Iterable[str]] = None,
    ignore: typing.Optional[typing.Iterable[str]] = None,
    project: bool = False,
) -> typing.List[Rule]:
    """The enabled subset: ``select`` narrows, then ``ignore`` removes.

    Module rules always run; project rules only under ``project=True``.
    Selecting a rule the current mode cannot run is a usage error with
    a pointed message rather than a silently-empty run.
    """
    rules = all_rules()
    by_id = {rule.id: rule for rule in rules}
    for requested in list(select or []) + list(ignore or []):
        if requested not in by_id:
            raise KeyError(f"unknown rule id {requested!r}")
    if select:
        for requested in select:
            scope = by_id[requested].scope
            if scope == "runtime":
                raise KeyError(
                    f"rule {requested!r} is a runtime sanitizer rule; it is "
                    "emitted by `repro simsan`, not by the lint engine"
                )
            if scope == "project" and not project:
                raise KeyError(
                    f"rule {requested!r} is a whole-program rule; "
                    "run with --project to enable it"
                )
    scopes = {"module", "project"} if project else {"module"}
    rules = [rule for rule in rules if rule.scope in scopes]
    if select:
        wanted = set(select)
        rules = [rule for rule in rules if rule.id in wanted]
    if ignore:
        dropped = set(ignore)
        rules = [rule for rule in rules if rule.id not in dropped]
    return rules
