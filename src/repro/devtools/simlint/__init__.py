"""simlint — determinism & lock-discipline static analysis.

An AST-based, plugin-rule linter specialized to this codebase. The
paper's figures are only reproducible because every run of a
``ScenarioConfig`` replays the same event order, RNG stream, and lock
schedule; simlint enforces the coding invariants that property rests
on. Run it as ``python -m repro lint``; CI runs it over ``src/repro``
in whole-program mode and fails on any finding. An inline
``# simlint: disable=RULE (reason)`` comment is the only way to accept
one.

Public surface:

- :func:`lint_paths` / :func:`lint_source` — run the analysis
  (``lint_paths(..., project=True)`` adds the whole-program rules)
- :class:`Finding`, :class:`LintReport` — results
- :class:`Rule`, :class:`ProjectRule`, :class:`RuntimeRule`,
  :func:`register`, :func:`all_rules` — the plugin API
- :mod:`~repro.devtools.simlint.project` — the cross-module analyses
  (module graph, call graph, taint, lock flow)
"""

from repro.devtools.simlint.context import ModuleContext
from repro.devtools.simlint.engine import (
    LintUsageError,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.devtools.simlint.findings import Finding, LintReport
from repro.devtools.simlint.registry import (
    ProjectRule,
    Rule,
    RuntimeRule,
    all_rules,
    get_rules,
    register,
)
from repro.devtools.simlint.reporters import (
    format_github,
    format_json,
    format_sarif,
    format_text,
)

__all__ = [
    "Finding",
    "LintReport",
    "LintUsageError",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "RuntimeRule",
    "all_rules",
    "format_github",
    "format_json",
    "format_sarif",
    "format_text",
    "get_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register",
]
