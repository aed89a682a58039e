"""The lint engine: walk files, run rules, apply inline suppressions.

File discovery is itself deterministic (paths sorted, duplicates
dropped) — the linter practices what it preaches, so two runs over the
same tree produce byte-identical reports.
"""

from __future__ import annotations

import pathlib
import typing

from repro.devtools.simlint.context import ModuleContext
from repro.devtools.simlint.findings import Finding, LintReport
from repro.devtools.simlint.registry import Rule, get_rules


class LintUsageError(ValueError):
    """Bad invocation: unknown rule id, missing path, unreadable file."""


def iter_python_files(
    paths: typing.Sequence[typing.Union[str, pathlib.Path]],
) -> typing.List[pathlib.Path]:
    """Every ``.py`` file under ``paths``, sorted, without duplicates.

    A directory is filtered to ``*.py``; a file named *explicitly* must
    be Python — silently skipping it would exit 0 without checking
    anything, which reads as a clean bill of health.
    """
    found: typing.Set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_file():
            if path.suffix != ".py":
                raise LintUsageError(f"not a Python file: {path}")
            found.add(path)
        elif path.is_dir():
            found.update(p for p in path.rglob("*.py") if p.is_file())
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    return sorted(found)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: typing.Optional[typing.Sequence[Rule]] = None,
) -> typing.List[Finding]:
    """Lint one source string; the workhorse for tests and fixtures.

    Findings suppressed inline are still returned, flagged with
    ``suppressed=True``, so callers can distinguish "clean" from
    "suppressed".
    """
    ctx = ModuleContext(path, source)
    findings: typing.List[Finding] = []
    for rule in rules if rules is not None else get_rules():
        for finding in rule.check(ctx):
            reason = ctx.suppression_for(finding.rule, finding.line)
            if reason is not None:
                finding.suppressed = True
                finding.suppress_reason = reason
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def lint_paths(
    paths: typing.Sequence[typing.Union[str, pathlib.Path]],
    select: typing.Optional[typing.Sequence[str]] = None,
    ignore: typing.Optional[typing.Sequence[str]] = None,
    project: bool = False,
) -> LintReport:
    """Lint every file under ``paths`` and classify the findings.

    With ``project=True`` a :class:`ProjectContext` is built over the
    whole file set and whole-program rules (DET010/011, LOCK010/011)
    run in addition to the per-module ones; their findings honour the
    same inline suppressions.
    """
    try:
        rules = get_rules(select=select, ignore=ignore, project=project)
    except KeyError as error:
        # str(KeyError) reprs its argument, adding spurious quotes.
        raise LintUsageError(error.args[0]) from error
    module_rules = [rule for rule in rules if rule.scope == "module"]
    project_rules = [rule for rule in rules if rule.scope == "project"]
    files = iter_python_files(paths)
    report = LintReport()

    def classify(finding: Finding) -> None:
        if finding.suppressed:
            report.suppressed.append(finding)
        else:
            report.active.append(finding)

    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            raise LintUsageError(f"cannot read {path}: {error}") from error
        try:
            findings = lint_source(source, path.as_posix(), module_rules)
        except SyntaxError as error:
            raise LintUsageError(f"cannot parse {path}: {error}") from error
        report.files_checked += 1
        for finding in findings:
            classify(finding)
    if project_rules:
        from repro.devtools.simlint.project.modules import ProjectContext

        try:
            project_ctx = ProjectContext(files)
        except SyntaxError as error:  # pragma: no cover - caught above
            raise LintUsageError(f"cannot parse project: {error}") from error
        project_findings: typing.List[Finding] = []
        for rule in project_rules:
            project_findings.extend(rule.check_project(project_ctx))
        project_findings.sort(key=Finding.sort_key)
        for finding in project_findings:
            ctx = project_ctx.contexts.get(finding.path)
            if ctx is not None:
                reason = ctx.suppression_for(finding.rule, finding.line)
                if reason is not None:
                    finding.suppressed = True
                    finding.suppress_reason = reason
            classify(finding)
    report.active.sort(key=Finding.sort_key)
    return report
