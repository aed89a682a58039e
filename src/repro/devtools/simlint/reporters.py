"""Finding reporters: human text, machine JSON and GitHub annotations."""

from __future__ import annotations

import json
import typing

from repro.devtools.simlint.findings import LintReport

REPORT_VERSION = 2


def format_text(report: LintReport, verbose: bool = False) -> str:
    """The human report: one block per finding plus a summary line."""
    lines: typing.List[str] = []
    for finding in report.active:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule} {finding.severity}: {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    if verbose:
        for finding in report.suppressed:
            lines.append(
                f"{finding.path}:{finding.line}: {finding.rule} suppressed "
                f"inline: {finding.suppress_reason}"
            )
    lines.append(
        f"simlint: {len(report.active)} finding(s) in "
        f"{report.files_checked} file(s) "
        f"({len(report.suppressed)} suppressed inline)"
    )
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """The machine report: stable key order, newline-terminated."""
    document = {
        "version": REPORT_VERSION,
        "findings": [finding.to_dict() for finding in report.active],
        "suppressed": [
            dict(finding.to_dict(), reason=finding.suppress_reason)
            for finding in report.suppressed
        ],
        "summary": {
            "files_checked": report.files_checked,
            "active": len(report.active),
            "suppressed": len(report.suppressed),
            "ok": report.ok,
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def format_github(report: LintReport) -> str:
    """GitHub Actions workflow commands: one problem annotation per
    finding, so findings surface inline on the pull-request diff."""
    commands = {"note": "notice", "warning": "warning", "error": "error"}
    lines = [
        f"::{commands.get(finding.severity, 'error')} "
        f"file={finding.path},line={max(finding.line, 1)},"
        f"col={finding.col + 1},title=simlint {finding.rule}::"
        # Workflow commands are line-oriented: escape message newlines.
        + finding.message.replace("%", "%25").replace("\n", "%0A")
        for finding in report.active
    ]
    lines.append(
        f"simlint: {len(report.active)} finding(s) in "
        f"{report.files_checked} file(s)"
    )
    return "\n".join(lines) + "\n"
