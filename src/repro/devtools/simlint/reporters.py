"""Finding reporters: human text and machine JSON."""

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


def format_sarif(report: LintReport) -> str:
    """SARIF 2.1.0, the interchange format code-scanning UIs ingest.

    Active findings only: suppressed findings are accepted by a human
    with a reason, and uploading them would just re-litigate that
    decision in another UI.
    """
    from repro.devtools.simlint.registry import all_rules

    levels = {"note": "note", "warning": "warning", "error": "error"}
    rules_meta = [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.title},
            "fullDescription": {"text": rule.rationale},
            "help": {"text": rule.hint},
            "defaultConfiguration": {
                "level": levels.get(rule.severity, "warning")
            },
        }
        for rule in all_rules()
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": levels.get(finding.severity, "warning"),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    },
                    "logicalLocations": [{"fullyQualifiedName": finding.symbol}],
                }
            ],
        }
        for finding in report.active
    ]
    document = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "rules": rules_meta,
                    }
                },
                "results": results,
            }
        ],
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
