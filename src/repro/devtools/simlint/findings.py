"""The unit of lint output: one finding at one source location."""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

#: Severities in increasing order of importance.
SEVERITIES = ("note", "warning", "error")


@dataclass
class Finding:
    """One rule violation at one location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"
    symbol: str = "<module>"
    snippet: str = ""
    hint: str = ""
    #: Set by the engine when an inline suppression covers the finding.
    suppressed: bool = False
    #: The inline suppression's stated reason, if any.
    suppress_reason: str = ""

    def sort_key(self) -> typing.Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "symbol": self.symbol,
            "snippet": self.snippet,
            "hint": self.hint,
        }


@dataclass
class LintReport:
    """Everything one lint run produced, before and after filtering.

    ``active`` findings are the ones that fail the build; suppressed
    findings are kept for reporting (``--format json`` emits them with
    their reasons) but do not affect the exit code.
    """

    active: typing.List[Finding] = field(default_factory=list)
    suppressed: typing.List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.active
