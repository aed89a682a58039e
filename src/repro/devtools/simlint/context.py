"""Per-module analysis context shared by every rule.

One :class:`ModuleContext` wraps one parsed source file and
precomputes what rules keep asking for: import aliases (so
``np.random.rand`` resolves to ``numpy.random.rand``), parent links
(so a finding can name its enclosing ``Class.method``), and the
inline-suppression table parsed from comments.

Suppression syntax (reason is optional but encouraged)::

    x = time.time()  # simlint: disable=DET001 (wall-clock feeds a log label only)

    # simlint: disable-file=DET001 (this module is real-time orchestration)

A line-level ``disable`` covers its own line; when the comment stands
alone on its line it covers the next line too, so it can sit above a
long statement.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
import typing

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Z][A-Z0-9_]*(?:\s*,\s*[A-Z][A-Z0-9_]*)*)"
    r"(?:\s*\((?P<reason>[^)]*)\))?"
)

#: Whole-program taint annotation: ``# simlint: assume=deterministic
#: (reason)`` on (or directly above) a ``def`` line forces the
#: function's taint summary clean; ``assume=nondeterministic`` marks it
#: as a source even though its body looks harmless. Used by the
#: interprocedural DET010 analysis (see
#: :mod:`repro.devtools.simlint.project.taint`).
_ASSUME_RE = re.compile(
    r"#\s*simlint:\s*assume\s*=\s*(?P<value>deterministic|nondeterministic)"
    r"(?:\s*\((?P<reason>[^)]*)\))?"
)


class Suppression(typing.NamedTuple):
    rules: typing.FrozenSet[str]
    reason: str


class Assumption(typing.NamedTuple):
    value: str  # "deterministic" | "nondeterministic"
    reason: str


def dotted_parts(node: ast.AST) -> typing.Optional[typing.List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: typing.List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class ModuleContext:
    """One source file, parsed and indexed for rule checks."""

    def __init__(self, path: str, source: str):
        #: Path as reported in findings (posix separators, repo-relative
        #: when the engine was given relative paths).
        self.path = path.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._parents: typing.Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._import_aliases: typing.Dict[str, str] = {}
        self._from_imports: typing.Dict[str, str] = {}
        self._collect_imports()
        self.line_suppressions: typing.Dict[int, Suppression] = {}
        self.file_suppressions: typing.Dict[str, str] = {}
        self.line_assumptions: typing.Dict[int, Assumption] = {}
        self._collect_suppressions()

    # ------------------------------------------------------------------
    # Imports and name resolution
    # ------------------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self._import_aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self._import_aliases[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self._from_imports[bound] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> typing.Optional[str]:
        """Canonical dotted name of a name/attribute chain.

        Aliases introduced by imports are unfolded: with ``import numpy
        as np``, ``np.random.rand`` resolves to ``numpy.random.rand``;
        with ``from datetime import datetime``, ``datetime.now``
        resolves to ``datetime.datetime.now``.
        """
        parts = dotted_parts(node)
        if not parts:
            return None
        head = parts[0]
        if head in self._from_imports:
            parts[0:1] = self._from_imports[head].split(".")
        elif head in self._import_aliases:
            parts[0:1] = self._import_aliases[head].split(".")
        return ".".join(parts)

    # ------------------------------------------------------------------
    # Scopes
    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> typing.Optional[ast.AST]:
        return self._parents.get(node)

    def symbol_for(self, node: ast.AST) -> str:
        """Qualified name of the scope holding ``node`` (``Class.method``)."""
        names: typing.List[str] = []
        current: typing.Optional[ast.AST] = node
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.append(current.name)
            current = self._parents.get(current)
        return ".".join(reversed(names)) or "<module>"

    def snippet(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------
    def _collect_suppressions(self) -> None:
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.source).readline))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover - defensive
            return
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            assume = _ASSUME_RE.search(token.string)
            if assume:
                line = token.start[0]
                entry = Assumption(
                    value=assume.group("value"),
                    reason=(assume.group("reason") or "").strip(),
                )
                self.line_assumptions[line] = entry
                text_before = self.lines[line - 1][: token.start[1]]
                if not text_before.strip():
                    # Standalone comment covers the following line, so it
                    # can sit above the def it annotates.
                    self.line_assumptions.setdefault(line + 1, entry)
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            rules = frozenset(
                rule.strip() for rule in match.group("rules").split(",")
            )
            reason = (match.group("reason") or "").strip()
            if match.group(1) == "disable-file":
                for rule in rules:
                    self.file_suppressions[rule] = reason
                continue
            line = token.start[0]
            self._add_line_suppression(line, rules, reason)
            # A comment alone on its line covers the following line.
            text_before = self.lines[line - 1][: token.start[1]]
            if not text_before.strip():
                self._add_line_suppression(line + 1, rules, reason)

    def _add_line_suppression(
        self, line: int, rules: typing.FrozenSet[str], reason: str
    ) -> None:
        existing = self.line_suppressions.get(line)
        if existing is not None:
            rules = rules | existing.rules
            reason = existing.reason or reason
        self.line_suppressions[line] = Suppression(rules=rules, reason=reason)

    def suppression_for(
        self, rule: str, line: int
    ) -> typing.Optional[str]:
        """The reason string if ``rule`` is suppressed at ``line``, else None."""
        if rule in self.file_suppressions:
            return self.file_suppressions[rule] or "(file-level)"
        entry = self.line_suppressions.get(line)
        if entry is not None and rule in entry.rules:
            return entry.reason or "(no reason given)"
        return None

    def assumption_for(self, line: int) -> typing.Optional[Assumption]:
        """The ``assume=`` annotation covering ``line`` (a def line), if any."""
        return self.line_assumptions.get(line)
