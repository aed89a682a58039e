"""Interprocedural nondeterminism taint (rule DET010).

The per-module rules flag *direct* nondeterminism (``time.time()`` on
this line); this analysis follows it across function boundaries. Every
project function gets a summary, computed to a fixed point:

- ``returns``: taints its return value carries — a wall-clock read,
  a global-random draw, directory order, ``id()``, or a call to
  another function whose summary is tainted;
- ``param_flow``: parameter indices that flow into the return value
  (so a caller's taint rides through a clean helper).

Taint *kinds* matter: ``sorted(...)`` pins iteration order, so it
kills ``order`` taint (the canonical DET004 fix) while ``value`` taint
(an actual wall-clock number) passes through.

Seeding respects the human record: a source whose line carries a
``# simlint: disable=`` for its intraprocedural rule (or for
DET010) is *not* a seed — orchestration code that already
justified its wall-clock read does not taint its callers. A
``# simlint: assume=deterministic (reason)`` on a def forces the
summary clean; ``assume=nondeterministic`` forces it tainted.
"""

from __future__ import annotations

import ast
import typing
from dataclasses import dataclass

from repro.devtools.simlint.context import ModuleContext
from repro.devtools.simlint.project.callgraph import CallGraph, build_call_graph
from repro.devtools.simlint.project.modules import FunctionInfo, ProjectContext
from repro.devtools.simlint.rules.determinism import (
    UNSEEDED_RANDOM_ALLOWED,
    WALL_CLOCK_CALLS,
    _is_hash_ordered,
    random_source,
)

#: Calls whose result depends on filesystem enumeration order.
DIRECTORY_ORDER_CALLS = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)

#: Other per-run-unique value sources.
UNIQUE_VALUE_CALLS = frozenset(
    {
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "os.getpid",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
        "secrets.randbelow",
    }
)

_MAX_ITERATIONS = 25
#: Longest reported call chain; prepending stops past this so summaries
#: reach a fixed point even through call cycles.
_MAX_STEPS = 6


@dataclass(frozen=True)
class SourceTaint:
    """A concrete nondeterminism source, with the call chain to it."""

    kind: str                          # "value" | "order"
    steps: typing.Tuple[str, ...]      # outermost call first, source last

    def describe(self) -> str:
        return " -> ".join(self.steps)


@dataclass(frozen=True)
class ParamTaint:
    """Marker: the value derives from the function's own parameter."""

    index: int


TaintSet = typing.Set[object]


@dataclass(frozen=True)
class TaintSummary:
    returns: typing.FrozenSet[SourceTaint]
    param_flow: typing.FrozenSet[int]


EMPTY_SUMMARY = TaintSummary(frozenset(), frozenset())


@dataclass(frozen=True)
class TaintedCall:
    """One call site returning transitive nondeterminism (DET010)."""

    func: FunctionInfo
    node: ast.Call
    callee: FunctionInfo
    taint: SourceTaint


def _first(taints: typing.Iterable[SourceTaint]) -> SourceTaint:
    """Deterministic representative: shortest chain, then lexicographic."""
    return sorted(taints, key=lambda t: (len(t.steps), t.steps))[0]


#: Tooling trees whose code never runs inside a simulation; ``id()`` as
#: an AST-node dict key and wall-clock stopwatches are idiomatic there.
TOOLING_PATH_FRAGMENT = "repro/devtools/"


def source_at(ctx: ModuleContext, call: ast.Call) -> typing.Optional[SourceTaint]:
    """The nondeterminism source ``call`` is, if any — suppression-aware."""
    if TOOLING_PATH_FRAGMENT in ctx.path:
        return None
    line = call.lineno

    def live(*rules: str) -> bool:
        for rule in rules + ("DET010",):
            if ctx.suppression_for(rule, line) is not None:
                return False
        return True

    name = ctx.resolve(call.func)
    where = f"{ctx.path}:{line}"
    if name in WALL_CLOCK_CALLS:
        if live("DET001"):
            return SourceTaint("value", (f"{name}() [wall clock] at {where}",))
        return None
    if name is not None:
        if (
            random_source(name, call) is not None
            and not ctx.path.endswith(UNSEEDED_RANDOM_ALLOWED)
            and live("DET002")
        ):
            return SourceTaint("value", (f"{name}() [unseeded random] at {where}",))
        if name in DIRECTORY_ORDER_CALLS and live("DET004"):
            return SourceTaint("order", (f"{name}() [directory order] at {where}",))
        if name in UNIQUE_VALUE_CALLS and live():
            return SourceTaint("value", (f"{name}() [per-run unique] at {where}",))
    if (
        isinstance(call.func, ast.Name)
        and call.func.id == "id"
        and len(call.args) == 1
        and live()
    ):
        return SourceTaint("value", (f"id() [memory address] at {where}",))
    if (
        isinstance(call.func, ast.Name)
        and call.func.id in ("list", "tuple")
        and len(call.args) == 1
        and not call.keywords
        and _is_hash_ordered(call.args[0])
        and live("DET004")
    ):
        return SourceTaint(
            "order", (f"{call.func.id}() of a hash-ordered collection at {where}",)
        )
    return None


class _FunctionEval:
    """One abstract evaluation of one function body against summaries."""

    def __init__(self, analysis: "TaintAnalysis", func: FunctionInfo):
        self.analysis = analysis
        self.func = func
        self.ctx = func.ctx
        self.types = analysis.graph.types_for(func)
        self.tainted: typing.Dict[str, TaintSet] = {
            param.arg: {ParamTaint(index)}
            for index, param in enumerate(func.params)
        }
        self.returns: TaintSet = set()
        # Expression-taint memo, cleared per statement (the statement is
        # the unit that mutates variable state); without it the repeated
        # sub-expression visits in call handling go exponential.
        self._memo: typing.Dict[int, TaintSet] = {}

    def run(self) -> None:
        # Two passes so a variable assigned late still taints an
        # earlier loop-carried use.
        for _ in range(2):
            self._visit_block(self.func.node.body)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _visit_block(self, stmts: typing.Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        self._memo.clear()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            taint = self._expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, taint)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._expr(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            extra = self._expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.tainted.setdefault(stmt.target.id, set()).update(extra)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self._expr(stmt.value)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._expr(stmt.iter))
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self._visit_block(stmt.body)
            for handler in stmt.handlers:
                self._visit_block(handler.body)
            self._visit_block(stmt.orelse)
            self._visit_block(stmt.finalbody)
            return
        # Generic statement: evaluate child expressions, recurse blocks.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.withitem):
                taint = self._expr(child.context_expr)
                if child.optional_vars is not None:
                    self._bind(child.optional_vars, taint)
        for field_name in ("body", "orelse", "finalbody"):
            block = getattr(stmt, field_name, None)
            if isinstance(block, list):
                self._visit_block(block)

    def _bind(self, target: ast.AST, taint: TaintSet) -> None:
        if isinstance(target, ast.Name):
            self.tainted[target.id] = set(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, taint)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint)
        # Attribute/subscript targets: cross-statement object state is
        # out of scope for this pass.

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _expr(self, expr: typing.Optional[ast.AST]) -> TaintSet:
        if expr is None:
            return set()
        if isinstance(expr, ast.Name):
            return set(self.tainted.get(expr.id, ()))
        if isinstance(expr, ast.Lambda):
            return set()
        cached = self._memo.get(id(expr))
        if cached is not None:
            return set(cached)
        if isinstance(expr, ast.Call):
            result = self._call(expr)
            self._memo[id(expr)] = set(result)
            return result
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            # Comprehension targets live in their own scope: binding
            # them must not rebind the function's variables.
            enclosing = self.tainted
            self.tainted = dict(enclosing)
            try:
                for generator in expr.generators:
                    self._bind(generator.target, self._expr(generator.iter))
                    for condition in generator.ifs:
                        self._expr(condition)
                result: TaintSet = set()
                for field_name in ("elt", "key", "value"):
                    part = getattr(expr, field_name, None)
                    if part is not None:
                        result |= self._expr(part)
                for generator in expr.generators:
                    result |= self._expr(generator.iter)
            finally:
                self.tainted = enclosing
            self._memo[id(expr)] = set(result)
            return result
        result = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                result |= self._expr(child)
            elif isinstance(child, ast.keyword):
                result |= self._expr(child.value)
        self._memo[id(expr)] = set(result)
        return result

    def _call_args_taint(self, call: ast.Call) -> TaintSet:
        result: TaintSet = set()
        for arg in call.args:
            result |= self._expr(arg)
        for keyword in call.keywords:
            result |= self._expr(keyword.value)
        return result

    def _call(self, call: ast.Call) -> TaintSet:
        result: TaintSet = set()
        source = source_at(self.ctx, call)
        if source is not None:
            result.add(source)
        if isinstance(call.func, ast.Name) and call.func.id == "sorted":
            inner = self._call_args_taint(call)
            return result | {
                taint
                for taint in inner
                if not (isinstance(taint, SourceTaint) and taint.kind == "order")
            }
        callee = self.types.resolve_call(call)
        if callee is not None:
            summary = self.analysis.summaries.get(callee.qualname, EMPTY_SUMMARY)
            where = f"{self.ctx.path}:{call.lineno}"
            for taint in summary.returns:
                if len(taint.steps) >= _MAX_STEPS:
                    result.add(taint)
                else:
                    result.add(
                        SourceTaint(
                            taint.kind,
                            (f"{callee.name}() at {where}",) + taint.steps,
                        )
                    )
            arg_taints = self._mapped_arg_taints(call, callee)
            for index in summary.param_flow:
                for taint in arg_taints.get(index, ()):
                    result.add(taint)
            return result
        # Unknown callee: taint flows through arguments and receiver.
        result |= self._call_args_taint(call)
        if isinstance(call.func, ast.Attribute):
            result |= self._expr(call.func.value)
        return result

    def _mapped_arg_taints(
        self, call: ast.Call, callee: FunctionInfo
    ) -> typing.Dict[int, TaintSet]:
        """Taint of each actual argument, keyed by callee parameter index."""
        offset = 0
        if callee.is_method and isinstance(call.func, ast.Attribute):
            offset = 1
        mapped: typing.Dict[int, TaintSet] = {}
        if offset == 1 and isinstance(call.func, ast.Attribute):
            mapped[0] = self._expr(call.func.value)
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            mapped[position + offset] = self._expr(arg)
        for keyword in call.keywords:
            if keyword.arg is None:
                continue
            index = callee.param_index(keyword.arg)
            if index is not None:
                mapped[index] = self._expr(keyword.value)
        return mapped


class TaintAnalysis:
    """Whole-program taint: summaries to fixed point, then findings."""

    def __init__(self, project: ProjectContext):
        self.project = project
        self.graph: CallGraph = build_call_graph(project)
        self.summaries: typing.Dict[str, TaintSummary] = {
            qualname: EMPTY_SUMMARY for qualname in project.functions
        }
        self._fixed_point()
        self.tainted_calls: typing.List[TaintedCall] = []
        self._collect_findings()

    def _summarize(self, func: FunctionInfo) -> TaintSummary:
        assumption = func.ctx.assumption_for(func.node.lineno)
        if assumption is not None:
            if assumption.value == "deterministic":
                return EMPTY_SUMMARY
            reason = assumption.reason or "annotated"
            return TaintSummary(
                frozenset(
                    {
                        SourceTaint(
                            "value",
                            (
                                f"{func.name}() [assume=nondeterministic: "
                                f"{reason}] at {func.ctx.path}:{func.node.lineno}",
                            ),
                        )
                    }
                ),
                frozenset(),
            )
        evaluation = _FunctionEval(self, func)
        evaluation.run()
        # One representative chain per taint kind keeps summaries (and
        # therefore the fixed point) bounded.
        by_kind: typing.Dict[str, typing.List[SourceTaint]] = {}
        for taint in evaluation.returns:
            if isinstance(taint, SourceTaint):
                by_kind.setdefault(taint.kind, []).append(taint)
        returns_sources = frozenset(
            _first(taints) for taints in by_kind.values()
        )
        param_flow = frozenset(
            taint.index
            for taint in evaluation.returns
            if isinstance(taint, ParamTaint)
        )
        return TaintSummary(returns_sources, param_flow)

    def _fixed_point(self) -> None:
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for qualname in sorted(self.project.functions):
                func = self.project.functions[qualname]
                updated = self._summarize(func)
                if updated != self.summaries[qualname]:
                    self.summaries[qualname] = updated
                    changed = True
            if not changed:
                return

    def _collect_findings(self) -> None:
        for qualname in sorted(self.project.functions):
            func = self.project.functions[qualname]
            for site in self.graph.calls_from.get(qualname, ()):
                summary = self.summaries.get(site.callee, EMPTY_SUMMARY)
                if not summary.returns:
                    continue
                callee = self.project.functions[site.callee]
                self.tainted_calls.append(
                    TaintedCall(func, site.node, callee, _first(summary.returns))
                )
        self.tainted_calls.sort(
            key=lambda item: (item.func.ctx.path, item.node.lineno, item.node.col_offset)
        )


def taint_analysis(project: ProjectContext) -> TaintAnalysis:
    """Memoized :class:`TaintAnalysis` for one lint run."""
    return typing.cast(
        TaintAnalysis, project.analysis("taint", lambda: TaintAnalysis(project))
    )
