"""Interprocedural stripe-lock discipline (LOCK010).

LOCK001 is local: *this* acquire must sit under *this* try/finally.
What it cannot see is ownership that crosses a function boundary — the
reconstruction piggyback path acquires a stripe lock in
``ArrayController._read_unit`` and hands the release to a spawned
``_piggyback_write`` process. A refactor that adds an early ``return``
to the releasing helper leaks the lock on exactly one path, deadlocks
the stripe under fault injection, and no per-module rule can tell.

The analysis walks every project function with an abstract "held
locks" state over the statement tree (both branches of an ``if``,
``finally`` applied to every exit, loop bodies twice so a lock carried
into the next iteration is seen). Locks are keyed by ``(base, argument
text)`` — ``self.locks.acquire(stripe)`` holds ``(locks, stripe)``.
Per-function summaries feed call sites:

- **closers** release a parameter-keyed lock they did not acquire
  (``_piggyback_write`` releasing ``stripe``). A closer is ``always``
  (every exit releases) or ``sometimes`` (an early return skips it —
  the LOCK010 bug class).
- **openers** acquire a parameter-keyed lock and hold it on every
  exit; the obligation transfers to the caller.

A held lock is discharged by a matching release, an ``always``-closer
call, or an ``always``-closer handed to ``env.process(...)``
(spawn-handoff — matched at function level because the
``handoff``-flag / conditional-release correlation is invisible to
branch-insensitive flow). Anything still held at a normal exit is a
LOCK010 leak; a call that reaches a ``sometimes``-closer while holding
the matching lock is a LOCK010 at the call site. The runtime sanitizer
(simsan) reads the closer spans: a cross-process release inside one is
declared protocol.
"""

from __future__ import annotations

import ast
import typing
from dataclasses import dataclass, field

from repro.devtools.simlint.project.callgraph import (
    CallGraph,
    CallSite,
    build_call_graph,
)
from repro.devtools.simlint.project.modules import FunctionInfo, ProjectContext
from repro.devtools.simlint.rules.locks import _lock_chain

_MAX_ROUNDS = 4
_MAX_STATES = 48

ALWAYS = "always"
SOMETIMES = "sometimes"


class LockSite(typing.NamedTuple):
    """One static acquire site, named in leak messages."""

    path: str
    line: int
    col: int
    label: str  # e.g. "locks.acquire(stripe)"

    def describe(self) -> str:
        return f"{self.label} at {self.path}:{self.line}"


class LockKey(typing.NamedTuple):
    base: str  # last chain component ("locks"); "*" matches any base
    arg: str   # source text of the stripe argument


def _keys_match(a: LockKey, b: LockKey) -> bool:
    if a.arg != b.arg:
        return False
    return a.base == b.base or "*" in (a.base, b.base)


@dataclass(frozen=True)
class Held:
    """One abstractly-held lock inside a flow state."""

    key: LockKey
    #: "local" (acquired in this function), "open" (acquired by a
    #: callee on our behalf), "param" (synthetic probe for closer
    #: detection).
    origin: str
    site: typing.Optional[LockSite]
    param_index: int = -1
    node_id: int = -1  # id() of the acquire node, for finding anchors

    def sort_key(self) -> typing.Tuple:
        return (self.key, self.origin, self.site or LockSite("", 0, 0, ""))


State = typing.FrozenSet[Held]


@dataclass(frozen=True)
class OpenInfo:
    base: str
    site: LockSite


@dataclass
class LockSummary:
    """What a function does to parameter-keyed locks."""

    closes: typing.Dict[int, str] = field(default_factory=dict)   # index -> mode
    opens: typing.Dict[int, OpenInfo] = field(default_factory=dict)


@dataclass(frozen=True)
class LockLeak:
    """A LOCK010 candidate: where, and why the lock escapes."""

    func: FunctionInfo
    node_id: int
    message: str


def _state_sort_key(state: State) -> typing.Tuple:
    return tuple(sorted(held.sort_key() for held in state))


class _FunctionFlow:
    """One abstract walk of one function body."""

    def __init__(
        self,
        analysis: "LockFlowAnalysis",
        func: FunctionInfo,
        entry: typing.Iterable[Held],
        collect: bool,
    ):
        self.analysis = analysis
        self.func = func
        self.collect = collect
        self.entry = frozenset(entry)
        self.exit_states: typing.List[State] = []
        self.discharged_args: typing.Set[str] = set()
        self.local_nodes: typing.Dict[int, ast.Call] = {}
        self.site_index: typing.Dict[int, CallSite] = {
            id(site.node): site
            for site in analysis.graph.calls_from.get(func.qualname, ())
        }

    def run(self) -> None:
        out = self._block(self.func.node.body, {self.entry})
        self.exit_states.extend(out)
        if not self.exit_states:
            # Every path raises; treat entry state as the exit so closer
            # classification does not report phantom releases.
            self.exit_states.append(self.entry)

    # ------------------------------------------------------------------
    # Statement flow
    # ------------------------------------------------------------------
    def _cap(self, states: typing.Set[State]) -> typing.Set[State]:
        if len(states) <= _MAX_STATES:
            return states
        return set(sorted(states, key=_state_sort_key)[:_MAX_STATES])

    def _block(
        self, stmts: typing.Sequence[ast.stmt], states: typing.Set[State]
    ) -> typing.Set[State]:
        for stmt in stmts:
            states = self._cap(self._stmt(stmt, states))
            if not states:
                break
        return states

    def _stmt(
        self, stmt: ast.stmt, states: typing.Set[State]
    ) -> typing.Set[State]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return states
        if isinstance(stmt, ast.If):
            states = self._apply_calls(stmt.test, states)
            return self._block(stmt.body, states) | self._block(stmt.orelse, states)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            states = self._apply_calls(stmt.iter, states)
            once = self._block(stmt.body, states)
            twice = self._block(stmt.body, once)
            merged = states | once | twice
            return self._block(stmt.orelse, merged) if stmt.orelse else merged
        if isinstance(stmt, ast.While):
            states = self._apply_calls(stmt.test, states)
            once = self._block(stmt.body, states)
            twice = self._block(stmt.body, once)
            merged = states | once | twice
            return self._block(stmt.orelse, merged) if stmt.orelse else merged
        if isinstance(stmt, ast.Try):
            return self._try(stmt, states)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                states = self._apply_calls(stmt.value, states)
            self.exit_states.extend(states)
            return set()
        if isinstance(stmt, ast.Raise):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    states = self._apply_calls(child, states)
            # Exception paths are LOCK001's jurisdiction (try/finally
            # around yields); they are not normal exits here.
            return set()
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                states = self._apply_calls(item.context_expr, states)
            return self._block(stmt.body, states)
        # Simple statements (Expr, Assign, AugAssign, Assert, ...).
        return self._apply_calls(stmt, states)

    def _try(self, stmt: ast.Try, states: typing.Set[State]) -> typing.Set[State]:
        returns_before = len(self.exit_states)
        body_out = self._block(stmt.body, states)
        handler_out: typing.Set[State] = set()
        for handler in stmt.handlers:
            handler_out |= self._block(handler.body, states | body_out)
        if stmt.orelse:
            body_out = self._block(stmt.orelse, body_out)
        merged = body_out | handler_out
        if stmt.finalbody:
            # Returns recorded inside the try exit *through* finally.
            escaped = self.exit_states[returns_before:]
            del self.exit_states[returns_before:]
            for state in escaped:
                self.exit_states.extend(self._block(stmt.finalbody, {state}))
            merged = self._block(stmt.finalbody, merged)
        return merged

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _calls_in(self, node: ast.AST) -> typing.List[ast.Call]:
        calls = []
        stack: typing.List[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(current, ast.Call):
                calls.append(current)
            stack.extend(ast.iter_child_nodes(current))
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        return calls

    def _apply_calls(
        self, node: ast.AST, states: typing.Set[State]
    ) -> typing.Set[State]:
        for call in self._calls_in(node):
            states = self._apply_call(call, states)
        return states

    def _apply_call(
        self, call: ast.Call, states: typing.Set[State]
    ) -> typing.Set[State]:
        acquire_chain = _lock_chain(call, "acquire")
        if acquire_chain is not None:
            return self._acquire(call, acquire_chain, states)
        release_chain = _lock_chain(call, "release")
        if release_chain is not None:
            return self._release(call, release_chain, states)
        site = self.site_index.get(id(call))
        if site is not None:
            return self._project_call(site, call, states)
        return states

    def _lock_key(self, chain: str, call: ast.Call) -> LockKey:
        base = chain.split(".")[-1]
        arg = ast.unparse(call.args[0]) if call.args else "?"
        return LockKey(base, arg)

    def _acquire(
        self, call: ast.Call, chain: str, states: typing.Set[State]
    ) -> typing.Set[State]:
        key = self._lock_key(chain, call)
        site = LockSite(
            self.func.ctx.path,
            call.lineno,
            call.col_offset,
            f"{key.base}.acquire({key.arg})",
        )
        held = Held(key, "local", site, node_id=id(call))
        self.local_nodes[id(call)] = call
        return {state | {held} for state in states}

    def _release(
        self, call: ast.Call, chain: str, states: typing.Set[State]
    ) -> typing.Set[State]:
        key = self._lock_key(chain, call)
        out = set()
        for state in states:
            matching = [h for h in state if _keys_match(h.key, key)]
            locals_ = [h for h in matching if h.origin in ("local", "open")]
            # A release matches the lock *this* function acquired first;
            # only a release with no local acquisition to pair with
            # discharges a caller-side obligation (closer behaviour).
            dropped = set(locals_) if locals_ else set(matching)
            out.add(frozenset(h for h in state if h not in dropped))
        return out

    def _project_call(
        self, site: CallSite, call: ast.Call, states: typing.Set[State]
    ) -> typing.Set[State]:
        callee = self.analysis.project.functions.get(site.callee)
        if callee is None:
            return states
        summary = self.analysis.summaries.get(site.callee)
        if summary is None:
            return states
        for param_index, mode in sorted(summary.closes.items()):
            actual = self.analysis.graph.argument_for(site, param_index)
            if actual is None:
                continue
            arg_text = ast.unparse(actual)
            matched = any(
                held.key.arg == arg_text for state in states for held in state
            )
            if not matched:
                continue
            if mode == SOMETIMES and self.collect:
                verb = "spawned closer" if site.kind == "spawn" else "callee"
                self.analysis.leaks.append(
                    LockLeak(
                        self.func,
                        id(call),
                        f"lock keyed by {arg_text!r} is handed to "
                        f"{callee.name}(), but that {verb} releases it on "
                        "only some paths (an early return skips the "
                        "release) — the stripe deadlocks on the others",
                    )
                )
                self.local_nodes[id(call)] = call
            if site.kind == "spawn":
                # The spawn may sit on a different branch than the
                # conditional release correlated with it; forgive the
                # key function-wide rather than per-state.
                self.discharged_args.add(arg_text)
            out = set()
            for state in states:
                out.add(
                    frozenset(h for h in state if h.key.arg != arg_text)
                )
            states = out
        for param_index, info in sorted(summary.opens.items()):
            if site.kind == "spawn":
                continue
            actual = self.analysis.graph.argument_for(site, param_index)
            if actual is None:
                continue
            arg_text = ast.unparse(actual)
            held = Held(
                LockKey(info.base, arg_text), "open", info.site, node_id=id(call)
            )
            self.local_nodes[id(call)] = call
            states = {state | {held} for state in states}
        return states


class LockFlowAnalysis:
    """Whole-program lock flow: summaries and leaks."""

    def __init__(self, project: ProjectContext):
        self.project = project
        self.graph: CallGraph = build_call_graph(project)
        self.summaries: typing.Dict[str, LockSummary] = {}
        self.leaks: typing.List[LockLeak] = []
        self.leak_nodes: typing.Dict[int, ast.Call] = {}
        self._run()

    # ------------------------------------------------------------------
    @staticmethod
    def _entry_for(func: FunctionInfo) -> typing.Set[Held]:
        return {
            Held(LockKey("*", param.arg), "param", None, param_index=index)
            for index, param in enumerate(func.params)
        }

    def _run(self) -> None:
        for qualname in self.project.functions:
            self.summaries[qualname] = LockSummary()
        for round_index in range(_MAX_ROUNDS):
            collect = round_index == _MAX_ROUNDS - 1
            self.leaks = []
            self.leak_nodes = {}
            changed = False
            for qualname in sorted(self.project.functions):
                func = self.project.functions[qualname]
                flow = _FunctionFlow(self, func, self._entry_for(func), collect)
                flow.run()
                summary = self._summarize(func, flow, collect)
                if summary != self.summaries[qualname]:
                    self.summaries[qualname] = summary
                    changed = True
                self.leak_nodes.update(flow.local_nodes)
            if collect:
                break
            if not changed:
                # Converged early: one more pass, collecting findings.
                self._collect_final()
                break
        self.leaks.sort(
            key=lambda leak: (
                leak.func.ctx.path,
                self.leak_nodes[leak.node_id].lineno,
                leak.message,
            )
        )

    def _collect_final(self) -> None:
        self.leaks = []
        self.leak_nodes = {}
        for qualname in sorted(self.project.functions):
            func = self.project.functions[qualname]
            flow = _FunctionFlow(self, func, self._entry_for(func), collect=True)
            flow.run()
            self._summarize(func, flow, collect=True)
            self.leak_nodes.update(flow.local_nodes)

    # ------------------------------------------------------------------
    def _summarize(
        self, func: FunctionInfo, flow: _FunctionFlow, collect: bool
    ) -> LockSummary:
        summary = LockSummary()
        exits = flow.exit_states
        param_names = {param.arg: index for index, param in enumerate(func.params)}
        for index, param in enumerate(func.params):
            present = sum(
                1
                for state in exits
                if any(
                    held.origin == "param" and held.param_index == index
                    for held in state
                )
            )
            if present == 0:
                summary.closes[index] = ALWAYS
            elif present < len(exits):
                summary.closes[index] = SOMETIMES
        # Locally-acquired (or callee-opened) locks still held at exits.
        held_counts: typing.Dict[Held, int] = {}
        for state in exits:
            for held in state:
                if held.origin in ("local", "open"):
                    held_counts[held] = held_counts.get(held, 0) + 1
        for held in sorted(held_counts, key=Held.sort_key):
            count = held_counts[held]
            if held.key.arg in flow.discharged_args:
                continue
            param_index = param_names.get(held.key.arg)
            if param_index is not None and count == len(exits):
                # Held on *every* exit and keyed by our own parameter:
                # a deliberate opener; the obligation moves to callers.
                if held.site is not None and held.origin == "local":
                    summary.opens[param_index] = OpenInfo(held.key.base, held.site)
                continue
            if not collect:
                continue
            if count == len(exits):
                why = "every normal exit"
            else:
                why = f"{count} of {len(exits)} normal exit paths"
            origin = (
                "acquired here"
                if held.origin == "local"
                else f"opened by a callee ({held.site.describe()})"
                if held.site is not None
                else "opened by a callee"
            )
            self.leaks.append(
                LockLeak(
                    func,
                    held.node_id,
                    f"stripe lock {held.key.base}({held.key.arg}) "
                    f"{origin} is still held on {why}, and no release, "
                    "always-releasing callee, or spawned closer discharges "
                    "it — later requests on the stripe deadlock",
                )
            )
        return summary


def lockflow_analysis(project: ProjectContext) -> LockFlowAnalysis:
    """Memoized :class:`LockFlowAnalysis` for one lint run."""
    return typing.cast(
        LockFlowAnalysis,
        project.analysis("lockflow", lambda: LockFlowAnalysis(project)),
    )
