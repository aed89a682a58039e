"""Determinism rules: DET001, DET002 and DET004.

The simulator's contract is that one :class:`ScenarioConfig` replays
bit-identically: the sweep cache is content-addressed on the config, so
any nondeterminism silently corrupts cache reuse and figure parity.
These rules flag the classic ways Python code goes nondeterministic:
reading the wall clock, drawing from a global RNG, and iterating
hash-ordered collections.
"""

from __future__ import annotations

import ast
import typing

from repro.devtools.simlint.context import ModuleContext
from repro.devtools.simlint.findings import Finding
from repro.devtools.simlint.registry import Rule, register

#: Functions whose return value depends on the host's clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Files allowed to touch the stdlib ``random`` machinery directly:
#: the stream factory itself and the fault model, whose documented
#: contract is "draws only from an injected ``random.Random``".
UNSEEDED_RANDOM_ALLOWED = (
    "repro/sim/rng.py",
    "repro/faults/profile.py",
    "repro/faults/state.py",
)

#: RNG constructors whose stream an explicit seed fixes. ``SystemRandom``
#: is not one: it reads the OS entropy pool and ignores its seed.
SEEDABLE_CONSTRUCTORS = frozenset(
    {"Random", "default_rng", "Generator", "SeedSequence", "PCG64",
     "Philox", "MT19937"}
)


def random_source(name: str, call: ast.Call) -> typing.Optional[str]:
    """Why the call ``call``, resolved to ``name``, draws unreplayable
    randomness; None if it does not.

    A ``random.*`` or ``numpy.random.*`` call is a source unless it
    builds a seedable generator with an explicit seed. DET002 reports
    the reason at the call; DET010 taints the call's value with it.
    """
    parts = name.split(".")
    if parts[0] == "random" and len(parts) > 1:
        stream = "the global random stream"
    elif len(parts) > 2 and parts[0] == "numpy" and parts[1] == "random":
        stream = "numpy's global random stream"
    else:
        return None
    if parts[-1] == "SystemRandom":
        return f"{name}() reads the OS entropy pool and ignores any seed"
    if parts[-1] not in SEEDABLE_CONSTRUCTORS:
        return f"{name}() draws from {stream}"
    if call.args or call.keywords:
        return None
    return f"{name}() constructed without an explicit seed"


@register
class WallClockRule(Rule):
    id = "DET001"
    title = "no wall-clock reads in simulation code"
    rationale = (
        "simulated time is Environment.now; a wall-clock read makes two "
        "runs of the same ScenarioConfig diverge, breaking cache keys "
        "and figure parity"
    )
    hint = (
        "use the simulated clock (env.now) for anything that feeds results; "
        "suppress with a reason only in real-time orchestration code "
        "(progress display, worker timeouts)"
    )

    def check(self, ctx: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node, f"wall-clock call {name}() in simulation code"
                )


@register
class UnseededRandomRule(Rule):
    id = "DET002"
    title = "no module-level or unseeded random draws"
    rationale = (
        "the module-level random functions share one hidden global stream; "
        "any new caller perturbs every existing consumer and the replayed "
        "event order with it"
    )
    hint = (
        "draw from a named stream: RandomStreams.stream(name) in "
        "repro.sim.rng, or accept an injected random.Random"
    )

    def check(self, ctx: ModuleContext) -> typing.Iterator[Finding]:
        if ctx.path.endswith(UNSEEDED_RANDOM_ALLOWED):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            reason = None if name is None else random_source(name, node)
            if reason is not None:
                yield self.finding(ctx, node, reason)


def _is_hash_ordered(node: ast.AST) -> bool:
    """Does ``node`` evaluate to a hash-ordered iterable (set, dict.keys())?"""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_hash_ordered(node.left) or _is_hash_ordered(node.right)
    return False


@register
class UnorderedIterationRule(Rule):
    id = "DET004"
    title = "no iteration over hash-ordered collections"
    rationale = (
        "set iteration order depends on insertion history and hash "
        "randomization; feeding it into event scheduling, tuples, or "
        "hashes makes replays diverge"
    )
    hint = "wrap the expression in sorted(...) to pin the order"

    _MATERIALIZERS = frozenset({"tuple", "list", "enumerate", "iter"})

    def check(self, ctx: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_hash_ordered(node.iter):
                    yield self.finding(
                        ctx, node.iter,
                        "for-loop iterates a hash-ordered collection",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for generator in node.generators:
                    if _is_hash_ordered(generator.iter):
                        yield self.finding(
                            ctx, generator.iter,
                            "comprehension iterates a hash-ordered collection",
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in self._MATERIALIZERS
                    and len(node.args) == 1
                    and not node.keywords
                    and _is_hash_ordered(node.args[0])
                ):
                    yield self.finding(
                        ctx, node,
                        f"{node.func.id}() materializes a hash-ordered "
                        "collection in hash order",
                    )
