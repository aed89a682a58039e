"""Whole-program rule tests: DET010 taint, LOCK010 lock-flow, and the
regression fixture for the cross-function lock-handoff bug that
motivated the analysis.

Each fixture is a miniature project written to ``tmp_path``; the
positive variant must produce exactly the expected finding and the
negative variant (same shape, protocol made safe) must be clean —
both directions guard against the analysis rotting into "flags
everything" or "flags nothing".
"""

import textwrap

from repro.devtools.simlint import lint_paths

# ---------------------------------------------------------------------------
# Fixture sources
# ---------------------------------------------------------------------------

#: A helper launders time.time() through a return value; its caller
#: feeds the result onward with no flagged line in its own file.
TAINT_CHAIN = """
    import time

    def stamp():
        return time.time()

    def delay_for():
        return stamp() * 2.0

    def schedule(env):
        yield env.timeout(delay_for())
"""

#: Same shape, but the source is justified inline, so the taint dies
#: at the source instead of propagating.
TAINT_CHAIN_SUPPRESSED = """
    import time

    def stamp():
        # simlint: disable=DET001 (stopwatch for the progress bar only)
        return time.time()

    def delay_for():
        return stamp() * 2.0

    def schedule(env):
        yield env.timeout(delay_for())
"""

#: Same shape, but the helper is declared deterministic by pragma.
TAINT_CHAIN_ASSUMED = """
    import time

    def stamp():  # simlint: assume=deterministic (reads a frozen config)
        return time.time()

    def delay_for():
        return stamp() * 2.0

    def schedule(env):
        yield env.timeout(delay_for())
"""

#: A helper returns ``id(obj)``, a memory address that differs run to
#: run; no per-module rule flags ``id()`` itself.
ID_CHAIN = """
    def key_of(obj):
        return id(obj)

    def order_key(obj):
        return key_of(obj) + 1
"""

#: A helper builds an explicitly seeded generator: DET002 accepts it,
#: so DET010 must not read it as a random source either.
SEEDED_RNG = """
    import random

    def make_rng(seed):
        return random.Random(seed)

    def first_draw(seed):
        return make_rng(seed).random()
"""

#: A comprehension reuses the name of a wall-clock variable; its target
#: is scoped to the comprehension, so the function still returns the
#: wall-clock value.
COMPREHENSION_SHADOW = """
    import time

    def stamp():
        now = time.time()
        labels = [now for now in range(3)]
        return now

    def delay_for():
        return stamp() * 2.0
"""

#: Clean control: values derive from parameters only.
TAINT_CLEAN = """
    def delay_for(config):
        return config.delay_ms * 2.0

    def schedule(env, config):
        yield env.timeout(delay_for(config))
"""

#: The PR 3 bug class: ``read`` acquires a stripe lock and hands the
#: release to a spawned closer, but the closer releases on only some
#: paths. The handoff acquire carries the LOCK001 justification the
#: real code uses — after that, no per-module rule has anything left
#: to say, which is exactly the blind spot.
HANDOFF_LEAK = """
    class Cache:
        def __init__(self, env):
            self.env = env

        def read(self, stripe, piggyback):
            # simlint: disable=LOCK001 (ownership handed to the spawned closer)
            yield self.locks.acquire(stripe)
            self.env.process(self._finish(stripe, piggyback))

        def _finish(self, stripe, piggyback):
            if not piggyback:
                return
            yield self.env.timeout(1.0)
            self.locks.release(stripe)
"""

#: The correct protocol: the spawned closer releases on every path.
HANDOFF_SAFE = """
    class Cache:
        def __init__(self, env):
            self.env = env

        def read(self, stripe, piggyback):
            # simlint: disable=LOCK001 (ownership handed to the spawned closer)
            yield self.locks.acquire(stripe)
            self.env.process(self._finish(stripe, piggyback))

        def _finish(self, stripe, piggyback):
            try:
                if piggyback:
                    yield self.env.timeout(1.0)
            finally:
                self.locks.release(stripe)
"""

def write_project(tmp_path, **modules):
    paths = []
    for name, code in sorted(modules.items()):
        path = tmp_path / f"{name}.py"
        path.write_text(textwrap.dedent(code), encoding="utf-8")
        paths.append(path)
    return paths


def project_findings(paths, *rules):
    report = lint_paths(paths, select=list(rules), project=True)
    return report.active


# ---------------------------------------------------------------------------
# DET010: transitive nondeterminism through return values
# ---------------------------------------------------------------------------
class TestTransitiveNondeterminism:
    def test_laundered_wall_clock_flagged_at_call_sites(self, tmp_path):
        paths = write_project(tmp_path, chain=TAINT_CHAIN)
        findings = project_findings(paths, "DET010")
        assert findings, "laundered time.time() must surface as DET010"
        assert all(f.rule == "DET010" for f in findings)
        # The chain is spelled out hop by hop back to the source.
        messages = " | ".join(f.message for f in findings)
        assert "stamp()" in messages
        assert "wall clock" in messages

    def test_cross_module_chain_flagged(self, tmp_path):
        paths = write_project(
            tmp_path,
            clock="""
                import time

                def stamp():
                    return time.time()
            """,
            sched="""
                from clock import stamp

                def delay_for():
                    return stamp() * 2.0
            """,
        )
        findings = project_findings(paths, "DET010")
        assert any(
            f.path.endswith("sched.py") and "stamp()" in f.message
            for f in findings
        ), "the import-crossing call must be flagged in the caller's file"

    def test_per_module_rules_cannot_see_the_chain(self, tmp_path):
        # The callers' modules contain no flaggable line of their own:
        # everything DET001 can say is at the source line itself.
        paths = write_project(tmp_path, chain=TAINT_CHAIN)
        report = lint_paths(paths)  # module scope only
        assert [f.rule for f in report.active] == ["DET001"]

    def test_inline_source_suppression_kills_the_taint(self, tmp_path):
        paths = write_project(tmp_path, chain=TAINT_CHAIN_SUPPRESSED)
        assert project_findings(paths, "DET010") == []

    def test_assume_deterministic_pragma_clears_summary(self, tmp_path):
        paths = write_project(tmp_path, chain=TAINT_CHAIN_ASSUMED)
        assert project_findings(paths, "DET010") == []

    def test_id_is_a_value_source(self, tmp_path):
        paths = write_project(tmp_path, ids=ID_CHAIN)
        (finding,) = project_findings(paths, "DET010")
        assert finding.symbol == "order_key"
        assert "key_of()" in finding.message
        assert "id() [memory address]" in finding.message

    def test_det010_suppression_at_id_source_kills_the_taint(self, tmp_path):
        code = ID_CHAIN.replace(
            "return id(obj)",
            "return id(obj)  # simlint: disable=DET010 (debug label only)",
        )
        paths = write_project(tmp_path, ids=code)
        assert project_findings(paths, "DET010") == []

    def test_seeded_generator_is_not_a_source(self, tmp_path):
        paths = write_project(tmp_path, rng=SEEDED_RNG)
        assert project_findings(paths, "DET010") == []
        unseedable = SEEDED_RNG.replace("random.Random(", "random.SystemRandom(")
        paths = write_project(tmp_path, rng=unseedable)
        (finding,) = project_findings(paths, "DET010")
        assert finding.symbol == "first_draw"
        assert "SystemRandom() [unseeded random]" in finding.message

    def test_comprehension_target_does_not_clear_the_taint(self, tmp_path):
        paths = write_project(tmp_path, shadow=COMPREHENSION_SHADOW)
        (finding,) = project_findings(paths, "DET010")
        assert finding.symbol == "delay_for"
        assert "wall clock" in finding.message

    def test_clean_project_is_clean(self, tmp_path):
        paths = write_project(tmp_path, clean=TAINT_CLEAN)
        assert project_findings(paths, "DET010") == []

    def test_assume_nondeterministic_forces_taint(self, tmp_path):
        paths = write_project(
            tmp_path,
            ext="""
                def read_sensor():  # simlint: assume=nondeterministic (reads hardware)
                    return 42

                def use():
                    return read_sensor() + 1
            """,
        )
        findings = project_findings(paths, "DET010")
        assert any("read_sensor()" in f.message for f in findings)


# ---------------------------------------------------------------------------
# LOCK010: cross-function lock handoff (the seeded PR 3 regression)
# ---------------------------------------------------------------------------
class TestInterproceduralLockLeak:
    def test_sometimes_closer_handoff_flagged(self, tmp_path):
        paths = write_project(tmp_path, handoff=HANDOFF_LEAK)
        findings = project_findings(paths, "LOCK010")
        assert findings, "conditional release in the spawned closer must leak"
        (finding,) = findings
        assert finding.rule == "LOCK010"
        assert "_finish" in finding.message
        assert "only some paths" in finding.message
        # Anchored at the handoff in read(), where the fix belongs.
        assert finding.symbol.endswith("read")

    def test_always_closer_handoff_is_clean(self, tmp_path):
        paths = write_project(tmp_path, handoff=HANDOFF_SAFE)
        assert project_findings(paths, "LOCK010") == []

    def test_per_module_lint_provably_misses_the_leak(self, tmp_path):
        # The acceptance gate for the whole analysis: the per-module
        # rules (LOCK001 included) report *nothing* on the buggy
        # fixture, while --project pins the leak. If this ever starts
        # failing on the first assert, the per-module rules grew the
        # power and LOCK010 may be redundant; if on the second, the
        # regression is live again.
        paths = write_project(tmp_path, handoff=HANDOFF_LEAK)
        module_report = lint_paths(paths)
        assert module_report.active == []
        project_report = lint_paths(paths, project=True)
        assert [f.rule for f in project_report.active] == ["LOCK010"]

    def test_unreleased_local_lock_is_a_leak(self, tmp_path):
        # A parameter-keyed hold at every exit is a deliberate opener
        # (the obligation moves to the caller); a *locally*-keyed hold
        # with no caller to pick it up is simply leaked.
        paths = write_project(
            tmp_path,
            plain="""
                class Controller:
                    def sweep(self):
                        stripe = self.next_stripe()
                        yield self.locks.acquire(stripe)
                        yield self.env.timeout(1.0)
            """,
        )
        findings = project_findings(paths, "LOCK010")
        assert any("still held" in f.message for f in findings)


# ---------------------------------------------------------------------------
# Determinism of the whole-program pass itself
# ---------------------------------------------------------------------------
class TestProjectDeterminism:
    def test_two_project_runs_identical(self, tmp_path):
        write_project(
            tmp_path,
            chain=TAINT_CHAIN,
            handoff=HANDOFF_LEAK,
        )
        first = lint_paths([tmp_path], project=True)
        second = lint_paths([tmp_path], project=True)
        keys = lambda report: [  # noqa: E731 - local shorthand
            (f.rule, f.path, f.line, f.message) for f in report.active
        ]
        assert keys(first) == keys(second)
        assert keys(first)  # the combined tree does have findings
