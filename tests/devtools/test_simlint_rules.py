"""Per-rule fixture tests: every rule has positive and negative snippets.

The acceptance contract for the linter: each rule ID fires on its
positive fixtures and stays quiet on its negatives. The fixture table
is also what guards rule IDs as stable API — renaming an ID breaks
this file loudly.
"""

import textwrap

import pytest

from repro.devtools.simlint import all_rules, lint_source

#: Module-scope rules only: the fixture table below runs one file at a
#: time. Project-scope rules are covered by test_simlint_project.py,
#: runtime (SAN) rules by test_simsan.py.
ALL_RULE_IDS = sorted(
    rule.id for rule in all_rules() if rule.scope == "module"
)


def findings_for(code, path="src/repro/somemodule.py"):
    """Active (non-suppressed) findings for a fixture snippet."""
    result = lint_source(textwrap.dedent(code), path)
    return [f for f in result if not f.suppressed]


def rule_ids(code, path="src/repro/somemodule.py"):
    return sorted({f.rule for f in findings_for(code, path)})


# Each entry: (rule id, [positive snippets], [negative snippets]).
FIXTURES = [
    (
        "DET001",
        [
            """
            import time

            def stamp():
                return time.time()
            """,
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            """
            import time as clock

            def stamp():
                return clock.perf_counter()
            """,
        ],
        [
            """
            def stamp(env):
                return env.now
            """,
            """
            import time

            def pause():
                time.sleep(0.1)
            """,
        ],
    ),
    (
        "DET002",
        [
            """
            import random

            def draw():
                return random.random()
            """,
            """
            import random

            def shuffle(xs):
                random.shuffle(xs)
            """,
            """
            import random

            def make_rng():
                return random.Random()
            """,
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
        ],
        [
            """
            import random

            def make_rng(seed):
                return random.Random(seed)
            """,
            """
            def draw(rng):
                return rng.random()
            """,
            """
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
            """,
        ],
    ),
    (
        "DET004",
        [
            """
            def schedule(events):
                for event in set(events):
                    event.fire()
            """,
            """
            def keys(table):
                for key in table.keys():
                    yield key
            """,
            """
            def freeze(xs):
                return tuple(set(xs))
            """,
            """
            def union(a, b):
                return [x for x in set(a) | set(b)]
            """,
        ],
        [
            """
            def schedule(events):
                for event in sorted(set(events)):
                    event.fire()
            """,
            """
            def freeze(xs):
                return tuple(sorted(set(xs)))
            """,
            """
            def member(x, t):
                return x in set(t)
            """,
            """
            def pairs(table):
                for key, value in table.items():
                    yield key, value
            """,
        ],
    ),
    (
        "LOCK001",
        [
            """
            def critical(self, stripe):
                yield self.locks.acquire(stripe)
                yield self.work(stripe)
                self.locks.release(stripe)
            """,
            """
            def critical(controller, stripe):
                yield controller.locks.acquire(stripe)
                try:
                    yield controller.work(stripe)
                finally:
                    controller.other_locks.release(stripe)
            """,
        ],
        [
            """
            def critical(self, stripe):
                yield self.locks.acquire(stripe)
                try:
                    yield self.work(stripe)
                finally:
                    self.locks.release(stripe)
            """,
            """
            def critical(self, stripe):
                try:
                    yield self.locks.acquire(stripe)
                    yield self.work(stripe)
                finally:
                    self.locks.release(stripe)
            """,
            """
            def handoff_guard(self, stripe):
                done = False
                yield self.locks.acquire(stripe)
                try:
                    yield self.work(stripe)
                finally:
                    if not done:
                        self.locks.release(stripe)
            """,
            """
            def not_a_generator(self, stripe):
                self.locks.acquire(stripe)
                self.locks.release(stripe)
            """,
        ],
    ),
    (
        "ERR001",
        [
            """
            def run(task):
                try:
                    task()
                except Exception:
                    pass
            """,
            """
            def run(task):
                try:
                    task()
                except:
                    return None
            """,
            """
            def run(task):
                try:
                    task()
                except BaseException as exc:
                    log(exc)
            """,
        ],
        [
            """
            def run(task):
                try:
                    task()
                except Exception:
                    raise
            """,
            """
            def run(task):
                try:
                    task()
                except DataLossError:
                    account()
                except Exception as exc:
                    log(exc)
            """,
            """
            def run(task):
                try:
                    task()
                except ValueError:
                    pass
            """,
        ],
    ),
]


def test_fixture_table_covers_every_rule():
    assert sorted(rule for rule, _pos, _neg in FIXTURES) == ALL_RULE_IDS


@pytest.mark.parametrize(
    "rule,snippet",
    [(rule, snippet) for rule, positives, _neg in FIXTURES for snippet in positives],
)
def test_positive_fixture_fires(rule, snippet):
    assert rule in rule_ids(snippet), f"{rule} should fire on:\n{snippet}"


@pytest.mark.parametrize(
    "rule,snippet",
    [(rule, snippet) for rule, _pos, negatives in FIXTURES for snippet in negatives],
)
def test_negative_fixture_quiet(rule, snippet):
    assert rule not in rule_ids(snippet), f"{rule} must not fire on:\n{snippet}"


def test_det002_allowed_in_rng_module():
    code = """
    import random

    def make():
        return random.Random()
    """
    assert rule_ids(code, path="src/repro/sim/rng.py") == []
    assert rule_ids(code, path="src/repro/faults/state.py") == []
    assert "DET002" in rule_ids(code, path="src/repro/array/controller.py")


def test_findings_carry_symbol_snippet_and_hint():
    code = """
    import time

    class Clock:
        def stamp(self):
            return time.time()
    """
    (finding,) = findings_for(code)
    assert finding.rule == "DET001"
    assert finding.symbol == "Clock.stamp"
    assert finding.snippet == "return time.time()"
    assert finding.hint
    assert finding.line == 6


def test_rule_metadata_complete():
    for rule in all_rules():
        assert rule.id and rule.title and rule.rationale and rule.hint
        assert rule.severity in ("note", "warning", "error")
