"""Unit tests for the simsan lock monitor (SAN001–SAN005).

The monitor attributes lock operations to the *frame* that called the
lock table, so each scripted "process" below is one plain function
whose body performs the whole acquire/release sequence: every call in
one body shares one frame, two different functions are two different
owners — exactly the property real generator processes have.
"""

import inspect
import os

import pytest

from repro.array.locks import StripeLockTable
from repro.devtools.simsan import LockMonitor, StaticLockModel
from repro.sim import Environment


def make_table(monitor):
    return StripeLockTable(Environment(), monitor=monitor)


def span_of(function):
    """(path, first, last) of a test helper, in monitor coordinates."""
    path = os.path.relpath(inspect.getfile(function), os.getcwd())
    path = path.replace("\\", "/")
    lines, first = inspect.getsourcelines(function)
    return (path, first, first + len(lines) - 1)


# Scripted processes -------------------------------------------------------

def hold_and_release(table, stripe):
    table.acquire(stripe)
    table.release(stripe)


def double_acquire(table, stripe):
    table.acquire(stripe)
    table.acquire(stripe)


def take_forward(table):
    table.acquire(1)
    table.acquire(2)
    table.release(2)
    table.release(1)


def take_backward(table):
    table.acquire(2)
    table.acquire(1)
    table.release(1)
    table.release(2)


def acquire_only(table, stripe):
    table.acquire(stripe)


def release_only(table, stripe):
    table.release(stripe)


def rules_of(monitor):
    return [violation.rule for violation in monitor.violations]


class TestProtocolChecks:
    def test_clean_protocol_has_no_violations(self):
        monitor = LockMonitor()
        table = make_table(monitor)
        hold_and_release(table, 3)
        monitor.finish()
        assert monitor.violations == []
        assert monitor.acquires == 1
        assert monitor.releases == 1

    def test_san001_reentrant_acquire(self):
        monitor = LockMonitor()
        table = make_table(monitor)
        double_acquire(table, 5)
        assert rules_of(monitor) == ["SAN001"]
        assert "not reentrant" in monitor.violations[0].message

    def test_distinct_stripes_are_not_reentrant(self):
        monitor = LockMonitor()
        table = make_table(monitor)
        take_forward(table)
        assert monitor.violations == []

    def test_san002_opposite_orders(self):
        monitor = LockMonitor()
        table = make_table(monitor)
        take_forward(table)
        take_backward(table)
        assert rules_of(monitor) == ["SAN002"]
        assert "both orders" in monitor.violations[0].message

    def test_consistent_orders_are_clean(self):
        monitor = LockMonitor()
        table = make_table(monitor)
        take_forward(table)
        take_forward(table)
        assert monitor.violations == []

    def test_san003_release_without_holder(self):
        monitor = LockMonitor()
        table = make_table(monitor)
        with pytest.raises(KeyError):
            # The table itself also rejects the stray release; the
            # monitor must have recorded it first.
            # simlint: disable=SAN003 (this release is the test subject)
            release_only(table, 9)
        assert rules_of(monitor) == ["SAN003"]

    def test_san004_foreign_release_without_declared_closer(self):
        monitor = LockMonitor()
        table = make_table(monitor)
        acquire_only(table, 4)
        release_only(table, 4)
        assert rules_of(monitor) == ["SAN004"]
        assert "different process" in monitor.violations[0].message

    def test_san004_suppressed_by_static_closer_span(self):
        static = StaticLockModel(closer_spans=[span_of(release_only)])
        monitor = LockMonitor(static=static)
        table = make_table(monitor)
        acquire_only(table, 4)
        release_only(table, 4)
        monitor.finish()
        assert monitor.violations == []

    def test_san005_lock_held_at_end(self):
        monitor = LockMonitor()
        table = make_table(monitor)
        acquire_only(table, 8)
        monitor.finish()
        assert rules_of(monitor) == ["SAN005"]
        assert "still held" in monitor.violations[0].message

    def test_san005_gated_by_expect_drained(self):
        monitor = LockMonitor(expect_drained=False)
        table = make_table(monitor)
        acquire_only(table, 8)
        monitor.finish()
        assert monitor.violations == []

class TestFifoHandoffAttribution:
    def test_waiter_becomes_holder_at_release(self):
        # Contended acquire: the waiter is granted at release time and
        # must be recorded as the new holder (owned by *its* frame), so
        # its own release is not a SAN004.
        monitor = LockMonitor()
        table = make_table(monitor)

        def first(event_box):
            event_box.append(table.acquire(7))

        def second(table):
            # A generator keeps one frame alive across the handoff:
            # the same frame acquires (queued), waits, and releases —
            # exactly how real simulation processes own locks.
            table.acquire(7)
            yield
            table.release(7)

        held = []
        first(held)
        waiter = second(table)
        next(waiter)  # runs the queued acquire inside the generator frame
        table.release(7)  # first hands off to the waiter  # simlint: disable=SAN004 (handoff is the test subject)
        assert rules_of(monitor) == ["SAN004"]  # this frame never acquired 7
        monitor.violations.clear()
        with pytest.raises(StopIteration):
            next(waiter)  # the waiter releases its own hold: clean
        assert monitor.violations == []


class TestFindings:
    def test_violations_become_simlint_findings(self):
        monitor = LockMonitor()
        table = make_table(monitor)
        acquire_only(table, 2)
        release_only(table, 2)
        findings = monitor.findings()
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "SAN004"
        assert finding.path.endswith("test_simsan.py")
        assert finding.symbol == "release_only"
        assert finding.snippet == "table.release(stripe)"
        assert finding.severity == "error"
        assert finding.hint  # pulled from the registered SAN rule

    def test_inline_suppression_honoured(self):
        monitor = LockMonitor()
        table = make_table(monitor)
        with pytest.raises(KeyError):
            # simlint: disable=SAN003 (scripted double release)
            table.release(11)
        (finding,) = monitor.findings()
        assert finding.suppressed
        assert finding.suppress_reason == "scripted double release"


class TestStaticModelFromProject:
    def test_closer_spans_extracted(self, tmp_path):
        from repro.devtools.simlint.project.modules import ProjectContext

        module = tmp_path / "handoff.py"
        module.write_text(
            "class Cache:\n"
            "    def read(self, stripe):\n"
            "        yield self.locks.acquire(stripe)\n"
            "        yield self.locks.acquire(stripe + 1)\n"
            "        self.env.process(self._finish(stripe))\n"
            "        self.locks.release(stripe + 1)\n"
            "\n"
            "    def _finish(self, stripe):\n"
            "        yield self.env.timeout(1.0)\n"
            "        self.locks.release(stripe)\n",
            encoding="utf-8",
        )
        model = StaticLockModel.from_project(ProjectContext([module]))
        # _finish releases a parameter-keyed lock: it is a closer.
        closer = [
            (path, first, last)
            for path, first, last in model.closer_spans
            if path.endswith("handoff.py") and first <= 10 <= last
        ]
        assert closer, f"_finish span missing from {model.closer_spans}"
        from repro.devtools.simsan.monitor import Site

        path = closer[0][0]
        assert model.in_closer_span(Site(path, 10, "_finish"))
        # The class line belongs to no function span at all.
        assert not model.in_closer_span(Site(path, 1, "<module>"))
