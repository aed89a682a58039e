"""Unit tests for the head schedulers."""

from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.disk.scheduling import CvscanScheduler, FifoScheduler, make_scheduler


@dataclass
class FakeRequest:
    cylinder: int
    tag: int = 0


def fill(scheduler, cylinders):
    for i, cylinder in enumerate(cylinders):
        scheduler.push(FakeRequest(cylinder=cylinder, tag=i))


class TestFifo:
    def test_arrival_order(self):
        scheduler = FifoScheduler()
        fill(scheduler, [50, 10, 90])
        assert [scheduler.pop(0, 1).cylinder for _ in range(3)] == [50, 10, 90]

    def test_len(self):
        scheduler = FifoScheduler()
        assert not scheduler
        fill(scheduler, [1, 2])
        assert len(scheduler) == 2


class TestSstf:
    def test_picks_nearest(self):
        scheduler = make_scheduler("sstf", cylinders=100)
        fill(scheduler, [100, 40, 60])
        assert scheduler.pop(50, 1).cylinder == 40
        assert scheduler.pop(40, -1).cylinder == 60
        assert scheduler.pop(60, 1).cylinder == 100

    def test_tie_breaks_by_arrival(self):
        scheduler = make_scheduler("sstf", cylinders=100)
        fill(scheduler, [45, 55])
        assert scheduler.pop(50, 1).tag == 0


class TestLook:
    def test_sweeps_in_direction_first(self):
        scheduler = make_scheduler("look", cylinders=100)
        fill(scheduler, [30, 70, 60])
        # Head at 50 moving up: service 60, 70, then reverse to 30.
        assert scheduler.pop(50, 1).cylinder == 60
        assert scheduler.pop(60, 1).cylinder == 70
        assert scheduler.pop(70, 1).cylinder == 30

    def test_reverses_when_nothing_ahead(self):
        scheduler = make_scheduler("look", cylinders=100)
        fill(scheduler, [10, 20])
        assert scheduler.pop(50, 1).cylinder == 20

    def test_equal_cylinder_counts_as_ahead(self):
        scheduler = make_scheduler("look", cylinders=100)
        fill(scheduler, [50])
        assert scheduler.pop(50, 1).cylinder == 50

    def test_tie_breaks_by_arrival(self):
        scheduler = make_scheduler("look", cylinders=100)
        fill(scheduler, [70, 60, 60, 60])
        # Three equal-cost candidates ahead: they go in arrival order.
        assert [scheduler.pop(50, 1).tag for _ in range(4)] == [1, 2, 3, 0]

    def test_tie_after_reversal_breaks_by_arrival(self):
        scheduler = make_scheduler("look", cylinders=100)
        fill(scheduler, [30, 40, 40])
        # Nothing ahead of 50 going up: reverse, and take the two equal
        # nearest candidates in arrival order.
        assert [scheduler.pop(50, 1).tag for _ in range(3)] == [1, 2, 0]


class TestCvscan:
    def test_zero_bias_degenerates_to_sstf(self):
        scheduler = CvscanScheduler(cylinders=100, bias_fraction=0.0)
        fill(scheduler, [45, 56])
        # 45 is closer (distance 5 vs 6) even though it is behind.
        assert scheduler.pop(50, 1).cylinder == 45

    def test_large_bias_degenerates_to_scan(self):
        scheduler = CvscanScheduler(cylinders=100, bias_fraction=10.0)
        fill(scheduler, [45, 95])
        # 45 is behind and pays a 1000-cylinder penalty: sweep to 95 first.
        assert scheduler.pop(50, 1).cylinder == 95

    def test_moderate_bias_balances(self):
        scheduler = CvscanScheduler(cylinders=100, bias_fraction=0.2)
        fill(scheduler, [45, 95])
        # Behind cost 5 + 20 = 25, ahead cost 45: the near request wins.
        assert scheduler.pop(50, 1).cylinder == 45

    @pytest.mark.parametrize("cylinders", [[45, 55], [55, 45]])
    def test_tie_breaks_by_arrival(self, cylinders):
        scheduler = CvscanScheduler(cylinders=100, bias_fraction=0.0)
        fill(scheduler, cylinders)
        # Both 5 cylinders away: the earlier push wins, whichever side.
        assert scheduler.pop(50, 1).tag == 0

    def test_biased_tie_breaks_by_arrival(self):
        scheduler = CvscanScheduler(cylinders=100, bias_fraction=0.2)
        fill(scheduler, [80, 40, 80])
        # Ahead 80 costs 30; behind 40 costs 10 + 20 = 30: a three-way
        # tie, popped in arrival order.
        assert [scheduler.pop(50, 1).tag for _ in range(3)] == [0, 1, 2]

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            CvscanScheduler(cylinders=0)
        with pytest.raises(ValueError):
            CvscanScheduler(cylinders=10, bias_fraction=-1)


#: Policy, class, bias for a 100-cylinder disk.
POLICIES = [
    ("fifo", FifoScheduler, None),
    ("sstf", CvscanScheduler, 0.0),
    ("look", CvscanScheduler, 100.0),
    ("cvscan", CvscanScheduler, 20.0),
]


class TestFactory:
    @pytest.mark.parametrize(
        "name, cls, bias",
        POLICIES,
        ids=[f"{name}-{cls.__name__}" for name, cls, _bias in POLICIES],
    )
    def test_known_policies(self, name, cls, bias):
        scheduler = make_scheduler(name, cylinders=100)
        assert type(scheduler) is cls
        assert getattr(scheduler, "bias", None) == bias

    def test_unknown_policy_rejected(self):
        for name in ("elevator", "cvscan+"):
            with pytest.raises(ValueError, match="unknown"):
                make_scheduler(name, cylinders=100)


def nearest(cylinders, head, direction):
    """SSTF: the nearest cylinder, the earliest arrival on ties."""
    return min(range(len(cylinders)), key=lambda i: abs(cylinders[i] - head))


def look(cylinders, head, direction):
    """LOOK: the nearest at or ahead in the direction of travel, else
    the nearest; the earliest arrival on ties."""
    ahead = [i for i, c in enumerate(cylinders) if (c - head) * direction >= 0]
    return min(ahead or range(len(cylinders)), key=lambda i: abs(cylinders[i] - head))


@st.composite
def queues(draw):
    """A disk size, a queue of cylinders on it, a head and a direction."""
    size = draw(st.integers(min_value=1, max_value=40))
    cylinder = st.integers(min_value=0, max_value=size - 1)
    return (
        size,
        draw(st.lists(cylinder, min_size=1, max_size=20)),
        draw(cylinder),
        draw(st.sampled_from([-1, 1])),
    )


class TestCvscanEnds:
    @pytest.mark.parametrize("policy, oracle", [("sstf", nearest), ("look", look)])
    @given(queues())
    @settings(max_examples=200, deadline=None)
    def test_pops_follow_the_rule(self, policy, oracle, shape):
        size, cylinders, head, direction = shape
        scheduler = make_scheduler(policy, cylinders=size)
        fill(scheduler, cylinders)
        pending = list(enumerate(cylinders))
        # Drain the queue, moving the head to each pick as a drive does.
        while pending:
            expected = pending.pop(oracle([c for _tag, c in pending], head, direction))
            request = scheduler.pop(head, direction)
            assert (request.tag, request.cylinder) == expected
            if request.cylinder != head:
                direction = 1 if request.cylinder > head else -1
            head = request.cylinder
