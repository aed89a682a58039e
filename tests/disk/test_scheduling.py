"""Unit tests for the head schedulers."""

from dataclasses import dataclass

import pytest

from repro.disk.scheduling import (
    CvscanScheduler,
    FifoScheduler,
    LookScheduler,
    SstfScheduler,
    make_scheduler,
)


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
        scheduler = SstfScheduler()
        fill(scheduler, [100, 40, 60])
        assert scheduler.pop(50, 1).cylinder == 40
        assert scheduler.pop(40, -1).cylinder == 60
        assert scheduler.pop(60, 1).cylinder == 100

    def test_tie_breaks_by_arrival(self):
        scheduler = SstfScheduler()
        fill(scheduler, [45, 55])
        assert scheduler.pop(50, 1).tag == 0


class TestLook:
    def test_sweeps_in_direction_first(self):
        scheduler = LookScheduler()
        fill(scheduler, [30, 70, 60])
        # Head at 50 moving up: service 60, 70, then reverse to 30.
        assert scheduler.pop(50, 1).cylinder == 60
        assert scheduler.pop(60, 1).cylinder == 70
        assert scheduler.pop(70, 1).cylinder == 30

    def test_reverses_when_nothing_ahead(self):
        scheduler = LookScheduler()
        fill(scheduler, [10, 20])
        assert scheduler.pop(50, 1).cylinder == 20

    def test_equal_cylinder_counts_as_ahead(self):
        scheduler = LookScheduler()
        fill(scheduler, [50])
        assert scheduler.pop(50, 1).cylinder == 50

    def test_tie_breaks_by_arrival(self):
        scheduler = LookScheduler()
        fill(scheduler, [70, 60, 60, 60])
        # Three equal-cost candidates ahead: they go in arrival order.
        assert [scheduler.pop(50, 1).tag for _ in range(4)] == [1, 2, 3, 0]

    def test_tie_after_reversal_breaks_by_arrival(self):
        scheduler = LookScheduler()
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


class TestFactory:
    @pytest.mark.parametrize("name, cls", [
        ("fifo", FifoScheduler),
        ("sstf", SstfScheduler),
        ("look", LookScheduler),
        ("cvscan", CvscanScheduler),
    ])
    def test_known_policies(self, name, cls):
        assert isinstance(make_scheduler(name, cylinders=100), cls)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            make_scheduler("elevator", cylinders=100)
