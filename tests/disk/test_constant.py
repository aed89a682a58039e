"""Unit tests for the work-preserving constant-rate disk."""

import pytest

from repro.disk import ConstantRateDisk, IBM_0661
from repro.sim import Environment


class TestConstantRateDisk:
    def test_every_access_costs_the_same(self):
        env = Environment()
        disk = ConstantRateDisk(env, IBM_0661, rate_per_s=50.0)

        def body(env):
            yield disk.access(0, 8, is_write=False)        # sequential
            yield disk.access(500_000, 8, is_write=True)   # far away

        env.process(body(env))
        env.run()
        assert env.now == pytest.approx(40.0)  # 2 x 20 ms

    def test_default_rate_matches_muntz_lui(self):
        env = Environment()
        disk = ConstantRateDisk(env, IBM_0661)
        assert disk.service_ms == pytest.approx(1000.0 / 46.0)

    def test_no_seek_or_rotation_charged(self):
        env = Environment()
        disk = ConstantRateDisk(env, IBM_0661)

        def body(env):
            yield disk.access(300_000, 8, is_write=False)

        env.process(body(env))
        env.run()
        assert disk.stats.total_seek_ms == 0.0
        assert disk.stats.total_rotation_ms == 0.0

    def test_head_position_still_tracked(self):
        env = Environment()
        disk = ConstantRateDisk(env, IBM_0661)

        def body(env):
            yield disk.access(100 * IBM_0661.sectors_per_cylinder, 8, is_write=False)

        env.process(body(env))
        env.run()
        assert disk.head_cylinder == 100

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ConstantRateDisk(Environment(), IBM_0661, rate_per_s=0)

    def test_queueing_still_applies(self):
        env = Environment()
        disk = ConstantRateDisk(env, IBM_0661, rate_per_s=100.0)
        disk.access(0, 8, is_write=False)
        second = disk.access(8, 8, is_write=False)
        env.run()
        assert second.complete_ms == pytest.approx(20.0)
