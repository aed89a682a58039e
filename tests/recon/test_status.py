"""Unit tests for the reconstruction status map."""

import pytest

from repro.recon import ReconStatus
from repro.sim import Environment


@pytest.fixture
def status():
    return ReconStatus(Environment(), total_units=10)


class TestClaiming:
    def test_claims_in_offset_order(self, status):
        assert [status.claim_next() for _ in range(3)] == [0, 1, 2]

    def test_claims_skip_built_units(self, status):
        status.mark_built(0)
        status.mark_built(1)
        assert status.claim_next() == 2

    def test_exhaustion_returns_none(self, status):
        for _ in range(10):
            status.claim_next()
        assert status.claim_next() is None


class TestBuilding:
    def test_mark_built_counts(self, status):
        status.mark_built(3)
        assert status.built_count == 1
        assert status.is_built(3)
        assert not status.all_built

    def test_mark_built_idempotent(self, status):
        status.mark_built(3)
        status.mark_built(3)
        assert status.built_count == 1

    def test_completion_event_fires_once_all_built(self, status):
        for offset in range(10):
            assert not status.complete_event.triggered
            status.mark_built(offset)
        assert status.complete_event.triggered
        assert status.all_built

    def test_reconstruction_time(self):
        env = Environment()
        status = ReconStatus(env, total_units=2)
        status.started_at = env.now
        env.timeout(50.0)
        env.run()
        status.mark_built(0)
        status.mark_built(1)
        assert status.reconstruction_time_ms() == pytest.approx(50.0)

    def test_time_before_completion_raises(self, status):
        with pytest.raises(RuntimeError):
            status.reconstruction_time_ms()


class TestDirtying:
    def test_dirty_reverses_built(self, status):
        status.mark_built(4)
        status.mark_dirty(4)
        assert not status.is_built(4)
        assert status.built_count == 0
        assert status.dirtied_count == 1

    def test_dirty_rewinds_the_cursor(self, status):
        for _ in range(10):
            status.claim_next()
        status.mark_built(4)
        status.mark_dirty(4)
        assert status.claim_next() == 4

    def test_dirty_on_unbuilt_is_noop(self, status):
        status.mark_dirty(5)
        assert status.dirtied_count == 0

    def test_dirty_on_claimed_is_noop(self, status):
        offset = status.claim_next()
        status.mark_dirty(offset)
        assert status.is_claimed(offset)

    def test_dirty_after_completion_raises(self, status):
        for offset in range(10):
            status.mark_built(offset)
        with pytest.raises(RuntimeError):
            status.mark_dirty(0)


class TestValidation:
    def test_zero_units_rejected(self):
        with pytest.raises(ValueError):
            ReconStatus(Environment(), total_units=0)
