"""Unit tests for the Zipf hot-spot trace generator."""

import pytest

from repro.workload.patterns import zipf_hot_spot


class TestZipfHotSpot:
    def test_record_count_and_range(self):
        records = zipf_hot_spot(num_units=1000, count=200, working_set=50)
        assert len(records) == 200
        assert all(0 <= r.logical_unit < 50 for r in records)

    def test_skew_concentrates_on_low_ranks(self):
        skewed = zipf_hot_spot(num_units=1000, count=2000, skew=1.5, working_set=100)
        top_share = sum(1 for r in skewed if r.logical_unit < 10) / len(skewed)
        flat = zipf_hot_spot(num_units=1000, count=2000, skew=0.0, working_set=100)
        flat_share = sum(1 for r in flat if r.logical_unit < 10) / len(flat)
        assert top_share > 2 * flat_share

    def test_zero_skew_is_roughly_uniform(self):
        records = zipf_hot_spot(num_units=1000, count=5000, skew=0.0, working_set=10)
        counts = [0] * 10
        for record in records:
            counts[record.logical_unit] += 1
        assert max(counts) < 2 * min(counts)

    def test_read_fraction(self):
        records = zipf_hot_spot(num_units=100, count=1000, read_fraction=0.8)
        reads = sum(1 for r in records if not r.is_write)
        assert reads / 1000 == pytest.approx(0.8, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_hot_spot(num_units=10, count=5, working_set=20)
        with pytest.raises(ValueError):
            zipf_hot_spot(num_units=10, count=5, skew=-1)


    def test_replay_through_the_array(self):
        from repro.workload import TraceWorkload
        from tests.conftest import build_array

        array = build_array(with_datastore=True)
        trace = zipf_hot_spot(
            array.addressing.num_data_units, count=60, rate_per_s=500.0
        )
        workload = TraceWorkload(array.controller, trace)
        workload.run()
        array.env.run(until=workload.drained())
        assert workload.completed == 60
        assert workload.integrity_errors == []
