"""Unit tests for trace-driven workload replay."""

import pytest

from repro.workload import TraceRecord, TraceWorkload, load_trace, save_trace
from tests.conftest import build_array


class TestTraceRecord:
    def test_line_round_trip(self):
        record = TraceRecord(at_ms=12.5, is_write=True, logical_unit=42, num_units=3)
        assert TraceRecord.from_line(record.to_line()) == record

    def test_default_num_units(self):
        record = TraceRecord.from_line("5.0 r 7")
        assert record.num_units == 1
        assert not record.is_write

    def test_malformed_lines_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord.from_line("5.0 x 7")
        with pytest.raises(ValueError):
            TraceRecord.from_line("5.0 r")

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(at_ms=-1.0, is_write=False, logical_unit=0)
        with pytest.raises(ValueError):
            TraceRecord(at_ms=0.0, is_write=False, logical_unit=0, num_units=0)
        with pytest.raises(ValueError):
            TraceRecord.from_line("1.0 r -5")


class TestTraceIo:
    def test_save_and_load(self, tmp_path):
        records = [
            TraceRecord(at_ms=0.0, is_write=False, logical_unit=1),
            TraceRecord(at_ms=10.0, is_write=True, logical_unit=2, num_units=4),
        ]
        path = tmp_path / "trace.txt"
        save_trace(path, records)
        assert load_trace(path) == records

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n1.0 r 5\n  # another\n2.0 w 6 2\n")
        records = load_trace(path)
        assert len(records) == 2


class TestTraceReplay:
    def test_replay_timing(self):
        array = build_array(with_datastore=False)
        records = [
            TraceRecord(at_ms=100.0, is_write=False, logical_unit=0),
            TraceRecord(at_ms=300.0, is_write=False, logical_unit=1),
        ]
        workload = TraceWorkload(array.controller, records)
        workload.run()
        array.env.run(until=workload.drained())
        samples = workload.recorder._samples
        assert len(samples) == 2
        # First access completed shortly after its 100 ms issue time.
        assert 100.0 < samples[0][0] < 300.0

    def test_out_of_order_records_are_sorted(self):
        array = build_array(with_datastore=False)
        records = [
            TraceRecord(at_ms=50.0, is_write=False, logical_unit=1),
            TraceRecord(at_ms=10.0, is_write=False, logical_unit=0),
        ]
        workload = TraceWorkload(array.controller, records)
        assert [r.at_ms for r in workload.records] == [10.0, 50.0]

    def test_verified_replay_is_clean(self):
        array = build_array(with_datastore=True)
        records = [
            TraceRecord(at_ms=i * 20.0, is_write=i % 2 == 0, logical_unit=i % 30)
            for i in range(40)
        ]
        workload = TraceWorkload(array.controller, records)
        workload.run()
        array.env.run(until=workload.drained())
        assert workload.integrity_errors == []
        assert workload.completed == 40

    def test_out_of_range_access_rejected(self):
        array = build_array()
        huge = array.addressing.num_data_units
        with pytest.raises(ValueError, match="exceeds"):
            TraceWorkload(
                array.controller,
                [TraceRecord(at_ms=0.0, is_write=False, logical_unit=huge)],
            )

    def test_stop_halts_replay(self):
        array = build_array(with_datastore=False)
        records = [
            TraceRecord(at_ms=i * 100.0, is_write=False, logical_unit=0)
            for i in range(10)
        ]
        workload = TraceWorkload(array.controller, records)
        workload.run()
        array.env.run(until=250.0)
        workload.stop()
        array.env.run(until=workload.drained())
        assert workload.submitted == 3

    def test_hot_spot_trace_hits_one_stripe(self):
        # A trace aimed at one stripe serializes on its lock — the kind
        # of pathology the uniform generator cannot produce.
        array = build_array(with_datastore=True)
        records = [
            TraceRecord(at_ms=0.0, is_write=True, logical_unit=0) for _ in range(5)
        ]
        workload = TraceWorkload(array.controller, records)
        workload.run()
        array.env.run(until=workload.drained())
        assert workload.integrity_errors == []
        stripe = array.layout.stripe_of_logical(0)
        assert array.controller.datastore.stripe_is_consistent(stripe)
