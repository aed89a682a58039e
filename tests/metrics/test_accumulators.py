"""Unit tests for warmup-window-aware accumulators."""

import pytest

from repro.metrics import Counter, TimeWeightedGauge, WindowedDuration


class TestCounter:
    def test_counts_up(self):
        counter = Counter()
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().increment(-1)


class TestWindowedDuration:
    def test_interval_fully_inside_window(self):
        window = WindowedDuration(since_ms=100.0)
        window.add(200.0, 250.0)
        assert window.total_ms == 50.0

    def test_interval_straddling_boundary_is_clipped(self):
        window = WindowedDuration(since_ms=100.0)
        window.add(50.0, 150.0)
        assert window.total_ms == 50.0

    def test_interval_entirely_before_boundary_ignored(self):
        window = WindowedDuration(since_ms=100.0)
        window.add(10.0, 90.0)
        assert window.total_ms == 0.0

    def test_rejects_backward_interval(self):
        with pytest.raises(ValueError):
            WindowedDuration().add(20.0, 10.0)

    def test_utilization(self):
        window = WindowedDuration(since_ms=100.0)
        window.add(100.0, 150.0)
        window.add(180.0, 200.0)
        assert window.utilization(200.0) == pytest.approx(0.7)

    def test_zero_length_window_reports_zero(self):
        window = WindowedDuration(since_ms=100.0)
        assert window.utilization(100.0) == 0.0
        assert window.utilization(50.0) == 0.0  # end before boundary


class TestTimeWeightedGauge:
    def test_mean_weights_values_by_hold_time(self):
        gauge = TimeWeightedGauge()
        gauge.add(2, 0.0)   # depth 2 over [0, 10)
        gauge.add(-1, 10.0)  # depth 1 over [10, 30)
        assert gauge.mean(30.0) == pytest.approx((2 * 10 + 1 * 20) / 30)
        assert gauge.maximum == 2

    def test_time_before_boundary_is_excluded(self):
        gauge = TimeWeightedGauge(since_ms=100.0)
        gauge.add(8, 0.0)    # held through warmup — must not count
        gauge.add(-8, 100.0)
        gauge.add(1, 100.0)
        assert gauge.mean(200.0) == pytest.approx(1.0)

    def test_max_only_tracks_values_held_past_boundary(self):
        gauge = TimeWeightedGauge(since_ms=100.0)
        gauge.add(9, 0.0)
        gauge.add(-9, 50.0)  # spike lived entirely inside warmup
        gauge.add(2, 150.0)
        gauge.mean(200.0)
        assert gauge.maximum == 2

    def test_zero_length_window_reports_zero(self):
        gauge = TimeWeightedGauge(since_ms=100.0)
        gauge.add(3, 0.0)
        assert gauge.mean(100.0) == 0.0

    def test_summary_is_json_shape(self):
        gauge = TimeWeightedGauge()
        gauge.add(1, 0.0)
        assert gauge.summary(10.0) == {"mean": 1.0, "max": 1.0}
