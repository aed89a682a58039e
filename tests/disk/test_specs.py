"""Unit tests for disk specifications."""

import pytest

from repro.disk import IBM_0661, DiskSpec, scaled_spec


class TestIbm0661:
    """The reference drive must match Table 5-1(b) exactly."""

    def test_geometry(self):
        assert IBM_0661.cylinders == 949
        assert IBM_0661.tracks_per_cylinder == 14
        assert IBM_0661.sectors_per_track == 48
        assert IBM_0661.bytes_per_sector == 512

    def test_timing(self):
        assert IBM_0661.revolution_ms == 13.9
        assert IBM_0661.seek_min_ms == 2.0
        assert IBM_0661.seek_avg_ms == 12.5
        assert IBM_0661.seek_max_ms == 25.0
        assert IBM_0661.track_skew_sectors == 4

    def test_capacity_is_about_320_mb(self):
        assert IBM_0661.capacity_bytes == pytest.approx(326e6, rel=0.02)

    def test_sector_time(self):
        assert IBM_0661.sector_time_ms == pytest.approx(13.9 / 48)

    def test_full_scan_is_about_three_minutes(self):
        # The paper: "the three minutes it takes to read all sectors".
        assert IBM_0661.full_scan_min_ms() == pytest.approx(184_675, rel=0.001)

    def test_head_switch_covers_the_skew(self):
        assert IBM_0661.head_switch_ms == pytest.approx(4 * IBM_0661.sector_time_ms)


class TestScaledSpec:
    def test_only_cylinders_change(self):
        spec = scaled_spec(13)
        assert spec.cylinders == 13
        assert spec.sectors_per_track == IBM_0661.sectors_per_track
        assert spec.seek_avg_ms == IBM_0661.seek_avg_ms

    def test_name_reflects_scaling(self):
        assert "c13" in scaled_spec(13).name

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            scaled_spec(1)


class TestValidation:
    def make(self, **overrides):
        base = dict(
            name="test",
            cylinders=10,
            tracks_per_cylinder=2,
            sectors_per_track=8,
            bytes_per_sector=512,
            revolution_ms=10.0,
            seek_min_ms=1.0,
            seek_avg_ms=3.0,
            seek_max_ms=6.0,
            track_skew_sectors=1,
        )
        base.update(overrides)
        return DiskSpec(**base)

    def test_valid_spec(self):
        spec = self.make()
        assert spec.total_sectors == 160
        assert spec.total_tracks == 20

    def test_bad_seek_ordering_rejected(self):
        with pytest.raises(ValueError):
            self.make(seek_avg_ms=10.0)  # avg > max

    def test_zero_geometry_rejected(self):
        with pytest.raises(ValueError):
            self.make(cylinders=0)

    def test_single_cylinder_rejected(self):
        # One cylinder leaves the seek curve nothing to fit.
        with pytest.raises(ValueError, match="at least 2 cylinders"):
            self.make(cylinders=1)

    def test_two_cylinders_accepted(self):
        assert self.make(cylinders=2).cylinders == 2

    @pytest.mark.parametrize(
        "revolution_ms", [0.0, -13.9, float("nan"), float("inf"), -float("inf")]
    )
    def test_unrunnable_revolution_rejected(self, revolution_ms):
        with pytest.raises(ValueError, match="revolution time"):
            self.make(revolution_ms=revolution_ms)

    @pytest.mark.parametrize(
        "seeks",
        [
            dict(seek_max_ms=float("inf")),
            dict(seek_avg_ms=float("inf"), seek_max_ms=float("inf")),
            dict(
                seek_min_ms=float("inf"),
                seek_avg_ms=float("inf"),
                seek_max_ms=float("inf"),
            ),
            dict(seek_min_ms=float("nan")),
            dict(seek_avg_ms=float("nan")),
            dict(seek_max_ms=float("nan")),
            dict(seek_min_ms=0.0),
            dict(seek_min_ms=-1.0),
        ],
        ids=lambda seeks: ",".join(f"{k}={v}" for k, v in seeks.items()),
    )
    def test_unrunnable_seek_times_rejected(self, seeks):
        with pytest.raises(ValueError, match="seek times"):
            self.make(**seeks)

    def test_excessive_skew_rejected(self):
        with pytest.raises(ValueError):
            self.make(track_skew_sectors=8)
