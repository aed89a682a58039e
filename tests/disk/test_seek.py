"""Unit tests for the seek-time model."""

import hashlib

import pytest

from repro.disk import IBM_0661, DiskSpec, SeekModel, scaled_spec


class TestCalibration:
    def test_endpoints_exact(self):
        model = SeekModel(IBM_0661)
        assert model.seek_time(1) == pytest.approx(2.0)
        assert model.seek_time(948) == pytest.approx(25.0)

    def test_average_matches_spec(self):
        model = SeekModel(IBM_0661)
        assert model.average_over_random_seeks() == pytest.approx(12.5, abs=1e-6)

    def test_scaled_spec_recalibrates(self):
        # Smaller disks keep the published (min, avg, max), so the fit
        # hits all three at every size except 3 cylinders, where the
        # constraints are dependent (TestPinnedBits pins that curve).
        model = SeekModel(scaled_spec(13))
        assert model.seek_time(1) == pytest.approx(2.0)
        assert model.seek_time(12) == pytest.approx(25.0)
        assert model.average_over_random_seeks() == pytest.approx(12.5, abs=1e-6)


class TestShape:
    def test_zero_distance_is_free(self):
        assert SeekModel(IBM_0661).seek_time(0) == 0.0

    def test_monotonically_nondecreasing(self):
        model = SeekModel(IBM_0661)
        times = [model.seek_time(d) for d in range(1, 949)]
        assert all(b >= a - 1e-9 for a, b in zip(times, times[1:]))

    def test_within_bounds(self):
        model = SeekModel(IBM_0661)
        for d in (1, 10, 100, 500, 948):
            assert 2.0 - 1e-9 <= model.seek_time(d) <= 25.0 + 1e-9

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            SeekModel(IBM_0661).seek_time(-1)

    def test_two_cylinder_degenerate_disk(self):
        model = SeekModel(scaled_spec(2))
        assert model.seek_time(1) == pytest.approx(2.0)

    def test_three_cylinder_fit_misses_the_spec(self):
        # With D = 2 the mean row is 2/3 of the first plus 1/3 of the
        # second, so the system is singular. The curve every recorded
        # 3-cylinder result used is kept: 4 and 24 ms, not 2 and 25.
        model = SeekModel(scaled_spec(3))
        assert model.table == (0.0, 4.0, 24.0)
        assert model.average_over_random_seeks() == pytest.approx(32 / 3)


#: tests/disk/test_specs.py's hand-made spec (1.0 / 3.0 / 6.0 ms, 10 cylinders).
SMALL_SPEC = DiskSpec(
    name="small",
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


def _table_digest(table) -> str:
    digest = hashlib.sha256()
    for entry in table:
        digest.update(float.hex(entry).encode() + b"\n")
    return digest.hexdigest()


class TestPinnedBits:
    """The fitted curve's exact bits, recorded from the numpy fit.

    Every simulated time goes through this table, so a fit that drifts
    by one ulp anywhere changes results. The values are recorded
    constants, never a live ``np.linalg.solve``: a solver's last bits
    depend on its BLAS.
    """

    PINS = [
        (
            scaled_spec(2),
            ("0x1.0000000000000p+1", "0x0.0p+0", "0x0.0p+0"),
            "4dfa49d7659ec6e7e87f9f8ab9fc4fc9615bec6dcd16ed1b6eedfb167a5fac11",
            "0x1.0000000000000p+1",
        ),
        (
            scaled_spec(3),
            ("0x1.0071addef74fep+54", "-0x1.b5c703344ca57p+54", "0x1.6aaaaaaaaaab4p+53"),
            "0b0953e4ab27bc6a9e6b9f722f92af42103127bc79812976b4037749439fe8ab",
            "0x1.5555555555555p+3",
        ),
        (
            scaled_spec(4),
            ("-0x1.e54fd7fe09322p+6", "0x1.60c8a4cd5d012p+7", "-0x1.a882e33961a05p+5"),
            "9a7a269fcd2a9e7b10c4e4a02dbc5a4bc6369a7085169ad7c222a3562abb4e48",
            "0x1.9000000000002p+3",
        ),
        (
            scaled_spec(13),
            ("-0x1.3d77ea0a53bedp+3", "0x1.955d622b9be89p+3", "-0x1.7e578214829bbp-1"),
            "bb82869bcac1713dcc4a7cf1775d930e55a943cdf6e5f463dc76a90c8291a6c2",
            "0x1.8fffffffffffep+3",
        ),
        (
            scaled_spec(18),
            ("-0x1.98a6f3f356710p+2", "0x1.143f81d2ee257p+3", "-0x1.fb01f650bb3d5p-3"),
            "10dae68d2521457341127bd8ec7d393d0c7bd86726aa9c4ce488c4901bb9234a",
            "0x1.8ffffffffffffp+3",
        ),
        (
            scaled_spec(65),
            ("-0x1.a29abd2660368p-1", "0x1.61293c0e38c63p+1", "0x1.df5cced7d1dbbp-5"),
            "b5c263c5e2f0295e7f018d894651918edf204e99bf9f7714bfb98a0ad87cfa20",
            "0x1.8fffffffffffep+3",
        ),
        (
            IBM_0661,
            ("0x1.7a70ef496f8fap+0", "0x1.06f45016b6610p-1", "0x1.0a74559a9ff1fp-7"),
            "e328bf94629ee20e3cea3d12f2c219a34edfb18361b46f573da3e53bb60eb066",
            "0x1.9000000000000p+3",
        ),
        (
            SMALL_SPEC,
            ("-0x1.3ad064fd254b9p+0", "0x1.11e043536e326p+1", "0x1.70fde5648e6cfp-4"),
            "697da16451f66e622fe312eb5071c125cf31f3d67827a180594f3c6989f5c82b",
            "0x1.8000000000000p+1",
        ),
    ]

    @pytest.mark.parametrize(
        "spec, coefficients, table_sha256, average",
        PINS,
        ids=[pin[0].name for pin in PINS],
    )
    def test_fit_is_bit_identical(self, spec, coefficients, table_sha256, average):
        model = SeekModel(spec)
        assert tuple(float.hex(c) for c in model.coefficients) == coefficients
        assert len(model.table) == spec.cylinders
        assert _table_digest(model.table) == table_sha256
        assert float.hex(model.average_over_random_seeks()) == average
