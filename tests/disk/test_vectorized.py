"""The vectorized service-time kernel: exact equality with the scalar
reference path, and the kernel switch."""

import typing

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.disk import IBM_0661
from repro.disk.vectorized import (
    AUTO_THRESHOLD,
    ENV_VAR,
    MODES,
    kernel_mode,
    model_for,
    service_times,
    service_times_scalar,
    service_times_vectorized,
)

SPT = IBM_0661.sectors_per_track
TOTAL = IBM_0661.total_sectors


class Candidate(typing.NamedTuple):
    start_sector: int
    sector_count: int


def _clamp(start: int, count: int) -> Candidate:
    return Candidate(start, min(count, TOTAL - start))


#: Random batches biased toward interesting shapes: single sectors,
#: exact-track transfers, and multi-track chains (the ragged tail).
_requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=TOTAL - 1),
        st.one_of(
            st.integers(min_value=1, max_value=8),
            st.sampled_from([SPT, SPT + 3, 2 * SPT, 3 * SPT]),
        ),
    ),
    min_size=1,
    max_size=32,
)


class TestExactEquality:
    @given(
        _requests,
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_vectorized_matches_scalar_bit_for_bit(self, raw, head, start_ms):
        # EXACT float equality is the contract — not approx. Any ULP of
        # drift would let the kernel switch change simulation results.
        model = model_for(IBM_0661)
        batch = [_clamp(start, count) for start, count in raw]
        scalar = service_times_scalar(model, head, start_ms, batch)
        vectorized = service_times_vectorized(model, head, start_ms, batch)
        assert list(vectorized) == scalar

    def test_empty_batch(self):
        model = model_for(IBM_0661)
        assert service_times_scalar(model, 0, 0.0, []) == []
        assert len(service_times_vectorized(model, 0, 0.0, [])) == 0

    def test_ragged_tail_lanes_match(self):
        # One single-sector lane next to a three-track chain: the chain
        # keeps running after the short lane is exhausted, which must
        # not perturb the short lane's clock.
        model = model_for(IBM_0661)
        batch = [Candidate(5, 1), Candidate(10 * SPT, 3 * SPT)]
        scalar = service_times_scalar(model, 3, 7.25, batch)
        vectorized = service_times_vectorized(model, 3, 7.25, batch)
        assert list(vectorized) == scalar


class TestKernelSwitch:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert kernel_mode() == "auto"

    @pytest.mark.parametrize("mode", MODES)
    def test_env_var_selects(self, monkeypatch, mode):
        monkeypatch.setenv(ENV_VAR, mode.upper() + " ")  # normalized
        assert kernel_mode() == mode

    def test_explicit_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "scalar")
        assert kernel_mode("vectorized") == "vectorized"

    def test_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "gpu")
        with pytest.raises(ValueError, match="unknown disk kernel mode"):
            kernel_mode()
        with pytest.raises(ValueError):
            kernel_mode("nope")

    def test_auto_dispatches_on_threshold(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        model = model_for(IBM_0661)
        small = [Candidate(i * 100, 1) for i in range(AUTO_THRESHOLD - 1)]
        large = small + [Candidate(0, 1)]
        # Below the crossover auto stays scalar (a list); at or above it
        # takes the numpy batch (an ndarray). Values agree either way.
        assert isinstance(service_times(model, 0, 0.0, small), list)
        assert isinstance(service_times(model, 0, 0.0, large), np.ndarray)

    def test_forced_modes_agree(self, monkeypatch):
        model = model_for(IBM_0661)
        batch = [Candidate(i * 997, 1 + i % 5) for i in range(10)]
        monkeypatch.setenv(ENV_VAR, "vectorized")
        forced_vec = service_times(model, 2, 3.0, batch)
        monkeypatch.setenv(ENV_VAR, "scalar")
        forced_scalar = service_times(model, 2, 3.0, batch)
        assert isinstance(forced_vec, np.ndarray)
        assert isinstance(forced_scalar, list)
        assert list(forced_vec) == forced_scalar
