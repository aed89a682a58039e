"""The batch pricing in ``repro.disk.vectorized``: ``service_times``
prices each candidate exactly as the scalar ``service_components``
does, every one from the same head position and clock."""

import typing

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.disk import IBM_0661, DiskGeometry, SeekModel, service_components
from repro.disk.vectorized import service_times

SPT = IBM_0661.sectors_per_track
TOTAL = IBM_0661.total_sectors


class Candidate(typing.NamedTuple):
    start_sector: int
    sector_count: int


#: Empty batches, single sectors, exact-track transfers and multi-track
#: chains.
_candidates = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=TOTAL - 1),
        st.one_of(
            st.integers(min_value=1, max_value=8),
            st.sampled_from([SPT, SPT + 3, 2 * SPT, 3 * SPT]),
        ),
    ).map(lambda pair: Candidate(pair[0], min(pair[1], TOTAL - pair[0]))),
    max_size=16,
)


class TestExactEquality:
    @given(
        _candidates,
        st.integers(min_value=0, max_value=IBM_0661.cylinders - 1),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_vectorized_matches_scalar_bit_for_bit(self, candidates, head, start_ms):
        split = DiskGeometry(IBM_0661).split_by_track
        seek_time = SeekModel.for_spec(IBM_0661).seek_time
        expected = [
            service_components(
                split(candidate.start_sector, candidate.sector_count),
                head,
                1,
                start_ms,
                seek_time,
                IBM_0661.sector_time_ms,
                SPT,
                IBM_0661.head_switch_ms,
            )[0]
            for candidate in candidates
        ]
        # Exact float equality, not approx.
        assert service_times(IBM_0661, head, start_ms, candidates) == expected

    def test_empty_batch(self):
        assert service_times(IBM_0661, 0, 0.0, []) == []
