"""Unit tests for the retry/backoff policy."""

import math

import pytest

from repro.faults.retry import RetryPolicy
from repro.faults.state import ERROR_MEDIA, ERROR_TIMEOUT


class TestValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_negative_base_delay_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_ms=-0.1)

    def test_shrinking_backoff_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_cap_below_base_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_ms=10.0, max_delay_ms=5.0)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_ms(-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["base_delay_ms", "backoff_factor", "max_delay_ms"])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RetryPolicy(**{name: value})


class TestBackoff:
    def test_delays_grow_exponentially(self):
        policy = RetryPolicy(base_delay_ms=0.5, backoff_factor=2.0, max_delay_ms=50.0)
        assert [policy.delay_ms(n) for n in range(4)] == [0.5, 1.0, 2.0, 4.0]

    def test_delay_is_capped(self):
        policy = RetryPolicy(base_delay_ms=1.0, backoff_factor=10.0, max_delay_ms=25.0)
        assert policy.delay_ms(0) == 1.0
        assert policy.delay_ms(1) == 10.0
        assert policy.delay_ms(2) == 25.0
        assert policy.delay_ms(9) == 25.0


class TestShouldRetry:
    def test_timeouts_retry_up_to_the_bound(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(ERROR_TIMEOUT, 0)
        assert policy.should_retry(ERROR_TIMEOUT, 1)
        assert not policy.should_retry(ERROR_TIMEOUT, 2)

    def test_media_errors_not_retried_by_default(self):
        assert not RetryPolicy().should_retry(ERROR_MEDIA, 0)

    def test_media_retry_opt_in_is_still_bounded(self):
        policy = RetryPolicy(max_retries=1, retry_media=True)
        assert policy.should_retry(ERROR_MEDIA, 0)
        assert not policy.should_retry(ERROR_MEDIA, 1)

    def test_zero_retries_means_one_attempt(self):
        assert not RetryPolicy(max_retries=0).should_retry(ERROR_TIMEOUT, 0)
