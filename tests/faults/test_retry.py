"""Unit tests for the controller's retry rules.

The schedule is fixed: a timed-out disk access is retried after each
delay of :data:`~repro.array.controller.RETRY_DELAYS_MS` in turn, and
a media error is never retried. These tests drive one access through
the controller's retry wrapper; the controller-level consequences
(foreground repair, escalation) are in ``tests/array/test_data_loss.py``.
"""

from repro.array.controller import RETRY_DELAYS_MS
from repro.faults.log import MEDIA_ERROR, RETRY, RETRY_EXHAUSTED, TRANSIENT_FAULT
from repro.faults.profile import FaultProfile
from repro.faults.state import ERROR_MEDIA, ERROR_TIMEOUT
from tests.conftest import build_array


def one_access(profile, prepare=None):
    """Run one read of logical unit 0's disk unit through the retry
    wrapper; returns the array, the unit's address and the event."""
    array = build_array(fault_profile=profile)
    controller = array.controller
    address = array.addressing.logical_unit_address(0)
    if prepare is not None:
        prepare(array, address)
    access = controller._disk_access(address, is_write=False)
    array.run_op(access)
    return array, address, access


class TestBackoff:
    def test_delays_grow_exponentially(self):
        assert RETRY_DELAYS_MS == (0.5, 1.0, 2.0)
        ratios = [b / a for a, b in zip(RETRY_DELAYS_MS, RETRY_DELAYS_MS[1:])]
        assert ratios == [2.0, 2.0]
        # The controller waits exactly these delays, in order.
        profile = FaultProfile(transient_error_prob=1.0, escalation_threshold=100,
                               seed=3)
        array, _, _ = one_access(profile)
        details = [e.detail for e in array.controller.fault_log.of_kind(RETRY)]
        assert details == [
            f"attempt {n + 1}, backoff {delay:.2f} ms"
            for n, delay in enumerate(RETRY_DELAYS_MS)
        ]


class TestShouldRetry:
    def test_timeouts_retry_up_to_the_bound(self):
        profile = FaultProfile(transient_error_prob=1.0, escalation_threshold=100,
                               seed=3)
        array, address, access = one_access(profile)
        log = array.controller.fault_log
        assert access.error == ERROR_TIMEOUT
        # One first attempt plus one retry per delay, then it gives up.
        assert array.controller.disks[address.disk].stats.completed == (
            1 + len(RETRY_DELAYS_MS)
        )
        assert log.count(TRANSIENT_FAULT) == 1 + len(RETRY_DELAYS_MS)
        assert log.count(RETRY) == len(RETRY_DELAYS_MS)
        assert [e.detail for e in log.of_kind(RETRY_EXHAUSTED)] == [
            f"gave up after {len(RETRY_DELAYS_MS)} retries"
        ]

    def test_media_errors_not_retried_by_default(self):
        def make_latent(array, address):
            state = array.controller.disks[address.disk].fault_state
            state.add_latent(array.addressing.unit_to_sector(address),
                             array.addressing.sectors_per_unit)

        array, address, access = one_access(FaultProfile(seed=3), make_latent)
        log = array.controller.fault_log
        assert access.error == ERROR_MEDIA
        assert array.controller.disks[address.disk].stats.completed == 1
        assert log.count(MEDIA_ERROR) == 1
        assert log.count(RETRY) == 0
        assert log.count(RETRY_EXHAUSTED) == 0
