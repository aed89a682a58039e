"""Unit tests for the reconstruction sweep."""

import pytest

from repro.array.datastore import initial_data_pattern
from repro.layout.base import PARITY_ROLE
from repro.recon import BASELINE, REDIRECT_PIGGYBACK, Reconstructor, USER_WRITES
from repro.sim.process import Process
from tests.conftest import build_array

FAILED = 1


def reconstruct(array, workers=1):
    controller = array.controller
    controller.fail_disk(FAILED)
    controller.install_replacement()
    reconstructor = Reconstructor(controller, workers=workers)
    done = reconstructor.start()
    array.env.run(until=done)
    return reconstructor


def replacement_is_bit_exact(array):
    """Every unit of the rebuilt disk equals XOR of its stripe peers."""
    controller = array.controller
    layout = array.layout
    store = controller.datastore
    for offset in range(array.addressing.mapped_units_per_disk):
        stripe, role = layout.stripe_of(FAILED, offset)
        expected = 0
        for unit in layout.stripe_units(stripe):
            if unit.disk != FAILED:
                expected ^= store.read_unit(unit.disk, unit.offset)
        if role != PARITY_ROLE:
            # Data unit: compare against its pre-failure pattern too.
            if store.read_unit(FAILED, offset) != initial_data_pattern(FAILED, offset):
                return False
        if store.read_unit(FAILED, offset) != expected:
            return False
    return True


class TestSweepCorrectness:
    def test_quiescent_rebuild_is_bit_exact(self, small_array):
        reconstruct(small_array)
        assert replacement_is_bit_exact(small_array)

    def test_all_units_swept_when_no_user_activity(self, small_array):
        reconstructor = reconstruct(small_array)
        result = reconstructor.result()
        assert result.swept_units == result.total_units
        assert result.user_built_units == 0

    def test_repair_returns_array_to_fault_free(self, small_array):
        reconstruct(small_array)
        assert small_array.controller.faults.fault_free

    def test_reads_after_repair_hit_the_replacement_directly(self, small_array):
        from tests.array.test_controller_degraded import find_logical_on_disk

        logical = find_logical_on_disk(small_array, FAILED)
        reconstruct(small_array)
        request = small_array.run_op(small_array.controller.read(logical))
        assert request.paths == ["read"]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_worker_count_preserves_correctness(self, workers):
        array = build_array()
        reconstruct(array, workers=workers)
        assert replacement_is_bit_exact(array)

    def test_parallel_is_faster_than_single(self):
        single = build_array()
        reconstruct(single, workers=1)
        parallel = build_array()
        reconstruct(parallel, workers=8)
        assert parallel.env.now < single.env.now

    def test_raid5_rebuild_is_bit_exact(self, raid5_array):
        reconstruct(raid5_array)
        assert replacement_is_bit_exact(raid5_array)


class TestCycleRecords:
    def test_one_cycle_per_swept_unit(self, small_array):
        reconstructor = reconstruct(small_array)
        result = reconstructor.result()
        assert len(result.cycles) == result.swept_units

    def test_phases_are_positive(self, small_array):
        reconstructor = reconstruct(small_array)
        for cycle in reconstructor.cycles:
            assert cycle.read_phase_ms > 0
            assert cycle.write_phase_ms > 0
            assert cycle.cycle_ms == pytest.approx(
                cycle.read_phase_ms + cycle.write_phase_ms
            )

    def test_phase_summary_tail_window(self, small_array):
        reconstructor = reconstruct(small_array)
        read_phase, write_phase = reconstructor.result().phase_summary(last_n=50)
        assert read_phase.count == 50
        assert write_phase.count == 50
        assert read_phase.mean_ms > 0

    def test_quiescent_sweep_offsets_are_ordered(self, small_array):
        reconstructor = reconstruct(small_array, workers=1)
        offsets = [c.offset for c in reconstructor.cycles]
        assert offsets == sorted(offsets)


class TestLifecycle:
    def test_reconstructor_requires_replacement(self, small_array):
        small_array.controller.fail_disk(FAILED)
        with pytest.raises(RuntimeError, match="replacement"):
            Reconstructor(small_array.controller)

    def test_double_start_rejected(self, small_array):
        controller = small_array.controller
        controller.fail_disk(FAILED)
        controller.install_replacement()
        reconstructor = Reconstructor(controller)
        reconstructor.start()
        with pytest.raises(RuntimeError, match="already"):
            reconstructor.start()

    def test_workers_are_capped_at_the_unit_count(self):
        def rebuild(workers):
            array = build_array(cylinders=2)
            finished = []
            array.env.add_observer(
                lambda event: finished.append(event.name)
                if isinstance(event, Process) and event.name.startswith("recon-worker-")
                else None
            )
            reconstructor = reconstruct(array, workers=workers)
            array.env.run()  # let every worker return
            return reconstructor, len(finished)

        units = build_array(cylinders=2).addressing.mapped_units_per_disk
        capped, capped_started = rebuild(units + 3)
        full, full_started = rebuild(units)
        assert capped_started == full_started == units
        assert capped.result() == full.result()

    def test_zero_workers_rejected(self, small_array):
        controller = small_array.controller
        controller.fail_disk(FAILED)
        controller.install_replacement()
        with pytest.raises(ValueError):
            Reconstructor(controller, workers=0)

    def test_result_reports_user_built_split(self):
        array = build_array(algorithm=USER_WRITES)
        controller = array.controller
        from tests.array.test_controller_degraded import find_logical_on_disk

        logical = find_logical_on_disk(array, FAILED)
        controller.fail_disk(FAILED)
        controller.install_replacement()
        # One user reconstruct-write before the sweep starts.
        array.run_op(controller.write(logical, values=[0xCAFE]))
        reconstructor = Reconstructor(controller)
        array.env.run(until=reconstructor.start())
        result = reconstructor.result()
        assert result.user_built_units == 1
        assert result.swept_units == result.total_units - 1


class TestConcurrentUserActivity:
    @pytest.mark.parametrize(
        "algorithm", [BASELINE, USER_WRITES, REDIRECT_PIGGYBACK]
    )
    def test_rebuild_correct_under_load(self, algorithm):
        import random

        array = build_array(algorithm=algorithm)
        controller = array.controller
        rng = random.Random(23)
        controller.fail_disk(FAILED)
        controller.install_replacement()
        reconstructor = Reconstructor(controller, workers=4)
        done = reconstructor.start()
        written = {}

        def chatter(env):
            while not done.triggered:
                logical = rng.randrange(array.addressing.num_data_units)
                if rng.random() < 0.5:
                    value = rng.getrandbits(64)
                    yield controller.write(logical, values=[value])
                    written[logical] = value
                else:
                    yield controller.read(logical)
                yield env.timeout(5.0)

        array.env.process(chatter(array.env))
        array.env.run(until=done)
        array.env.run(until=array.env.now + 1000.0)  # drain chatter
        # Every write must be readable, every stripe consistent.
        for logical, value in written.items():
            request = array.run_op(controller.read(logical))
            assert request.read_values == [value], (algorithm.name, logical)
        store = controller.datastore
        for stripe in range(array.addressing.num_stripes):
            assert store.stripe_is_consistent(stripe), (algorithm.name, stripe)
