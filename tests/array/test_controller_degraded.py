"""Degraded-mode behaviour: failed disk, no replacement installed."""

from repro.array.datastore import initial_data_pattern
from tests.conftest import build_array, total_disk_accesses


def find_logical_on_disk(array, disk):
    """A logical data unit living on the given disk."""
    for logical in range(array.addressing.num_data_units):
        if array.addressing.logical_unit_address(logical).disk == disk:
            return logical
    raise AssertionError(f"no data unit on disk {disk}")


def find_logical_with_parity_on_disk(array, disk):
    """A logical data unit (not itself on `disk`) whose parity is on `disk`."""
    layout = array.layout
    for logical in range(array.addressing.num_data_units):
        stripe = layout.stripe_of_logical(logical)
        if (
            layout.stripe_unit(stripe, layout.data_units_per_stripe).disk == disk
            and layout.logical_to_physical(logical).disk != disk
        ):
            return logical
    raise AssertionError(f"no stripe with parity on disk {disk}")


def find_logical_avoiding_disk(array, disk):
    """A logical unit whose whole stripe avoids `disk`."""
    layout = array.layout
    for logical in range(array.addressing.num_data_units):
        stripe = layout.stripe_of_logical(logical)
        if all(u.disk != disk for u in layout.stripe_units(stripe)):
            return logical
    raise AssertionError(f"every stripe touches disk {disk}")


class TestDegradedReads:
    def test_on_the_fly_read_costs_g_minus_1(self, small_array):
        controller = small_array.controller
        logical = find_logical_on_disk(small_array, 2)
        controller.fail_disk(2)
        request = small_array.run_op(controller.read(logical))
        assert total_disk_accesses(controller) == small_array.layout.stripe_size - 1
        assert request.paths == ["on-the-fly-read"]

    def test_on_the_fly_read_recovers_the_value(self, small_array):
        controller = small_array.controller
        logical = find_logical_on_disk(small_array, 2)
        address = small_array.addressing.logical_unit_address(logical)
        expected = initial_data_pattern(address.disk, address.offset)
        controller.fail_disk(2)
        request = small_array.run_op(controller.read(logical))
        assert request.read_values == [expected]

    def test_on_the_fly_read_after_write(self, small_array):
        controller = small_array.controller
        logical = find_logical_on_disk(small_array, 2)
        small_array.run_op(controller.write(logical, values=[0xBEEF]))
        controller.fail_disk(2)
        request = small_array.run_op(controller.read(logical))
        assert request.read_values == [0xBEEF]

    def test_surviving_reads_unaffected(self, small_array):
        controller = small_array.controller
        logical = find_logical_avoiding_disk(small_array, 2)
        controller.fail_disk(2)
        request = small_array.run_op(controller.read(logical))
        assert request.paths == ["read"]
        assert total_disk_accesses(controller) == 1


class TestDegradedWrites:
    def test_fold_write_costs_g_minus_2_reads_plus_parity_write(self, small_array):
        controller = small_array.controller
        logical = find_logical_on_disk(small_array, 2)
        controller.fail_disk(2)
        small_array.run_op(controller.write(logical, values=[0xF01D]))
        g = small_array.layout.stripe_size
        assert total_disk_accesses(controller) == (g - 2) + 1
        assert controller.stats.by_path == {"fold-write": 1}

    def test_folded_value_recoverable_on_the_fly(self, small_array):
        controller = small_array.controller
        logical = find_logical_on_disk(small_array, 2)
        controller.fail_disk(2)
        small_array.run_op(controller.write(logical, values=[0xF01D]))
        request = small_array.run_op(controller.read(logical))
        assert request.read_values == [0xF01D]

    def test_lost_parity_write_costs_one_access(self, small_array):
        # Section 7: "a user write induces only one, rather than four,
        # disk accesses" when the parity unit is lost.
        controller = small_array.controller
        logical = find_logical_with_parity_on_disk(small_array, 2)
        controller.fail_disk(2)
        small_array.run_op(controller.write(logical, values=[0xDA7A]))
        assert total_disk_accesses(controller) == 1
        assert controller.stats.by_path == {"data-only-write": 1}
        request = small_array.run_op(controller.read(logical))
        assert request.read_values == [0xDA7A]

    def test_unrelated_stripe_write_is_normal(self, small_array):
        controller = small_array.controller
        logical = find_logical_avoiding_disk(small_array, 2)
        controller.fail_disk(2)
        small_array.run_op(controller.write(logical, values=[0x1234]))
        assert controller.stats.by_path == {"rmw-write": 1}

    def test_degraded_large_write_falls_back_per_unit(self, small_array):
        controller = small_array.controller
        layout = small_array.layout
        # Find an aligned stripe touching disk 2.
        target = None
        for stripe in range(small_array.addressing.num_stripes):
            if any(u.disk == 2 for u in layout.stripe_units(stripe)):
                target = stripe
                break
        controller.fail_disk(2)
        base = target * layout.data_units_per_stripe
        small_array.run_op(controller.write(base, values=[1, 2, 3]))
        assert "large-write" not in controller.stats.by_path
        request = small_array.run_op(controller.read(base, num_units=3))
        assert request.read_values == [1, 2, 3]


class TestDegradedG3:
    def test_small_stripe_write_avoided_when_other_unit_lost(self):
        array = build_array(stripe_size=3)
        controller = array.controller
        layout = array.layout
        # Find a logical unit whose sibling data unit is on disk 2 and
        # whose own unit and parity are elsewhere.
        target = None
        for logical in range(array.addressing.num_data_units):
            stripe = layout.stripe_of_logical(logical)
            own = layout.logical_to_physical(logical)
            parity = layout.stripe_unit(stripe, layout.data_units_per_stripe)
            sibling = [
                u for u in layout.stripe_units(stripe) if u not in (own, parity)
            ][0]
            if sibling.disk == 2 and own.disk != 2 and parity.disk != 2:
                target = logical
                break
        controller.fail_disk(2)
        array.run_op(controller.write(target, values=[0xAB]))
        # Must fall back to a 4-access RMW rather than reading the lost sibling.
        assert controller.stats.by_path == {"rmw-write": 1}
        request = array.run_op(controller.read(target))
        assert request.read_values == [0xAB]


class TestPoisonDiscipline:
    def test_failed_disk_contents_are_poisoned(self, small_array):
        controller = small_array.controller
        controller.fail_disk(2)
        from repro.array.datastore import POISON

        assert controller.datastore.read_unit(2, 0) == int(POISON)

    def test_no_poison_leaks_into_degraded_reads(self, small_array):
        import random

        controller = small_array.controller
        rng = random.Random(11)
        controller.fail_disk(2)
        from repro.array.datastore import POISON

        for _ in range(30):
            logical = rng.randrange(small_array.addressing.num_data_units)
            request = small_array.run_op(controller.read(logical))
            assert request.read_values[0] != int(POISON)
