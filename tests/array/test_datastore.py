"""Unit tests for the data-integrity store."""

import pytest

from repro.array import ArrayAddressing, DataStore
from repro.array.datastore import POISON, initial_data_pattern
from repro.designs import complete_design
from repro.disk import scaled_spec
from repro.layout import DeclusteredLayout


@pytest.fixture
def store():
    layout = DeclusteredLayout(complete_design(5, 4))
    addressing = ArrayAddressing(layout, scaled_spec(3))
    return DataStore(addressing)


class TestInitialization:
    def test_every_stripe_starts_consistent(self, store):
        for stripe in range(store.addressing.num_stripes):
            assert store.stripe_is_consistent(stripe)

    def test_data_units_hold_the_pattern(self, store):
        layout = store.addressing.layout
        address = layout.stripe_unit(0, 0)
        assert store.read_unit(address.disk, address.offset) == initial_data_pattern(
            address.disk, address.offset
        )

    def test_pattern_is_position_dependent(self):
        assert initial_data_pattern(0, 0) != initial_data_pattern(0, 1)
        assert initial_data_pattern(0, 0) != initial_data_pattern(1, 0)


class TestMutation:
    def test_write_then_read(self, store):
        store.write_unit(2, 5, 0xABCD)
        assert store.read_unit(2, 5) == 0xABCD

    def test_write_wraps_to_64_bits(self, store):
        store.write_unit(0, 0, (1 << 64) + 5)
        assert store.read_unit(0, 0) == 5

    def test_write_breaks_consistency_until_parity_recomputed(self, store):
        layout = store.addressing.layout
        address = layout.stripe_unit(0, 0)
        store.write_unit(address.disk, address.offset, 0xFEED)
        assert not store.stripe_is_consistent(0)
        store.recompute_syndromes(0)
        assert store.stripe_is_consistent(0)

    def test_parity_value_equals_xor_of_data(self, store):
        units = store.addressing.layout.stripe_units(7)
        *data, parity = [store.read_unit(*unit) for unit in units]
        expected = 0
        for value in data:
            expected ^= value
        assert parity == expected


class TestFailureHandling:
    def test_poison_disk(self, store):
        store.poison_disk(1)
        assert store.read_unit(1, 0) == int(POISON)
        assert store.read_unit(1, store.addressing.mapped_units_per_disk - 1) == int(POISON)

    def test_clear_disk(self, store):
        store.poison_disk(1)
        store.clear_disk(1)
        assert store.read_unit(1, 0) == 0

    def test_other_disks_untouched_by_poison(self, store):
        before = store.read_unit(0, 0)
        store.poison_disk(1)
        assert store.read_unit(0, 0) == before
