"""Property-based tests: layout invariants over many designs."""

import functools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.designs import boolean_quadruple_system, complete_design, default_catalog
from repro.experiments.builders import build_layout
from repro.layout import (
    DeclusteredLayout,
    LeftSymmetricRaid5Layout,
    PermutationStripingLayout,
    ReddyTwoGroupLayout,
)

# A representative slice of the catalog (kept small so the suite stays
# fast): every paper design plus some family members.
CATALOG_KEYS = [
    (21, 3), (21, 4), (21, 5), (21, 6), (21, 10),
    (7, 3), (11, 5), (13, 4), (9, 3), (25, 5),
]

#: One layout or two of every other family, so the stripe order is
#: pinned wherever a layout is built: P+Q declustered, the
#: left-symmetric rotation, Reddy's two groups, permutation striping
#: at both syndrome counts, and a row-major table.
FAMILY_LAYOUTS = [
    lambda: DeclusteredLayout(boolean_quadruple_system(3), num_syndromes=2),
    lambda: build_layout(21, 5, syndromes=2),
    lambda: LeftSymmetricRaid5Layout(5),
    lambda: LeftSymmetricRaid5Layout(6, num_syndromes=2),
    lambda: ReddyTwoGroupLayout(complete_design(6, 3)),
    lambda: PermutationStripingLayout(7, 3),
    lambda: PermutationStripingLayout(13, 5, num_syndromes=2),
    lambda: DeclusteredLayout(complete_design(5, 4), data_mapping="row-major"),
]


def catalog_layout(key):
    v, k = key
    return DeclusteredLayout(default_catalog().exact(v, k))


@functools.lru_cache(maxsize=None)
def every_layout():
    """The catalog slice and every other family, built once."""
    return tuple(catalog_layout(key) for key in CATALOG_KEYS) + tuple(
        make() for make in FAMILY_LAYOUTS
    )


@st.composite
def layout_and_offset(draw):
    layout = catalog_layout(draw(st.sampled_from(CATALOG_KEYS)))
    disk = draw(st.integers(min_value=0, max_value=layout.num_disks - 1))
    offset = draw(st.integers(min_value=0, max_value=3 * layout.table_depth - 1))
    return layout, disk, offset


class TestInverseMapping:
    @given(st.integers(min_value=0), st.integers(min_value=0))
    @settings(max_examples=60, deadline=None)
    def test_stripe_of_roundtrips(self, disk_draw, offset_draw):
        for layout in every_layout():
            disk = disk_draw % layout.num_disks
            offset = offset_draw % (3 * layout.table_depth)
            stripe, role = layout.stripe_of(disk, offset)
            address = layout.stripe_unit(stripe, layout.unit_roles.index(role))
            assert (address.disk, address.offset) == (disk, offset)

    @given(layout_and_offset())
    @settings(max_examples=60, deadline=None)
    def test_logical_roundtrip(self, case):
        layout, disk, offset = case
        logical = layout.physical_to_logical(disk, offset)
        if logical is None:
            return
        address = layout.logical_to_physical(logical)
        assert (address.disk, address.offset) == (disk, offset)


class TestStripeInvariants:
    @given(st.sampled_from(CATALOG_KEYS), st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_stripes_never_repeat_a_disk(self, key, stripe):
        layout = catalog_layout(key)
        disks = [u.disk for u in layout.stripe_units(stripe)]
        assert len(set(disks)) == layout.stripe_size

    @given(st.integers(min_value=0))
    @settings(max_examples=40, deadline=None)
    def test_every_unit_of_a_stripe_points_back(self, stripe_draw):
        # Over two periods, so the tiling shift is covered too.
        for layout in every_layout():
            stripe = stripe_draw % (2 * layout.stripes_per_table)
            units = layout.stripe_units(stripe)
            assert len(units) == layout.stripe_size
            for i, role in enumerate(layout.unit_roles):
                assert layout.stripe_unit(stripe, i) == units[i]
                assert layout.stripe_of(units[i].disk, units[i].offset) == (stripe, role)


class TestCoverage:
    @given(st.sampled_from(CATALOG_KEYS))
    @settings(max_examples=len(CATALOG_KEYS), deadline=None)
    def test_every_slot_in_a_table_is_mapped_exactly_once(self, key):
        layout = catalog_layout(key)
        seen = set()
        for stripe in range(layout.stripes_per_table):
            for unit in layout.stripe_units(stripe):
                slot = (unit.disk, unit.offset)
                assert slot not in seen
                seen.add(slot)
        assert len(seen) == layout.num_disks * layout.table_depth

    @given(st.sampled_from([(5, 3), (5, 4), (7, 3)]))
    @settings(max_examples=3, deadline=None)
    def test_complete_design_layouts_cover_all_slots(self, key):
        v, k = key
        layout = DeclusteredLayout(complete_design(v, k))
        logicals = set()
        for stripe in range(layout.stripes_per_table):
            for j in range(layout.data_units_per_stripe):
                logicals.add(stripe * layout.data_units_per_stripe + j)
        assert len(logicals) == layout.stripes_per_table * (k - 1)
