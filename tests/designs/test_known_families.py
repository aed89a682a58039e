"""Unit tests for the registered difference families."""

import pytest

from repro.designs import default_catalog
from repro.designs.known_families import KNOWN_FAMILIES, known_family_design


class TestKnownFamilies:
    @pytest.mark.parametrize("key", sorted(KNOWN_FAMILIES))
    def test_every_family_is_a_valid_bibd(self, key):
        v, k = key
        design = known_family_design(v, k)
        assert design.v == v
        assert design.k == k
        design.validate()

    def test_steiner_triples_have_lam_one(self):
        for v in (13, 15, 19, 25, 31, 37):
            assert known_family_design(v, 3).lam == 1

    def test_short_orbit_family(self):
        design = known_family_design(15, 3)
        assert design.b == 35  # 15 + 15 + 5 (period-5 orbit)

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            known_family_design(99, 3)

    def test_families_reach_the_catalog(self):
        catalog = default_catalog()
        design = catalog.exact(19, 3)
        assert design is not None
        assert design.b == 57  # the family, not C(19,3) = 969

    def test_catalog_prefers_smaller_designs(self):
        # (13, 4): the registered projective plane PG(2,3), b=13, not
        # the complete design's C(13, 4) = 715 tuples.
        catalog = default_catalog()
        (entry,) = [e for e in catalog.entries() if (e.v, e.k) == (13, 4)]
        assert entry.source == "projective-plane"
        assert catalog.exact(13, 4).b == 13

    def test_families_build_working_layouts(self):
        from repro.layout import DeclusteredLayout, evaluate_layout

        layout = DeclusteredLayout(known_family_design(13, 3))
        reports = {r.name: r for r in evaluate_layout(layout)}
        assert reports["distributed-reconstruction"].passed
        assert reports["distributed-parity"].passed
