"""Unit tests for the difference-method (cyclic) construction."""

import pytest

from repro.designs import DesignError, cyclic_design
from repro.designs.difference import BaseBlock, develop_base_blocks


class TestDevelopment:
    def test_full_orbit_count(self):
        design = cyclic_design([[1, 2, 4]], modulus=7)
        assert design.b == 7

    def test_shift_arithmetic(self):
        design = cyclic_design([[1, 2, 4]], modulus=7)
        assert design.tuples[0] == (1, 2, 4)
        assert design.tuples[1] == (2, 3, 5)
        assert design.tuples[6] == (0, 1, 3)

    def test_period_limits_orbit(self):
        # [0, 7, 14] mod 21 is invariant under +7: period 7.
        design = develop_base_blocks(
            [BaseBlock(elements=(0, 7, 14), period=7)], modulus=21
        )
        assert design.b == 7
        assert design.tuples[-1] == (6, 13, 20)

    def test_mixed_periods(self):
        design = cyclic_design(
            [[0, 1, 3], [0, 4, 12], [0, 5, 11], [0, 7, 14]],
            modulus=21,
            periods=[None, None, None, 7],
        )
        assert design.b == 3 * 21 + 7

    def test_fano_difference_set_is_balanced(self):
        cyclic_design([[1, 2, 4]], modulus=7).validate()

    def test_invalid_family_rejected_by_default(self):
        # [0, 1, 2] mod 7 covers difference 1 twice and 4 never.
        with pytest.raises(DesignError):
            cyclic_design([[0, 1, 2]], modulus=7)

    def test_invalid_family_allowed_without_validation(self):
        # Developing alone checks no balance; cyclic_design always does.
        design = develop_base_blocks([BaseBlock(elements=(0, 1, 2))], modulus=7)
        assert design.b == 7
        assert not design.is_balanced()

    def test_periods_length_mismatch_rejected(self):
        with pytest.raises(DesignError, match="periods"):
            cyclic_design([[1, 2, 4]], modulus=7, periods=[None, None])

    def test_bad_modulus_rejected(self):
        with pytest.raises(DesignError):
            develop_base_blocks([BaseBlock(elements=(0, 1))], modulus=1)

    def test_bad_period_rejected(self):
        with pytest.raises(DesignError, match="period"):
            develop_base_blocks(
                [BaseBlock(elements=(0, 1, 2), period=10)], modulus=7
            )

    def test_elements_reduced_modulo(self):
        # [1, 2, 4] mod 7 is the Fano difference set, so this validates.
        design = cyclic_design([[8, 9, 11]], modulus=7)
        assert design.tuples[0] == (1, 2, 4)
