"""Unit tests for the BlockDesign type and its validation."""

import pytest

from repro.designs import BlockDesign, DesignError

FANO = BlockDesign(
    v=7,
    tuples=((0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)),
    name="fano",
)


class TestParameters:
    def test_fano_parameters(self):
        assert (FANO.b, FANO.v, FANO.k, FANO.r, FANO.lam) == (7, 7, 3, 3, 1)

    def test_alpha(self):
        assert FANO.alpha() == pytest.approx(2 / 6)

    def test_counting_identities(self):
        assert FANO.b * FANO.k == FANO.v * FANO.r
        assert FANO.r * (FANO.k - 1) == FANO.lam * (FANO.v - 1)

    def test_is_symmetric(self):
        assert FANO.is_symmetric()

    def test_summary_mentions_all_parameters(self):
        text = FANO.summary()
        for fragment in ("b=7", "v=7", "k=3", "r=3", "lam=1"):
            assert fragment in text


class TestValidation:
    def test_fano_is_balanced(self):
        assert FANO.is_balanced()
        FANO.validate()  # no exception

    def test_replication_counts(self):
        assert FANO.replication_counts() == [3] * 7

    def test_pair_counts_all_one(self):
        assert set(FANO.pair_counts().values()) == {1}

    def test_unbalanced_replication_detected(self):
        lopsided = BlockDesign(v=4, tuples=((0, 1), (0, 2), (0, 3)))
        with pytest.raises(DesignError, match="appear"):
            lopsided.validate()

    def test_unbalanced_pairs_detected(self):
        # Every object appears twice but pair (0,1) twice, (0,2) never.
        design = BlockDesign(v=4, tuples=((0, 1), (1, 0), (2, 3), (3, 2)))
        with pytest.raises(DesignError, match="pair"):
            design.validate()

    def test_indivisible_bk_detected(self):
        design = BlockDesign(v=3, tuples=((0, 1), (1, 2)))
        with pytest.raises(DesignError, match="divisible"):
            design.validate()


class TestConstructionErrors:
    def test_empty_tuples_rejected(self):
        with pytest.raises(DesignError):
            BlockDesign(v=3, tuples=())

    def test_nonuniform_tuple_sizes_rejected(self):
        with pytest.raises(DesignError, match="non-uniform"):
            BlockDesign(v=4, tuples=((0, 1), (0, 1, 2)))

    def test_repeated_object_in_tuple_rejected(self):
        with pytest.raises(DesignError, match="repeats"):
            BlockDesign(v=4, tuples=((0, 0, 1),))

    def test_object_out_of_range_rejected(self):
        with pytest.raises(DesignError, match="outside"):
            BlockDesign(v=3, tuples=((0, 5),))

    def test_singleton_tuples_rejected(self):
        with pytest.raises(DesignError, match="at least 2"):
            BlockDesign(v=3, tuples=((0,), (1,)))

    def test_tuple_larger_than_v_rejected(self):
        with pytest.raises(DesignError):
            BlockDesign(v=2, tuples=((0, 1, 1),))
