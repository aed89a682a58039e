"""Exact placement of every table the project builds, one digest each.

The golden scenarios pin placement only where a scenario happens to
touch it. These digests pin every slot: each is the sha256 of one full
table, ``stripe_units(s)`` for every table stripe ``s`` as
``disk:offset`` pairs, one stripe per line. A refactor of the layout
constructors must leave every digest unchanged.
"""

import hashlib

import pytest

from repro.designs import complete_design
from repro.experiments.builders import PAPER_STRIPE_SIZES, build_layout
from repro.experiments.campaign import CAMPAIGN_PQ_STRIPE_SIZES
from repro.layout import DeclusteredLayout

from tests.conftest import build_dual_array

#: ``build_layout(21, G)`` for the paper's stripe sizes.
PAPER_DIGESTS = {
    3: "0cd975884ca21cd7e3b65594c2928401dd4d9c78fb765439e7aee60dedde39c9",
    4: "6a99be194c32b2932c69761cb57570a3312632046f28be99a2a33f45f74a8a16",
    5: "0af4511b14f9c92941a88504809581b9a3718f0078d22cf2d7a8a8447d90ff3c",
    6: "4a527c216e373b83216fc2041b540ea4e81891dc26664a4af05835fbc83c9558",
    10: "3da9797acf1cbdf47d5b15c0c889aaf73bf76a732a37e513947464340d196b1d",
    18: "c088e2b65872e4e2dcb2ff18a5a9691a0c8b4425f9cafc4817278b9b36e62d7a",
    21: "5ceabf6db7764eb213421eeab95b5d2d89e41ca7f7f099672330217945bb7e44",
}

#: ``build_layout(21, G, syndromes=2)`` for the P+Q campaign's sizes.
PQ_DIGESTS = {
    5: "c27b554faf237440698d6ce6db75dbd9f08f3204cc05bc2e887162e761d509cd",
    6: "9b713a7ff0c3a22aaf3f09a24d2e3406778b01d4486da72e990566d257d891b0",
    10: "787a0021a6bebfffa75b8253774b055668da020b28997d35e03b2a3da3dccfd4",
    21: "1151c868121493291b990e63c4dff2f447f6ebeb43a9284d731349507050940b",
}

#: The P+Q test arrays of ``tests/conftest.py``, by disk count: SQS(8)
#: declustered at C=8, the full-width rotation otherwise.
TEST_ARRAY_DIGESTS = {
    5: "a6c66851a0ee587f1a63391c4984e7030bf0277d695cfb8e67600b7d4c4d012d",
    6: "ec80e7f0c240096bb034929eb528111fcf4824b2e353366710a9b7f9e7fa60da",
    7: "2d3c3cd16e4c8cdc0dddc8d743c1f5f53e9401cc4870d9997fbe0af22c037aa2",
    8: "8921c6127c582c1a40639ca26bd78eaa83eb6322f8ec76aeafeb6086c39a8037",
}

#: The parity-rotation ablation's unrotated ``complete_design(5, 4)``.
UNROTATED_DIGEST = "7d36c4b9e30c07fe13afed0f9d473261d61890305633b774502e89700f8062d7"


def table_digest(layout):
    digest = hashlib.sha256()
    for s in range(layout.stripes_per_table):
        units = " ".join(f"{u.disk}:{u.offset}" for u in layout.stripe_units(s))
        digest.update(units.encode("ascii") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("g", PAPER_STRIPE_SIZES)
def test_paper_layouts(g):
    assert table_digest(build_layout(21, g)) == PAPER_DIGESTS[g]


@pytest.mark.parametrize("g", CAMPAIGN_PQ_STRIPE_SIZES)
def test_pq_campaign_layouts(g):
    assert table_digest(build_layout(21, g, syndromes=2)) == PQ_DIGESTS[g]


@pytest.mark.parametrize("num_disks", sorted(TEST_ARRAY_DIGESTS))
def test_pq_test_arrays(num_disks):
    layout = build_dual_array(num_disks).layout
    assert table_digest(layout) == TEST_ARRAY_DIGESTS[num_disks]


def test_unrotated_ablation_table():
    layout = DeclusteredLayout(complete_design(5, 4), rotate_parity=False)
    assert table_digest(layout) == UNROTATED_DIGEST
