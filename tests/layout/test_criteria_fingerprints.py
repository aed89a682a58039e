"""Every criteria report the project produces, one digest per layout.

The criteria tests mostly pin verdicts. These digests pin the whole
report: each is the sha256 of ``(name, passed, detail, sorted metrics)``
for every report of one audit, one report per line, so a change to a
count, a sample, a metric's type or a word of a detail string shows. A
refactor of the criteria checks must leave every digest unchanged.
"""

import hashlib

import pytest

from repro.designs import complete_design
from repro.designs.tdesigns import cyclic_pq_design
from repro.experiments.builders import PAPER_STRIPE_SIZES, build_layout
from repro.experiments.campaign import CAMPAIGN_PQ_STRIPE_SIZES
from repro.layout import (
    CyclicArithmeticLayout,
    DeclusteredLayout,
    PermutationStripingLayout,
)
from repro.layout.criteria import evaluate_layout

from tests.conftest import dual_test_layout, sampled_criteria_reports

#: ``evaluate_layout(build_layout(21, G))`` for the paper's stripe sizes.
PAPER_DIGESTS = {
    3: "a008ec0798c5d3b487985961e03f77e6cec8b69e12e0c85c4ec90910176489cf",
    4: "1ca9831faf019f13681cf5369036a7f3651406cd5cc5d087860e37426923665c",
    5: "aeb8b2342cf27fcc5e921ad4764e9f79aac5037bf1f237bda4da6ba233032b21",
    6: "8fdeb025bf4b875a3092b8ad2cf5d4e74e0495bf662c9224e04d605d179d6094",
    10: "dbdb4db8e8fc6c4b2ad08d3e6fdc527c2bc5b60336bcf849b6515f8ca03a6bcf",
    18: "0ca640ecf627442a4bf29092d10d95b9b888e43204e8629858ea985162982291",
    21: "165ebe8f01e7ddd2701a5b3616650f6a5d4bb5f1f2bebcb7f48595558dd3179c",
}

#: ``evaluate_layout(build_layout(21, G, syndromes=2))`` for the P+Q
#: campaign's sizes.
PQ_DIGESTS = {
    5: "1616a0e0e34a240c54d17f6014814e7ec524031ef8c447681fadced3f12c081e",
    6: "46418accd12374d14de8fe75c6be3c7b7e0375f8beb3326eaa306bf956d0d863",
    10: "18c97f7791827101c340ea5904c476e07cc15f8704ce22f8e6acdee74e134a79",
    21: "f0e00c60179096621d3174e25f62e0c95b606f154b20e69930a146c1f6441044",
}

#: The P+Q test arrays of ``tests/conftest.py``, by disk count.
TEST_ARRAY_DIGESTS = {
    5: "ec9666a4f104aa15e725ea4839f38b4803212c516d51cdd25a15c7870864dad9",
    6: "a59a83ac504e5c6b8c92d249559bb0bd04d8570a0529f0d528dae54a0e77240a",
    7: "08aa612e3f7e58899b23b15310e3f8f7d0197d124d9f4c159d593432e6e0c7f6",
    8: "91dbd7c170abfc4ace7bba6c322bba608a863d928d58416cb3a3cea4202ae33f",
}

#: Single layouts, each built by its own constructor: the parity-rotation
#: ablation's unrotated table, the row-major data mapping, a cyclic
#: arithmetic layout, prime-width layouts on either side of the sampling
#: threshold, and a P+Q design that fails pair balance.
OTHER_LAYOUTS = {
    "unrotated-5-4": (
        lambda: DeclusteredLayout(complete_design(5, 4), rotate_parity=False),
        "60bb7b3cbbf6db36ecd65a43c8a1c0e42c4f80b9d18c56fc41763fb603dd2fed",
    ),
    "row-major-5-4": (
        lambda: DeclusteredLayout(complete_design(5, 4), data_mapping="row-major"),
        "9d90a60f5ef315fa0b338c2de9d12ce2a78b9533cbb6b34d44236eac1fc17d2d",
    ),
    "cyclic-7-3": (
        lambda: CyclicArithmeticLayout(((0, 1, 3),), 7),
        "90288de6baa1145dc3212253ef3369298e09b42b9a65b1641c3e4f7a0e49959c",
    ),
    "prime-13-5": (
        lambda: PermutationStripingLayout(13, 5),
        "8fa2c7ddf92fcba63f6b6a04cf68d38b9be488dafcfa6dfe2fd5843c61c3851a",
    ),
    "prime-257-4-pq": (
        lambda: PermutationStripingLayout(257, 4, num_syndromes=2),
        "ec35968f764a0e7a0050c32fe2c038fe43f2147adbcd09aa06c995d74a0c0cfb",
    ),
    "prime-1009-10": (
        lambda: PermutationStripingLayout(1009, 10),
        "7f4401aad1e2c1a97064a1d896e28c7356edcf57fc13f2c6bd4350719574a667",
    ),
    "cyclic-pq-13-4": (
        lambda: DeclusteredLayout(cyclic_pq_design(4), num_syndromes=2),
        "46e708eec2fbf0bc614bb32a05fa4e75968e368ddad1c981e1ef62c753bc9d7b",
    ),
}

#: Sampled reports of small layouts, which ``evaluate_layout`` audits in
#: full: the seeded sample must stay the same sample.
SAMPLED_LAYOUTS = {
    "prime-13-5": (
        lambda: PermutationStripingLayout(13, 5),
        "b418f9b7456aa4abccc7598254c9fc614dd63a0a7e6ed0b762d2c5b6f3487d40",
    ),
    "sqs-8-4-pq": (
        lambda: dual_test_layout(8),
        "4a0b93602a2f5b626f4a0815a1b5b490ce010e4c50879e640b249b52ed5cd3ea",
    ),
}


def report_digest(reports):
    digest = hashlib.sha256()
    for report in reports:
        line = repr(
            (report.name, report.passed, report.detail, sorted(report.metrics.items()))
        )
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("g", PAPER_STRIPE_SIZES)
def test_paper_layouts(g):
    assert report_digest(evaluate_layout(build_layout(21, g))) == PAPER_DIGESTS[g]


@pytest.mark.parametrize("g", CAMPAIGN_PQ_STRIPE_SIZES)
def test_pq_campaign_layouts(g):
    layout = build_layout(21, g, syndromes=2)
    assert report_digest(evaluate_layout(layout)) == PQ_DIGESTS[g]


@pytest.mark.parametrize("num_disks", sorted(TEST_ARRAY_DIGESTS))
def test_pq_test_arrays(num_disks):
    layout = dual_test_layout(num_disks)
    assert report_digest(evaluate_layout(layout)) == TEST_ARRAY_DIGESTS[num_disks]


@pytest.mark.parametrize("name", sorted(OTHER_LAYOUTS))
def test_other_layouts(name):
    make, expected = OTHER_LAYOUTS[name]
    assert report_digest(evaluate_layout(make())) == expected


@pytest.mark.parametrize("name", sorted(SAMPLED_LAYOUTS))
def test_sampled_reports(name):
    make, expected = SAMPLED_LAYOUTS[name]
    assert report_digest(sampled_criteria_reports(make())) == expected
