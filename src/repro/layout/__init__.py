"""Parity layouts: mapping parity stripes onto an array of disks.

A layout answers two questions for an array of ``C`` disks with parity
stripes of ``G`` units (``G - 1`` data units plus one parity unit, or
``G - 2`` data units plus P and Q when ``num_syndromes=2``):

- *forward*: where do stripe ``s``'s units live, as ``(disk, offset)``
  pairs: all ``G`` of them (``stripe_units``) or unit ``i``
  (``stripe_unit``), in one *stripe order*, data units by position,
  then P, then Q; and
- *inverse*: given ``(disk, offset)``, which stripe and role is that
  unit.

Two families implement the :class:`~repro.layout.base.ParityLayout`
contract, and every constructor takes the syndrome count as a
parameter. The table-based family materializes its period as a lookup
table tiled down the disks: the left-symmetric RAID 5 layout (Figure
2-1 of the paper; the special case ``G = C``, RAID 6 with two
syndromes) and the block-design declustered layout (Section 4, Figures
2-3 and 4-2), whose check positions rotate across the duplications of
the design by one rule (:func:`~repro.layout.base.rotated_elements`).
The table-free family is one layout, permutation striping on a prime
width (:mod:`repro.layout.arithmetic`), which computes every mapping in
O(1) integer arithmetic with no table at all; that is what makes
C=1000+ arrays practical. All layouts are scored by the executable
layout criteria in :mod:`repro.layout.criteria` — exhaustively for
small arrays, by seeded sampling for large ones.
"""

from repro.layout.base import (
    PARITY_ROLE,
    Q_ROLE,
    LayoutError,
    ParityLayout,
    TableParityLayout,
    UnitAddress,
)
from repro.layout.declustered import DeclusteredLayout, build_full_table
from repro.layout.raid5 import LeftSymmetricRaid5Layout
from repro.layout.reddy import ReddyTwoGroupLayout
from repro.layout.arithmetic import PermutationStripingLayout
from repro.layout.criteria import (
    SAMPLING_THRESHOLD_DISKS,
    CriterionReport,
    evaluate_layout,
)

__all__ = [
    "CriterionReport",
    "DeclusteredLayout",
    "LayoutError",
    "LeftSymmetricRaid5Layout",
    "PARITY_ROLE",
    "ParityLayout",
    "PermutationStripingLayout",
    "Q_ROLE",
    "ReddyTwoGroupLayout",
    "SAMPLING_THRESHOLD_DISKS",
    "TableParityLayout",
    "UnitAddress",
    "build_full_table",
    "evaluate_layout",
]
