"""The block-design-based declustered parity layout (paper Section 4.2).

Construction, exactly as the paper describes:

1. Associate disks with design objects and parity stripes with tuples.
2. Lay out one *block design table*: stripe unit ``j`` of stripe ``i``
   goes to the lowest free offset of the disk named by the ``j``-th
   element of tuple ``i mod b``; the parity unit occupies one chosen
   element position.
3. A single table puts parity on the same element of every tuple and
   violates the distributed-parity criterion (Figure 2-3), so the table
   is duplicated ``G`` times — the *full block design table* — rotating
   the parity position across duplications (Figure 4-2). Each disk then
   holds exactly ``r`` parity units per full table.
4. The full table tiles down the disks until every unit is mapped.

P+Q stripes (``num_syndromes=2``) are declustered by the same
procedure with two rotating check positions, P at element ``G-1-d``
and Q at ``G-2-d`` of duplication ``d``, so every disk also holds ``r``
Q units per full table. Any validated BIBD with ``k >= 3`` works; a
``t = 3`` design (:mod:`repro.designs.tdesigns`) additionally balances
the reconstruction load over survivors when *two* disks have failed.
"""

from __future__ import annotations

import typing

from repro.designs.design import BlockDesign
from repro.layout.base import (
    LayoutError,
    TableParityLayout,
    UnitAddress,
    rotated_elements,
)


def build_full_table(
    design: BlockDesign, rotate_parity: bool = True, num_syndromes: int = 1
) -> typing.List[typing.List[UnitAddress]]:
    """Build the full block design table as a list of stripes.

    Each stripe is a list of ``G`` slots in stripe order: the data
    slots in element order, then parity, then Q (with two syndromes).

    Parameters
    ----------
    design:
        A block design with ``v = C`` objects and tuples of size
        ``k = G``.
    rotate_parity:
        When True (the paper's scheme), make ``G`` duplications of the
        design, ordering duplication ``d``'s elements as
        :func:`~repro.layout.base.rotated_elements` gives them, so the
        check units rotate. When False, build a single table with parity
        always on the last element — this deliberately violates the
        distributed-parity criterion and exists for the ablation bench.
    num_syndromes:
        Check units per stripe: 1 (parity) or 2 (P+Q).
    """
    g = design.k
    next_free = [0] * design.v
    table: typing.List[typing.List[UnitAddress]] = []
    duplications = range(g) if rotate_parity else (0,)
    for dup in duplications:
        order = rotated_elements(g, dup, num_syndromes)
        for tup in design.tuples:
            slots = []
            for element in tup:
                slots.append(UnitAddress(disk=element, offset=next_free[element]))
                next_free[element] += 1
            table.append([slots[position] for position in order])
    return table


class DeclusteredLayout(TableParityLayout):
    """Parity declustering over ``C = design.v`` disks with ``G = design.k``.

    The design is validated for BIBD balance before use; an unbalanced
    design would silently break the distributed-reconstruction
    guarantee (criterion 2).
    """

    def __init__(
        self,
        design: BlockDesign,
        rotate_parity: bool = True,
        data_mapping: str = "stripe",
        num_syndromes: int = 1,
    ):
        design.validate()
        if design.k == design.v:
            raise LayoutError(
                "G == C is RAID 5 (RAID 6 with two syndromes); use "
                "LeftSymmetricRaid5Layout for that case"
            )
        self.design = design
        self.rotate_parity = rotate_parity
        prefix = "declustered" if num_syndromes == 1 else "dual-declustered"
        super().__init__(
            num_disks=design.v,
            stripe_size=design.k,
            table=build_full_table(design, rotate_parity, num_syndromes),
            name=f"{prefix}-{design.name or f'{design.v}-{design.k}'}",
            data_mapping=data_mapping,
            num_syndromes=num_syndromes,
        )
