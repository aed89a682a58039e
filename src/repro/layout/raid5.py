"""Left-symmetric RAID 5 layout (Figure 2-1 of the paper).

Parity rotates one disk to the left at each stripe, and data units of
stripe ``i`` begin on the disk just after the parity disk, wrapping
around. This is the ``G = C`` special case against which declustering
is compared (``alpha = 1``), and it satisfies all six layout criteria.

With two syndromes the same rotation gives full-width RAID 6: Q sits
on the disk just before P, so both check units shift one disk left per
stripe and every disk holds one P and one Q unit per table.
"""

from __future__ import annotations

from repro.layout.base import TableParityLayout, UnitAddress, rotated_elements


class LeftSymmetricRaid5Layout(TableParityLayout):
    """Left-symmetric placement over ``C`` disks, one stripe per offset.

    Stripe ``s`` puts its parity on disk ``(C-1-s) mod C`` and its data
    on the disks after it. ``num_syndromes=2`` gives the RAID-6
    rotation: Q on disk ``(C-2-s) mod C``, the disk before P.
    """

    def __init__(self, num_disks: int, num_syndromes: int = 1):
        c = num_disks
        # Element ``e`` of stripe ``s`` sits on disk ``e - s``: data from
        # ``C-s``, parity at ``C-1-s`` and Q at ``C-2-s``.
        # (The base class refuses C < 2 with a LayoutError.)
        order = rotated_elements(c, 0, num_syndromes) if c > 0 else ()
        table = [[UnitAddress((e - s) % c, s) for e in order] for s in range(c)]
        super().__init__(
            num_disks=c,
            stripe_size=c,
            table=table,
            name=(
                f"left-symmetric-raid5-{c}"
                if num_syndromes == 1
                else f"cyclic-dual-raid6-{c}"
            ),
            num_syndromes=num_syndromes,
        )
