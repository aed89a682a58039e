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

from repro.layout.base import TableParityLayout, UnitAddress


class LeftSymmetricRaid5Layout(TableParityLayout):
    """Left-symmetric placement over ``C`` disks, one stripe per offset.

    Stripe ``s`` puts its parity on disk ``(C-1-s) mod C`` and its data
    on the disks after it. ``num_syndromes=2`` gives the RAID-6
    rotation: Q on disk ``(C-2-s) mod C``, the disk before P.
    """

    def __init__(self, num_disks: int, num_syndromes: int = 1):
        c = num_disks
        # Unit ``pos`` of stripe ``s`` (data, then Q, then parity) sits
        # on disk ``pos - s``: parity at ``C-1-s``, data from ``C-s``.
        table = [[UnitAddress((pos - s) % c, s) for pos in range(c)] for s in range(c)]
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
