"""A table-free parity layout: every mapping is O(1) integer arithmetic.

The paper materializes its layouts as tables, which caps the array
width it can evaluate at C=21 — a full table for C=1009, G=10 would
hold millions of slots. :class:`PermutationStripingLayout` computes
both period-local primitives, unit ``i`` of a table stripe and the
stripe and role at a slot, directly from the block number,
PRIME/RELPR-style, so a 1000-disk array maps any unit with zero table
allocation. It is permutation striping on a prime array width: one
period makes ``C-1`` *rotations*, and rotation ``j`` scatters the
``C`` stripes laid end to end by the multiplicative permutation
``index -> j * index (mod C)``. Because ``j`` runs over every nonzero
residue, each disk pair co-occurs in a stripe equally often over the
period — the distributed-reconstruction criterion holds exactly (the
multiset of index gaps is the same for every pair), without any block
design.

It supports single and dual (P+Q) syndromes, and orders a stripe's
units by :func:`~repro.layout.base.rotated_elements`, as
``build_full_table`` does. Only the "stripe" data mapping is
available: the row-major mapping is defined by an explicit index over
a materialized table, which is exactly what this layout exists to
avoid.
"""

from __future__ import annotations

import typing

from repro.designs.families import is_prime
from repro.layout.base import (
    LayoutError,
    ParityLayout,
    UnitAddress,
    rotated_elements,
)


class PermutationStripingLayout(ParityLayout):
    """Permutation striping over a prime number of disks.

    One period is ``C-1`` rotations. Within rotation ``j`` (``1 <= j <=
    C-1``), lay the ``C`` stripes of ``G`` units end to end as indices
    ``i = s*G + u`` and place index ``i`` on disk ``j*i mod C``; the
    disk's units fill its next ``G`` offsets in index order. Check
    slots use fixed element positions (parity at ``u = G-1``, Q at
    ``u = G-2``, the order ``rotated_elements`` gives duplication 0):
    since ``s -> j*(s*G + u) mod C`` is a bijection for
    any fixed ``u`` (``gcd(jG, C) = 1``), every disk holds exactly one
    parity (and one Q) unit per rotation — criterion 3 holds exactly
    with no rotation of duplications needed.

    Requires ``C`` prime and ``G < C`` (at ``G == C`` every stripe of a
    rotation parks its parity on the same disk; that case is
    :class:`~repro.layout.raid5.LeftSymmetricRaid5Layout` anyway).
    """

    def __init__(
        self,
        num_disks: int,
        stripe_size: int,
        num_syndromes: int = 1,
    ):
        if not is_prime(num_disks):
            raise LayoutError(
                f"permutation striping needs a prime array width, got C={num_disks}"
            )
        if stripe_size >= num_disks:
            raise LayoutError(
                f"permutation striping needs G < C, got G={stripe_size} on "
                f"C={num_disks}; use LeftSymmetricRaid5Layout at G == C"
            )
        super().__init__(
            num_disks,
            stripe_size,
            name=f"perm-prime-{num_disks}-{stripe_size}",
            num_syndromes=num_syndromes,
        )
        c = num_disks
        self._stripes_per_table = c * (c - 1)
        self.table_depth = stripe_size * (c - 1)
        #: Element ``u`` of each unit, in stripe order, and the role of
        #: the unit at each element.
        self._elements = rotated_elements(stripe_size, 0, num_syndromes)
        self._element_roles = tuple(
            self._unit_roles[self._elements.index(u)] for u in range(stripe_size)
        )
        #: Modular inverses of the rotation multipliers, ``_inverses[j]
        #: = j^-1 mod C`` — O(C) once, so the inverse mapping stays
        #: divisionless per call.
        self._inverses = [0] + [pow(j, -1, c) for j in range(1, c)]

    @property
    def mapping_table_units(self) -> int:
        """The period exists only as formulas: no table slots."""
        return 0

    def _period_unit(self, s: int, i: int) -> UnitAddress:
        c = self.num_disks
        g = self.stripe_size
        rotation, stripe_in_rotation = divmod(s, c)
        index = stripe_in_rotation * g + self._elements[i]
        return UnitAddress(
            disk=((rotation + 1) * index) % c,
            offset=rotation * g + index // c,
        )

    def _period_slot(self, disk: int, table_offset: int) -> typing.Tuple[int, int]:
        c = self.num_disks
        g = self.stripe_size
        rotation, occurrence = divmod(table_offset, g)
        # disk = j*index mod C, and the disk's occurrences within a
        # rotation are index residues index0, index0+C, ... in order.
        index = (disk * self._inverses[rotation + 1]) % c + occurrence * c
        stripe_in_rotation, element = divmod(index, g)
        return rotation * c + stripe_in_rotation, self._element_roles[element]
