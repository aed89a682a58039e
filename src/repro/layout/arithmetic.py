"""Table-free parity layouts: every mapping is O(1) integer arithmetic.

The paper materializes its layouts as tables, which caps the array
width it can evaluate at C=21 — a full table for C=1009, G=10 would
hold millions of slots. The two layouts here compute both period-local
primitives, unit ``i`` of a table stripe and the stripe and role at a
slot, directly from the block number, PRIME/RELPR-style, so a 1000-disk
array maps any unit with zero table allocation:

- :class:`PermutationStripingLayout` — permutation striping on a prime
  array width. One period makes ``C-1`` *rotations*; rotation ``j``
  scatters the ``C`` stripes laid end to end by the multiplicative
  permutation ``index -> j * index (mod C)``. Because ``j`` runs over
  every nonzero residue, each disk pair co-occurs in a stripe equally
  often over the period — the distributed-reconstruction criterion
  holds exactly (the multiset of index gaps is the same for every
  pair), without any block design.
- :class:`CyclicArithmeticLayout` — the arithmetic twin of developing
  a cyclic difference family (:mod:`repro.designs.difference`): tuple
  ``i`` of the design is a base block shifted by ``i mod v``, so
  membership, check positions, and the greedy per-disk offsets of
  ``build_full_table`` are all recomputable from ``i`` in O(G). It is
  slot-for-slot identical to
  ``DeclusteredLayout(cyclic_design(base_blocks, v))`` — the property
  tests hold the two implementations together — while storing only
  the base blocks.

Both support single and dual (P+Q) syndromes, and both order a
stripe's units as ``build_full_table`` does, by
:func:`~repro.layout.base.rotated_elements`. Only the "stripe" data
mapping is available: the row-major mapping is defined by an explicit
index over a materialized table, which is exactly what these layouts
exist to avoid.
"""

from __future__ import annotations

import typing

from repro.designs.design import DesignError
from repro.designs.difference import BaseBlock, difference_family_lambda
from repro.designs.families import is_prime
from repro.layout.base import (
    LayoutError,
    ParityLayout,
    UnitAddress,
    rotated_elements,
)


class ArithmeticLayout(ParityLayout):
    """Base for layouts whose period exists only as formulas.

    Subclasses implement ``_period_unit`` / ``_period_slot`` with pure
    integer arithmetic; nothing here or below allocates per-slot state,
    so translation memory is O(C + G^2) worst case (precomputed modular
    inverses and per-duplication element orders) regardless of period
    size.
    """

    def __init__(
        self,
        num_disks: int,
        stripe_size: int,
        name: str = "",
        data_mapping: str = "stripe",
        num_syndromes: int = 1,
    ):
        if data_mapping != "stripe":
            raise LayoutError(
                "arithmetic layouts support only the 'stripe' data mapping; "
                "'row-major' is an explicit index over a materialized table"
            )
        super().__init__(
            num_disks,
            stripe_size,
            name=name,
            data_mapping=data_mapping,
            num_syndromes=num_syndromes,
        )

    @property
    def mapping_table_units(self) -> int:
        """Arithmetic layouts materialize no table slots."""
        return 0


class PermutationStripingLayout(ArithmeticLayout):
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


class CyclicArithmeticLayout(ArithmeticLayout):
    """Arithmetic development of a full-orbit cyclic difference family.

    ``base_blocks`` (``m`` blocks of ``k`` residues mod ``v``) define
    the same design ``repro.designs.difference.cyclic_design`` would
    develop: tuple ``(block_i, shift)`` is block ``block_i`` plus
    ``shift``, ordered block-major then shift. One period makes ``G``
    duplications of the ``b = m*v`` tuples, ordering each duplication's
    elements exactly like ``build_full_table`` (both use
    :func:`~repro.layout.base.rotated_elements`: P at element
    ``G-1-dup``, Q at ``G-2-dup``), and the greedy lowest-free-offset
    assignment is closed-form: disk ``d`` appears in block ``block_i``
    exactly once per element, at shift ``(d - element) mod v``, so its
    offset is ``dup*m*k + block_i*k + rank`` where ``rank`` counts this
    block's earlier shifts containing ``d``.

    The constructor verifies difference-family balance in O(m·k²) —
    the streamed equivalent of validating the developed BIBD, so an
    unbalanced family cannot silently break the
    distributed-reconstruction guarantee.
    """

    def __init__(
        self,
        base_blocks: typing.Sequence[typing.Sequence[int]],
        modulus: int,
        num_syndromes: int = 1,
    ):
        blocks = tuple(
            tuple(int(e) % modulus for e in block) for block in base_blocks
        )
        if not blocks:
            raise LayoutError("cyclic layout needs at least one base block")
        sizes = {len(block) for block in blocks}
        if len(sizes) != 1:
            raise LayoutError(f"base blocks must share one size, got {sorted(sizes)}")
        k = sizes.pop()
        if k == modulus:
            raise LayoutError(
                "G == C is RAID 5 / RAID 6; use LeftSymmetricRaid5Layout instead"
            )
        try:
            difference_family_lambda(
                [BaseBlock(elements=block) for block in blocks], modulus
            )
        except DesignError as error:
            raise LayoutError(f"invalid difference family: {error}") from error
        super().__init__(
            modulus,
            k,
            name=f"cyclic-arith-{modulus}-{k}",
            num_syndromes=num_syndromes,
        )
        self._blocks = blocks
        m = len(blocks)
        self._num_blocks = m
        self._tuples_per_dup = m * modulus
        self._units_per_disk_per_dup = m * k
        self._stripes_per_table = k * m * modulus
        self.table_depth = k * m * k
        #: Element position of each unit, in stripe order, by duplication.
        self._orders = [rotated_elements(k, dup, num_syndromes) for dup in range(k)]

    def _period_unit(self, s: int, i: int) -> UnitAddress:
        v = self.num_disks
        k = self.stripe_size
        dup, tuple_index = divmod(s, self._tuples_per_dup)
        block_index, shift = divmod(tuple_index, v)
        block = self._blocks[block_index]
        disk = (block[self._orders[dup][i]] + shift) % v
        # Greedy offsets, closed form: earlier duplications and earlier
        # blocks contribute fixed counts; within this block's orbit, the
        # disk appeared once per earlier shift containing it.
        rank = sum(1 for element in block if (disk - element) % v < shift)
        return UnitAddress(
            disk=disk,
            offset=dup * self._units_per_disk_per_dup + block_index * k + rank,
        )

    def _period_slot(self, disk: int, table_offset: int) -> typing.Tuple[int, int]:
        v = self.num_disks
        k = self.stripe_size
        dup, rest = divmod(table_offset, self._units_per_disk_per_dup)
        block_index, rank = divmod(rest, k)
        block = self._blocks[block_index]
        # The disk's k appearances in this block's orbit, by shift.
        shift = sorted((disk - element) % v for element in block)[rank]
        element_position = block.index((disk - shift) % v)
        stripe = dup * self._tuples_per_dup + block_index * v + shift
        return stripe, self._unit_roles[self._orders[dup].index(element_position)]
