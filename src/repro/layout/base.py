"""The layout interface, split into mapping contract and table backend.

Every layout in this project is periodic: one *full table*'s worth of
stripes covers a ``C x table_depth`` rectangle of ``(disk, offset)``
slots, and the whole disk is covered by tiling that period down the
disks. :class:`ParityLayout` is the mapping contract — tiling,
forward/inverse unit mapping, and the data mapping (logical data unit
→ physical slot) used by the striping driver — expressed over two
period-local primitives subclasses provide:

- ``_period_unit(s, i)``     — slot of unit ``i`` of table stripe ``s``;
- ``_period_slot(disk, off)`` — ``(table stripe, role)`` at a table slot.

A stripe's units have one order everywhere, the *stripe order*: its
data units by position, then P, then (with two syndromes) Q. Unit
``i`` has role :attr:`ParityLayout.unit_roles` ``[i]``, and
:func:`rotated_elements` gives the order's rotation over a block
design's tuple.

:class:`TableParityLayout` is the paper's implementation: the period is
materialized as an explicit table (``G * b`` stripes occupying ``G * r``
units per disk for the declustered layout; ``C`` stripes of depth ``C``
for RAID 5). :mod:`repro.layout.arithmetic` provides the table-free
implementation, where both primitives are pure integer arithmetic, which
is what makes C=1000+ arrays practical.
"""

from __future__ import annotations

import typing

#: Role index used for the parity unit of a stripe. Data units use their
#: position 0..G-2 within the stripe.
PARITY_ROLE = -1

#: Role index of the second (Q) syndrome unit in dual-syndrome layouts.
#: Data units of a dual stripe use positions 0..G-3.
Q_ROLE = -2


class LayoutError(ValueError):
    """Raised for malformed layout tables or out-of-range addresses."""


def rotated_elements(
    stripe_size: int, dup: int, num_syndromes: int = 1
) -> typing.Tuple[int, ...]:
    """Element positions of a duplication-``dup`` stripe's units, in
    stripe order: the data elements in increasing order, then P, then Q.

    The rotation of the paper's full block design table (Figure 4-2):
    P sits at element ``G-1-dup`` and, with two syndromes, Q at
    ``G-2-dup`` (both mod ``G``).
    """
    parity = (stripe_size - 1 - dup) % stripe_size
    checks = (parity, (parity - 1) % stripe_size)[:num_syndromes]
    return tuple(e for e in range(stripe_size) if e not in checks) + checks


class UnitAddress(typing.NamedTuple):
    """A physical stripe-unit slot: ``offset``-th unit of ``disk``.

    A named tuple, ordered and hashed as ``(disk, offset)``: address
    translation builds one per unit access, so construction, hashing
    and comparison run at tuple cost.
    """

    disk: int
    offset: int


class ParityLayout:
    """A periodic parity layout over ``C`` disks with stripes of ``G`` units.

    This base class implements tiling, forward/inverse unit mapping, and
    the data mapping (logical data unit → physical slot) used by the
    striping driver, all in terms of the period-local primitives
    ``_period_unit`` / ``_period_slot``. Subclasses provide those
    primitives and must set ``_stripes_per_table`` and ``table_depth``
    during construction. The forward mapping is two calls:
    :meth:`stripe_units` for a whole stripe and :meth:`stripe_unit` for
    one unit of it, both in stripe order (data units, then P, then Q).
    The default data mapping is "by parity stripe index" (Table 5-1):
    logical data units fill successive data positions of successive
    parity stripes, which satisfies the large-write-optimization
    criterion.

    Parameters
    ----------
    num_disks:
        ``C``.
    stripe_size:
        ``G``, counting the parity unit.
    name:
        Human-readable layout label.
    data_mapping:
        How logical data units are ordered onto the period's data slots:

        - ``"stripe"`` (default, the paper's Table 5-1 choice): logical
          units fill successive data positions of successive parity
          stripes. Satisfies the large-write optimization (criterion 5)
          but not maximal parallelism (criterion 6).
        - ``"row-major"``: logical units fill data slots offset row by
          offset row across the disks. Since each row holds one unit
          per disk, consecutive logical units land on distinct disks —
          recovering most of criterion 6 at the cost of criterion 5.
          This explores the open trade-off of Section 4.2. Only
          table-based layouts support it (the order is an explicit
          index over the materialized table).
    num_syndromes:
        Check units per stripe: 1 (parity only, the paper's code) or
        2 (P+Q, tolerating any two failures; see
        :mod:`repro.array.syndromes`).
    """

    #: Set by subclasses during construction.
    table_depth: int
    _stripes_per_table: int

    def __init__(
        self,
        num_disks: int,
        stripe_size: int,
        name: str = "",
        data_mapping: str = "stripe",
        num_syndromes: int = 1,
    ):
        if num_syndromes not in (1, 2):
            raise LayoutError(f"num_syndromes must be 1 or 2, got {num_syndromes}")
        # num_syndromes >= 1 makes this check subsume any ``G < 2``
        # guard: G=1 is rejected here with the usable diagnostic.
        if stripe_size < num_syndromes + 1:
            raise LayoutError(
                f"stripe size {stripe_size} leaves no data units beside "
                f"{num_syndromes} syndrome unit(s)"
            )
        if stripe_size > num_disks:
            raise LayoutError(
                f"stripe size {stripe_size} exceeds array width {num_disks}"
            )
        if data_mapping not in ("stripe", "row-major"):
            raise LayoutError(
                f"unknown data mapping {data_mapping!r}; use 'stripe' or 'row-major'"
            )
        self.num_disks = num_disks
        self.stripe_size = stripe_size
        self.num_syndromes = num_syndromes
        self.name = name or type(self).__name__
        self.data_mapping = data_mapping
        self._data_units_per_stripe = stripe_size - num_syndromes
        self._unit_roles = tuple(range(self._data_units_per_stripe)) + (
            PARITY_ROLE, Q_ROLE
        )[:num_syndromes]

    # ------------------------------------------------------------------
    # Period-local primitives (the subclass contract)
    # ------------------------------------------------------------------
    def _period_unit(self, s: int, i: int) -> UnitAddress:
        """Slot of unit ``i`` (in stripe order) of table stripe ``s``."""
        raise NotImplementedError

    def _period_slot(self, disk: int, table_offset: int) -> typing.Tuple[int, int]:
        """``(table stripe, role)`` of the slot at ``(disk, table_offset)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Basic parameters
    # ------------------------------------------------------------------
    @property
    def stripes_per_table(self) -> int:
        """Stripes in one full table (the layout's period)."""
        return self._stripes_per_table

    @property
    def data_units_per_stripe(self) -> int:
        """``G - num_syndromes``."""
        return self._data_units_per_stripe

    @property
    def unit_roles(self) -> typing.Tuple[int, ...]:
        """Role of each unit of a stripe, in stripe order: data positions
        ``0..G-num_syndromes-1``, then :data:`PARITY_ROLE`, then (with
        two syndromes) :data:`Q_ROLE`."""
        return self._unit_roles

    @property
    def mapping_table_units(self) -> int:
        """Slots the implementation materializes to translate addresses.

        The full table for table-based layouts; zero for permutation
        striping, whose period exists only as formulas. This is the
        quantity layout criterion 4 (efficient mapping) bounds.
        """
        return self.stripes_per_table * self.stripe_size

    def declustering_ratio(self) -> float:
        """``alpha = (G-1)/(C-1)`` — 1.0 for RAID 5."""
        return (self.stripe_size - 1) / (self.num_disks - 1)

    def parity_overhead(self) -> float:
        """Fraction of disk space consumed by check units, ``num_syndromes/G``."""
        return self.num_syndromes / self.stripe_size

    # ------------------------------------------------------------------
    # Forward mapping
    # ------------------------------------------------------------------
    def stripe_units(self, stripe: int) -> typing.List[UnitAddress]:
        """All ``G`` slots of a stripe, in stripe order: data units by
        position, then P, then (in dual-syndrome layouts) Q."""
        iteration, s = divmod(stripe, self._stripes_per_table)
        period_unit = self._period_unit
        units = [period_unit(s, i) for i in range(self.stripe_size)]
        if iteration == 0:
            return units
        shift = iteration * self.table_depth
        return [UnitAddress(disk, offset + shift) for disk, offset in units]

    def stripe_unit(self, stripe: int, i: int) -> UnitAddress:
        """Physical slot of unit ``i`` of stripe ``stripe``, which is
        ``stripe_units(stripe)[i]``."""
        if not 0 <= i < self.stripe_size:
            raise LayoutError(f"unit index {i} outside 0..{self.stripe_size - 1}")
        iteration, s = divmod(stripe, self._stripes_per_table)
        base = self._period_unit(s, i)
        if iteration == 0:
            return base
        return UnitAddress(base.disk, base.offset + iteration * self.table_depth)

    # ------------------------------------------------------------------
    # Inverse mapping
    # ------------------------------------------------------------------
    def stripe_of(self, disk: int, offset: int) -> typing.Tuple[int, int]:
        """``(stripe, role)`` of the unit at ``(disk, offset)``."""
        if not 0 <= disk < self.num_disks:
            raise LayoutError(f"disk {disk} outside array of {self.num_disks}")
        if offset < 0:
            raise LayoutError(f"negative offset {offset}")
        iteration, table_offset = divmod(offset, self.table_depth)
        s, role = self._period_slot(disk, table_offset)
        return iteration * self.stripes_per_table + s, role

    # ------------------------------------------------------------------
    # Data mapping (logical data unit numbering)
    # ------------------------------------------------------------------
    @property
    def data_units_per_table(self) -> int:
        """Data slots in one full table."""
        return self.stripes_per_table * self.data_units_per_stripe

    @property
    def supports_large_write(self) -> bool:
        """True when aligned logical windows coincide with parity stripes."""
        return self.data_mapping == "stripe"

    def logical_to_physical(self, logical_unit: int) -> UnitAddress:
        """Physical slot of logical data unit ``logical_unit``."""
        if logical_unit < 0:
            raise LayoutError(f"negative logical unit {logical_unit}")
        stripe, j = divmod(logical_unit, self._data_units_per_stripe)
        return self.stripe_unit(stripe, j)

    def physical_to_logical(self, disk: int, offset: int) -> typing.Optional[int]:
        """Logical data unit at ``(disk, offset)``, or None for check units."""
        stripe, role = self.stripe_of(disk, offset)
        if role < 0:
            return None
        return stripe * self.data_units_per_stripe + role

    def stripe_of_logical(self, logical_unit: int) -> int:
        """The parity stripe containing logical data unit ``logical_unit``."""
        return self.stripe_role_of_logical(logical_unit)[0]

    def stripe_role_of_logical(self, logical_unit: int) -> typing.Tuple[int, int]:
        """``(stripe, role)`` of logical data unit ``logical_unit``.

        Equal to :meth:`stripe_of` at the unit's slot. The stripe data
        mapping fills data positions stripe by stripe, so this is a
        division there, with no inverse-table lookup.
        """
        if self.data_mapping == "stripe":
            return divmod(logical_unit, self._data_units_per_stripe)
        address = self.logical_to_physical(logical_unit)
        return self.stripe_of(address.disk, address.offset)

    # ------------------------------------------------------------------
    # Rendering (for docs, tests, and the layout explorer example)
    # ------------------------------------------------------------------
    def render_table(self, depth: typing.Optional[int] = None) -> str:
        """ASCII rendering in the style of the paper's Figures 2-1/2-3."""
        depth = self.table_depth if depth is None else depth
        header = "Offset | " + " ".join(f"DISK{d:<3d}" for d in range(self.num_disks))
        lines = [header, "-" * len(header)]
        for offset in range(depth):
            cells = []
            for disk in range(self.num_disks):
                stripe, role = self.stripe_of(disk, offset)
                if role == PARITY_ROLE:
                    cells.append(f"P{stripe:<6d}")
                elif role == Q_ROLE:
                    cells.append(f"Q{stripe:<6d}")
                else:
                    cells.append(f"D{stripe}.{role:<4d}")
            lines.append(f"{offset:6d} | " + " ".join(cells))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} C={self.num_disks} G={self.stripe_size} "
            f"alpha={self.declustering_ratio():.3f} table={self.stripes_per_table}x"
            f"{self.table_depth}>"
        )


class TableParityLayout(ParityLayout):
    """A parity layout whose period is a materialized table.

    Parameters are those of :class:`ParityLayout` plus:

    table:
        One full table: a sequence of stripes, each a sequence of ``G``
        :class:`UnitAddress` in stripe order. Indices
        ``0..G-num_syndromes-1`` are the data slots in position order,
        the next index is the **parity** slot, and dual-syndrome layouts
        (``num_syndromes=2``) put the **Q** slot last, at ``G-1``.
    """

    def __init__(
        self,
        num_disks: int,
        stripe_size: int,
        table: typing.Sequence[typing.Sequence[UnitAddress]],
        name: str = "",
        data_mapping: str = "stripe",
        num_syndromes: int = 1,
    ):
        super().__init__(
            num_disks,
            stripe_size,
            name=name,
            data_mapping=data_mapping,
            num_syndromes=num_syndromes,
        )
        self._table = [list(stripe) for stripe in table]
        self._stripes_per_table = len(self._table)
        self._check_and_index_table()
        #: The period's data slots in logical order, one table's worth:
        #: :meth:`logical_to_physical` indexes it and shifts the offset
        #: per table iteration.
        self._data_slots: typing.List[UnitAddress]
        if data_mapping == "row-major":
            self._build_row_major_order()
        else:
            g_data = self._data_units_per_stripe
            self._data_slots = [
                unit for stripe in self._table for unit in stripe[:g_data]
            ]

    # ------------------------------------------------------------------
    # Construction-time checks
    # ------------------------------------------------------------------
    def _check_and_index_table(self) -> None:
        """Verify the table is a bijection onto a C x depth rectangle."""
        if not self._table:
            raise LayoutError("layout table is empty")
        per_disk_used: typing.List[typing.Set[int]] = [set() for _ in range(self.num_disks)]
        for s, stripe in enumerate(self._table):
            if len(stripe) != self.stripe_size:
                raise LayoutError(
                    f"stripe {s} has {len(stripe)} units, expected {self.stripe_size}"
                )
            for unit in stripe:
                if not 0 <= unit.disk < self.num_disks:
                    raise LayoutError(f"stripe {s} uses disk {unit.disk} outside array")
                if unit.offset in per_disk_used[unit.disk]:
                    raise LayoutError(
                        f"slot disk={unit.disk} offset={unit.offset} assigned twice"
                    )
                per_disk_used[unit.disk].add(unit.offset)
        depths = {max(used) + 1 if used else 0 for used in per_disk_used}
        counts = {len(used) for used in per_disk_used}
        if len(depths) != 1 or len(counts) != 1 or depths != counts:
            raise LayoutError(
                f"table does not tile: per-disk depths {sorted(depths)}, "
                f"unit counts {sorted(counts)} — every disk must hold the "
                "same, gap-free number of units"
            )
        self.table_depth = depths.pop()
        # Inverse index: (disk, offset-in-table) -> (stripe-in-table, role).
        self._inverse: typing.List[typing.List[typing.Tuple[int, int]]] = [
            [(-1, 0)] * self.table_depth for _ in range(self.num_disks)
        ]
        for s, stripe in enumerate(self._table):
            for unit, role in zip(stripe, self._unit_roles):
                self._inverse[unit.disk][unit.offset] = (s, role)

    # ------------------------------------------------------------------
    # Period-local primitives
    # ------------------------------------------------------------------
    def _period_unit(self, s: int, i: int) -> UnitAddress:
        return self._table[s][i]

    def _period_slot(self, disk: int, table_offset: int) -> typing.Tuple[int, int]:
        return self._inverse[disk][table_offset]

    # ------------------------------------------------------------------
    # Data mapping
    # ------------------------------------------------------------------
    def _build_row_major_order(self) -> None:
        """Index data slots row by row for the row-major data mapping."""
        order: typing.List[UnitAddress] = []
        for offset in range(self.table_depth):
            for disk in range(self.num_disks):
                _stripe, role = self._inverse[disk][offset]
                if role >= 0:
                    order.append(UnitAddress(disk, offset))
        self._data_slots = order
        self._row_major_index = {
            (slot.disk, slot.offset): i for i, slot in enumerate(order)
        }

    def logical_to_physical(self, logical_unit: int) -> UnitAddress:
        """Physical slot of logical data unit ``logical_unit``: one index
        into the period's data slots, for either data mapping."""
        if logical_unit < 0:
            raise LayoutError(f"negative logical unit {logical_unit}")
        iteration, within = divmod(logical_unit, len(self._data_slots))
        base = self._data_slots[within]
        if iteration == 0:
            return base
        return UnitAddress(base.disk, base.offset + iteration * self.table_depth)

    def physical_to_logical(self, disk: int, offset: int) -> typing.Optional[int]:
        """Logical data unit at ``(disk, offset)``, or None for check units."""
        if self.data_mapping == "stripe":
            return super().physical_to_logical(disk, offset)
        stripe, role = self.stripe_of(disk, offset)
        if role < 0:
            return None
        iteration, table_offset = divmod(offset, self.table_depth)
        within = self._row_major_index[(disk, table_offset)]
        return iteration * self.data_units_per_table + within
