"""In-memory unit contents for end-to-end data-integrity checking.

Each stripe unit carries a 64-bit word; parity units hold the XOR of
their stripe's data words, and (in dual-syndrome layouts) Q units hold
the GF(2^64) syndrome of :mod:`repro.array.syndromes`. The simulator's
timing never depends on this store — it exists so tests can verify
that the layout, the striping driver's syndrome arithmetic, and the
reconstruction engine together recover failed disks bit-exactly.
Large performance runs disable it.

A failed disk's contents are overwritten with a poison pattern the
moment it fails: any code path that wrongly reads a failed disk
surfaces immediately as a poisoned value propagating into a checksum.

Each disk's words live in one ``array('Q')`` of unsigned 64-bit
integers, so the store needs no numpy.
"""

from __future__ import annotations

import typing
from array import array

from repro.array import syndromes as gf
from repro.array.addressing import ArrayAddressing

#: Value planted on failed disks to catch reads-after-failure.
POISON = 0xDEADBEEFDEADBEEF


def initial_data_pattern(disk: int, offset: int) -> int:
    """Deterministic initial content of the data unit at (disk, offset)."""
    return ((disk + 1) * 0x9E3779B97F4A7C15 + (offset + 1) * 0xC2B2AE3D27D4EB4F) % (1 << 64)


class DataStore:
    """Per-unit 64-bit contents for one array."""

    def __init__(self, addressing: ArrayAddressing):
        self.addressing = addressing
        self._units = [
            self._filled(0) for _disk in range(addressing.layout.num_disks)
        ]
        self._fill_initial()

    def _filled(self, value: int) -> array:
        return array("Q", [value]) * self.addressing.mapped_units_per_disk

    def _fill_initial(self) -> None:
        layout = self.addressing.layout
        for disk, units in enumerate(self._units):
            for offset in range(len(units)):
                _stripe, role = layout.stripe_of(disk, offset)
                if role >= 0:
                    units[offset] = initial_data_pattern(disk, offset)
        # Syndrome pass: fill each stripe's check slot(s) from its data.
        for stripe in range(self.addressing.num_stripes):
            self.recompute_syndromes(stripe)

    # ------------------------------------------------------------------
    # Unit access
    # ------------------------------------------------------------------
    def read_unit(self, disk: int, offset: int) -> int:
        return self._units[disk][offset]

    def write_unit(self, disk: int, offset: int, value: int) -> None:
        self._units[disk][offset] = value % (1 << 64)

    def poison_disk(self, disk: int) -> None:
        """Destroy a failed disk's contents (see module docstring)."""
        self._units[disk] = self._filled(POISON)

    def clear_disk(self, disk: int) -> None:
        """Blank a freshly-installed replacement disk."""
        self._units[disk] = self._filled(0)

    # ------------------------------------------------------------------
    # Stripe helpers
    # ------------------------------------------------------------------
    def stripe_data_values(self, stripe: int) -> typing.List[int]:
        layout = self.addressing.layout
        return [
            self.read_unit(*self._slot(layout.data_unit(stripe, j)))
            for j in range(layout.data_units_per_stripe)
        ]

    def parity_value(self, stripe: int) -> int:
        layout = self.addressing.layout
        return self.read_unit(*self._slot(layout.parity_unit(stripe)))

    def q_value(self, stripe: int) -> int:
        layout = self.addressing.layout
        return self.read_unit(*self._slot(layout.q_unit(stripe)))

    def recompute_parity(self, stripe: int) -> None:
        """Set the stripe's parity slot to the XOR of its data slots."""
        parity = 0
        for value in self.stripe_data_values(stripe):
            parity ^= value
        address = self.addressing.layout.parity_unit(stripe)
        self.write_unit(address.disk, address.offset, parity)

    def recompute_q(self, stripe: int) -> None:
        """Set the stripe's Q slot to the GF(2^64) syndrome of its data."""
        address = self.addressing.layout.q_unit(stripe)
        self.write_unit(
            address.disk, address.offset, gf.q_of(self.stripe_data_values(stripe))
        )

    def recompute_syndromes(self, stripe: int) -> None:
        """Refresh every check unit of the stripe from its data units."""
        self.recompute_parity(stripe)
        if self.addressing.layout.num_syndromes == 2:
            self.recompute_q(stripe)

    def stripe_is_consistent(self, stripe: int) -> bool:
        """True if every check unit matches the stripe's data units."""
        data = self.stripe_data_values(stripe)
        if gf.p_of(data) != self.parity_value(stripe):
            return False
        if self.addressing.layout.num_syndromes == 2:
            return gf.q_of(data) == self.q_value(stripe)
        return True

    @staticmethod
    def _slot(address) -> typing.Tuple[int, int]:
        return address.disk, address.offset
