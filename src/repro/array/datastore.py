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
    def recompute_syndromes(self, stripe: int) -> None:
        """Refresh every check unit of the stripe from its data units."""
        layout = self.addressing.layout
        units = layout.stripe_units(stripe)
        g_data = layout.data_units_per_stripe
        data = [self.read_unit(*unit) for unit in units[:g_data]]
        checks = gf.checks_of(data, layout.num_syndromes)
        for unit, value in zip(units[g_data:], checks):
            self.write_unit(unit.disk, unit.offset, value)

    def stripe_is_consistent(self, stripe: int) -> bool:
        """True if every check unit matches the stripe's data units."""
        layout = self.addressing.layout
        values = [self.read_unit(*unit) for unit in layout.stripe_units(stripe)]
        g_data = layout.data_units_per_stripe
        return gf.checks_of(values[:g_data], layout.num_syndromes) == values[g_data:]
