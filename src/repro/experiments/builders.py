"""Layout and array construction shared by all experiments."""

from __future__ import annotations

import typing

from repro.designs.catalog import default_catalog
from repro.designs.complete import complete_design_size
from repro.designs.design import BlockDesign, DesignError
from repro.designs.families import is_prime
from repro.designs.known_families import full_orbit_family
from repro.designs.tdesigns import (
    PLANAR_DIFFERENCE_SETS,
    boolean_quadruple_system,
    cyclic_pq_design,
)
from repro.layout.arithmetic import CyclicArithmeticLayout, PermutationStripingLayout
from repro.layout.base import LayoutError, ParityLayout
from repro.layout.criteria import SAMPLING_THRESHOLD_DISKS
from repro.layout.declustered import DeclusteredLayout
from repro.layout.raid5 import LeftSymmetricRaid5Layout

#: The paper's array width (Table 5-1(c)).
PAPER_NUM_DISKS = 21

#: The paper's parity stripe sizes and the alphas they induce on C=21.
PAPER_STRIPE_SIZES = (3, 4, 5, 6, 10, 18, 21)

#: Layout selection strategies a scenario may name. "auto" (the
#: default) preserves the historical table-based selection wherever the
#: design catalog serves the requested (C, G) itself — so every
#: pre-existing configuration is bit-identical — and switches to an
#: arithmetic layout when the catalog could only substitute a different
#: stripe size (the closest-feasible-alpha policy), which at large C
#: would mean a near-complete design whose validation is intractable.
#: The explicit names force one family and fail loudly if it does not
#: fit.
LAYOUT_CHOICES = ("auto", "table", "prime", "cyclic")

#: The widest array a scenario may name, ten times the widest any test,
#: benchmark or CI job builds. It bounds what :func:`check_layout` costs
#: on a job spec: primality is trial division, and C(C, G) alone takes
#: 10 s at C=1,000,003 G=500,001.
MAX_NUM_DISKS = 10_000


def _pair_balanced_design(
    num_disks: int, stripe_size: int
) -> typing.Optional[typing.Tuple[int, typing.Callable[[], BlockDesign]]]:
    """``(blocks, builder)`` of a triple-balanced design for (C, G), or None.

    Triple balance makes the rebuild load uniform across failed
    *pairs*. Two families have it: the boolean Steiner quadruple
    systems for G=4 on power-of-two widths, with v(v-1)(v-2)/24
    blocks, and the cyclic planar-difference-set designs at
    C = G(G-1)+1, with v blocks. Only the block count and the builder
    are returned, so asking costs nothing at any width.
    """
    if stripe_size == 4 and num_disks >= 8 and num_disks & (num_disks - 1) == 0:
        return (
            num_disks * (num_disks - 1) * (num_disks - 2) // 24,
            lambda: boolean_quadruple_system(num_disks.bit_length() - 1),
        )
    if (
        stripe_size in PLANAR_DIFFERENCE_SETS
        and num_disks == stripe_size * (stripe_size - 1) + 1
    ):
        return num_disks, lambda: cyclic_pq_design(stripe_size)
    return None


def design_for(num_disks: int, stripe_size: int, syndromes: int = 1) -> BlockDesign:
    """The block design backing a declustered layout for (C, G).

    With two syndromes, a triple-balanced design comes first where one
    exists. Otherwise the shared catalog serves (paper appendix
    designs first, then programmatic families, then small complete
    designs, then the closest feasible alpha); for P+Q that gives
    correct placement, merely without the pair-balance guarantee.
    """
    if syndromes == 2:
        pair_balanced = _pair_balanced_design(num_disks, stripe_size)
        if pair_balanced is not None:
            return pair_balanced[1]()
    return default_catalog().select(num_disks, stripe_size)


def _arithmetic_family(
    num_disks: int, stripe_size: int, kind: str = "auto"
) -> typing.Optional[typing.Tuple[typing.Tuple[int, ...], ...]]:
    """The cyclic family an arithmetic layout of ``kind`` develops for
    ``(C, G)``, or None for permutation striping; no layout is built.

    Raises :class:`LayoutError` when neither construction fits.
    """
    if kind in ("auto", "prime") and is_prime(num_disks) and stripe_size < num_disks:
        return None
    if kind == "prime":
        raise LayoutError(
            f"layout 'prime' needs a prime C with G < C, got C={num_disks} "
            f"G={stripe_size}"
        )
    try:
        return full_orbit_family(num_disks, stripe_size)
    except DesignError as error:
        raise LayoutError(
            f"no arithmetic layout for C={num_disks} G={stripe_size}: {error}"
        ) from error


def arithmetic_layout(
    num_disks: int, stripe_size: int, syndromes: int = 1, kind: str = "auto"
) -> ParityLayout:
    """A table-free layout for ``(C, G)``: permutation striping on prime
    widths, cyclic difference-family development where one is known.

    ``kind`` may force ``"prime"`` or ``"cyclic"``; ``"auto"`` prefers
    permutation striping (always available on a prime width) and falls
    back to a cyclic family.
    """
    blocks = _arithmetic_family(num_disks, stripe_size, kind)
    if blocks is None:
        return PermutationStripingLayout(
            num_disks, stripe_size, num_syndromes=syndromes
        )
    return CyclicArithmeticLayout(blocks, num_disks, num_syndromes=syndromes)


def _catalog_serves_exact(num_disks: int, stripe_size: int, syndromes: int) -> bool:
    """Whether the table path can serve the *requested* (C, G) itself.

    When this is False the catalog's :meth:`select` would substitute
    the closest feasible alpha — a different stripe size entirely. At
    small C that substitution is the paper's own policy and stays; at
    large C the nearest feasible design is a near-complete one whose
    O(b * k**2) validation is intractable (v=1009 would pick k=1008 and
    spend ~1e9 operations in ``pair_counts``), so no path may walk into
    it there (see :func:`check_layout`). A triple-balanced P+Q design
    serves only within the catalog's own ``max_table_tuples`` bound:
    SQS(256) alone has 690,880 blocks.
    """
    if stripe_size == num_disks:
        return True  # RAID 5 / RAID 6: no block design involved
    catalog = default_catalog()
    if syndromes == 2:
        pair_balanced = _pair_balanced_design(num_disks, stripe_size)
        if pair_balanced is not None and pair_balanced[0] <= catalog.max_table_tuples:
            return True  # a triple-balanced P+Q design of tractable size
    if catalog.exact(num_disks, stripe_size) is not None:
        return True
    return complete_design_size(num_disks, stripe_size) <= catalog.max_table_tuples


def _table_layout(
    num_disks: int, stripe_size: int, syndromes: int
) -> ParityLayout:
    """The historical table-based selection (RAID 5 when G == C)."""
    if stripe_size == num_disks:
        return LeftSymmetricRaid5Layout(num_disks, num_syndromes=syndromes)
    return DeclusteredLayout(
        design_for(num_disks, stripe_size, syndromes), num_syndromes=syndromes
    )


def check_layout(
    num_disks: int, stripe_size: int, syndromes: int = 1, layout: str = "auto"
) -> None:
    """Raise :class:`LayoutError` unless :func:`build_layout` can serve
    ``(C, G)`` with ``layout``.

    Cheap on every path, so a config can be checked before a worker
    builds anything: ``prime`` tests primality, ``cyclic`` looks up its
    family, and ``table``/``auto`` consult the catalog only from
    :data:`SAMPLING_THRESHOLD_DISKS` up. Below that width the table
    path always serves (substituting the closest feasible alpha if it
    must), and no design is built here.
    """
    if num_disks > MAX_NUM_DISKS:
        raise LayoutError(f"C={num_disks} exceeds the {MAX_NUM_DISKS}-disk limit")
    if layout not in LAYOUT_CHOICES:
        raise LayoutError(
            f"unknown layout {layout!r}; choose from {LAYOUT_CHOICES}"
        )
    if layout == "prime" or layout == "cyclic":
        _arithmetic_family(num_disks, stripe_size, kind=layout)
    elif num_disks >= SAMPLING_THRESHOLD_DISKS and not _catalog_serves_exact(
        num_disks, stripe_size, syndromes
    ):
        # A closest-alpha substitute at this width would be a
        # near-complete design: intractable to validate and nothing
        # like the requested geometry. Fail instead of hanging.
        if layout == "table":
            raise LayoutError(
                f"layout 'table' has no design for C={num_disks} "
                f"G={stripe_size} at this width"
            )
        try:
            _arithmetic_family(num_disks, stripe_size)
        except LayoutError as error:
            raise LayoutError(
                f"no layout for C={num_disks} G={stripe_size}: the catalog "
                f"has no design at this width and no arithmetic "
                f"construction fits ({error})"
            ) from error


def build_layout(
    num_disks: int, stripe_size: int, syndromes: int = 1, layout: str = "auto"
) -> ParityLayout:
    """A parity layout for ``G`` on ``C`` disks (RAID 5 when G == C).

    ``syndromes=2`` gives P+Q stripes through the same constructors:
    the RAID-6 rotation when G == C, a declustered layout otherwise
    (over a triple-balanced design where one exists, see
    :func:`design_for`).

    ``layout`` picks the implementation family (:data:`LAYOUT_CHOICES`):
    ``"auto"`` keeps the historical table-based selection wherever the
    catalog serves the requested geometry itself, prefers an arithmetic
    layout with the *requested* G when the catalog could only
    substitute a neighboring alpha, and keeps the paper's substitution
    policy below :data:`SAMPLING_THRESHOLD_DISKS` when no arithmetic
    construction fits either; ``"table"`` forces the table path;
    ``"prime"`` / ``"cyclic"`` force the corresponding arithmetic
    construction. :func:`check_layout` says beforehand whether it can.
    """
    check_layout(num_disks, stripe_size, syndromes, layout)
    if layout == "prime" or layout == "cyclic":
        return arithmetic_layout(num_disks, stripe_size, syndromes, kind=layout)
    if layout == "table":
        return _table_layout(num_disks, stripe_size, syndromes)
    if _catalog_serves_exact(num_disks, stripe_size, syndromes):
        try:
            return _table_layout(num_disks, stripe_size, syndromes)
        except DesignError:
            return arithmetic_layout(num_disks, stripe_size, syndromes)
    try:
        return arithmetic_layout(num_disks, stripe_size, syndromes)
    except LayoutError:
        # The paper's closest-alpha substitution, tractable only below
        # SAMPLING_THRESHOLD_DISKS (see check_layout).
        if num_disks >= SAMPLING_THRESHOLD_DISKS:
            raise
        return _table_layout(num_disks, stripe_size, syndromes)


def alpha_of(num_disks: int, stripe_size: int) -> float:
    """Declustering ratio of the (C, G) pair."""
    return (stripe_size - 1) / (num_disks - 1)
