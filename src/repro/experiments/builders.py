"""Layout and array construction shared by all experiments.

Every layout is decided once, by :func:`check_layout`, from ``(C, G,
syndromes, layout)`` alone: it picks the family and the design and
returns a :class:`LayoutPlan` (the builder, the stripe size the layout
will have and its table depth) without building anything. Block counts
come from the design catalog's registry, :func:`math.comb` and the SQS
and planar formulas. :func:`build_layout` runs the same plan and calls
its builder, so a shape that checks is a shape that builds.
"""

from __future__ import annotations

import typing

from repro.designs.catalog import default_catalog
from repro.designs.design import BlockDesign
from repro.designs.families import is_prime
from repro.designs.tdesigns import (
    PLANAR_DIFFERENCE_SETS,
    boolean_quadruple_system,
    cyclic_pq_design,
)
from repro.layout.arithmetic import PermutationStripingLayout
from repro.layout.base import LayoutError, ParityLayout
from repro.layout.criteria import SAMPLING_THRESHOLD_DISKS
from repro.layout.declustered import DeclusteredLayout
from repro.layout.raid5 import LeftSymmetricRaid5Layout

#: The paper's array width (Table 5-1(c)).
PAPER_NUM_DISKS = 21

#: The paper's parity stripe sizes and the alphas they induce on C=21.
PAPER_STRIPE_SIZES = (3, 4, 5, 6, 10, 18, 21)

#: Layout selection strategies a scenario may name: "auto" (the
#: default) follows every rule of :func:`check_layout`; the others
#: force one family and fail loudly if it does not fit.
LAYOUT_CHOICES = ("auto", "table", "prime")

#: The widest array a scenario may name, ten times the widest any test,
#: benchmark or CI job builds. It bounds what :func:`check_layout` costs
#: on a job spec: primality is trial division, and C(C, G) alone takes
#: 10 s at C=1,000,003 G=500,001.
MAX_NUM_DISKS = 10_000

#: ``(G, blocks, builder)`` of a block design on C objects.
_Design = typing.Tuple[int, int, typing.Callable[[], BlockDesign]]


class LayoutPlan(typing.NamedTuple):
    """What :func:`build_layout` builds for a shape, decided without
    building it."""

    #: Builds the layout.
    build: typing.Callable[[], ParityLayout]
    #: G of the layout: the requested one, or a closest-alpha substitute's.
    stripe_size: int
    #: Units per disk in one full table (``ParityLayout.table_depth``).
    table_depth: int


def _pair_balanced_design(num_disks: int, stripe_size: int) -> typing.Optional[_Design]:
    """A triple-balanced design for (C, G), or None.

    Triple balance makes the rebuild load uniform across failed
    *pairs*. Two families have it: the boolean Steiner quadruple
    systems for G=4 on power-of-two widths, with v(v-1)(v-2)/24
    blocks, and the cyclic planar-difference-set designs at
    C = G(G-1)+1, with v blocks.
    """
    if stripe_size == 4 and num_disks >= 8 and num_disks & (num_disks - 1) == 0:
        return (
            stripe_size,
            num_disks * (num_disks - 1) * (num_disks - 2) // 24,
            lambda: boolean_quadruple_system(num_disks.bit_length() - 1),
        )
    if (
        stripe_size in PLANAR_DIFFERENCE_SETS
        and num_disks == stripe_size * (stripe_size - 1) + 1
    ):
        return stripe_size, num_disks, lambda: cyclic_pq_design(stripe_size)
    return None


def _exact_design(
    num_disks: int, stripe_size: int, syndromes: int
) -> typing.Optional[_Design]:
    """The design with the requested G that fits the catalog's
    ``max_table_tuples``, or None: with two syndromes a triple-balanced
    one first, then a registered one, then the complete one."""
    catalog = default_catalog()
    if syndromes == 2:
        design = _pair_balanced_design(num_disks, stripe_size)
        if design is not None and design[1] <= catalog.max_table_tuples:
            return design
    blocks = catalog.blocks(num_disks, stripe_size)
    if blocks is None:
        return None
    return stripe_size, blocks, lambda: catalog.build(num_disks, stripe_size)


def _substitute_design(num_disks: int, stripe_size: int, syndromes: int) -> _Design:
    """The catalog's closest-feasible-alpha design (the paper's
    substitution); :class:`LayoutError` when it has no data units."""
    catalog = default_catalog()
    k = catalog.closest_k(num_disks, stripe_size)
    if k <= syndromes:
        raise LayoutError(
            f"no layout for C={num_disks} G={stripe_size}: the closest feasible "
            f"alpha has G={k}, which leaves no data units beside {syndromes} "
            f"syndrome unit(s)"
        )
    return k, catalog.blocks(num_disks, k), lambda: catalog.build(num_disks, k)


def _prime_plan(num_disks: int, stripe_size: int, syndromes: int) -> LayoutPlan:
    """The table-free layout: permutation striping, which needs a prime
    C and G < C; :class:`LayoutError` elsewhere."""
    if not (is_prime(num_disks) and stripe_size < num_disks):
        raise LayoutError(
            f"layout 'prime' needs a prime C with G < C, got C={num_disks} "
            f"G={stripe_size}"
        )
    return LayoutPlan(
        lambda: PermutationStripingLayout(
            num_disks, stripe_size, num_syndromes=syndromes
        ),
        stripe_size,
        stripe_size * (num_disks - 1),
    )


def check_layout(
    num_disks: int, stripe_size: int, syndromes: int = 1, layout: str = "auto"
) -> LayoutPlan:
    """The plan :func:`build_layout` follows for ``(C, G)``; raises
    :class:`LayoutError` where it cannot serve the shape.

    The rules, in order (``"prime"`` forces rule 3's construction,
    ``"table"`` skips it):

    1. G == C: the RAID 5 rotation (RAID 6 with two syndromes).
    2. An exact table (:func:`_exact_design`).
    3. Under ``"auto"``, permutation striping with the requested G.
    4. Below :data:`SAMPLING_THRESHOLD_DISKS`, the closest feasible
       alpha, unless it leaves no data units. At larger widths that
       substitute is a near-complete design: intractable to validate
       and nothing like the requested geometry.
    5. Otherwise, :class:`LayoutError`.

    Only parameters are read, so the plan is cheap at every width.
    """
    if num_disks > MAX_NUM_DISKS:
        raise LayoutError(f"C={num_disks} exceeds the {MAX_NUM_DISKS}-disk limit")
    if layout not in LAYOUT_CHOICES:
        raise LayoutError(
            f"unknown layout {layout!r}; choose from {LAYOUT_CHOICES}"
        )
    if syndromes not in (1, 2) or not syndromes < stripe_size <= num_disks:
        raise LayoutError(
            f"no layout for C={num_disks} G={stripe_size} with {syndromes} "
            f"syndrome unit(s): need 1 or 2 of them and {syndromes} < G <= C"
        )
    if layout == "prime":
        return _prime_plan(num_disks, stripe_size, syndromes)
    if stripe_size == num_disks:
        return LayoutPlan(
            lambda: LeftSymmetricRaid5Layout(num_disks, num_syndromes=syndromes),
            num_disks,
            num_disks,
        )
    design = _exact_design(num_disks, stripe_size, syndromes)
    if design is None and layout == "auto":
        try:
            return _prime_plan(num_disks, stripe_size, syndromes)
        except LayoutError as error:
            if num_disks >= SAMPLING_THRESHOLD_DISKS:
                raise LayoutError(
                    f"no layout for C={num_disks} G={stripe_size}: the catalog "
                    f"has no design at this width and no arithmetic "
                    f"construction fits ({error})"
                ) from error
    if design is None:
        if num_disks >= SAMPLING_THRESHOLD_DISKS:
            raise LayoutError(
                f"layout 'table' has no design for C={num_disks} "
                f"G={stripe_size} at this width"
            )
        design = _substitute_design(num_disks, stripe_size, syndromes)
    k, blocks, build_design = design
    # G duplications of b tuples put G * r = b * G**2 / C units on a disk.
    return LayoutPlan(
        lambda: DeclusteredLayout(build_design(), num_syndromes=syndromes),
        k,
        blocks * k * k // num_disks,
    )


def build_layout(
    num_disks: int, stripe_size: int, syndromes: int = 1, layout: str = "auto"
) -> ParityLayout:
    """A parity layout for ``G`` on ``C`` disks (RAID 5 when G == C).

    ``syndromes=2`` gives P+Q stripes through the same constructors.
    ``layout`` picks the implementation family
    (:data:`LAYOUT_CHOICES`); :func:`check_layout` gives the rules and
    says beforehand whether it can.
    """
    return check_layout(num_disks, stripe_size, syndromes, layout).build()


def alpha_of(num_disks: int, stripe_size: int) -> float:
    """Declustering ratio of the (C, G) pair."""
    return (stripe_size - 1) / (num_disks - 1)
