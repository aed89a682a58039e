"""Executable versions of the paper's six layout-goodness criteria.

Section 4.1 lists six criteria for a parity layout. The first four are
properties of the parity mapping alone; the last two involve the data
mapping. Each check inspects one full table of a layout (the layout is
periodic, so the table is sufficient) and returns a
:class:`CriterionReport` with pass/fail plus the measured evidence.

Each criterion has one algorithm, run over the items it audits: table
stripes (criteria 1 and 5), failed disks or failed pairs (criterion 2
and its pair-balanced twin), counted disks (criterion 3 and its Q
twin) or window starts (criterion 6). The counting criteria go through
the inverse mapping, one failed disk, failed pair or counted disk at a
time, so each audited item costs O(table_depth · G) however many
stripes the period holds.

An arithmetic layout's period can hold millions of stripes, so
``sampled=True`` audits a seeded sample of each kind of item instead
of all of them (:data:`SAMPLE_SEED`, ``SAMPLE_*`` sizes). A sample that
would cover its population is the full audit, and the report says so.
Every sampled item is still verified exactly: a sampled failure's
survivor loads are counted over the whole period, never estimated.
:func:`evaluate_layout` samples from :data:`SAMPLING_THRESHOLD_DISKS`
disks up.
"""

from __future__ import annotations

import itertools
import random
import typing
from dataclasses import dataclass, field

from repro.layout.base import PARITY_ROLE, Q_ROLE, ParityLayout

#: Array widths at or above this get sampled criteria checks.
SAMPLING_THRESHOLD_DISKS = 256

#: Seed of every sampled audit, so reports are reproducible run to run.
SAMPLE_SEED = 1992
#: Stripes audited by the per-stripe checks (criteria 1 and 5).
SAMPLE_STRIPES = 512
#: Failed disks whose survivor loads are counted (criterion 2).
SAMPLE_FAILED_DISKS = 2
#: Disks whose parity/Q units are counted (criterion 3 and dual 3).
SAMPLE_COUNTED_DISKS = 16
#: Failed pairs audited by the dual pair-balance check.
SAMPLE_PAIRS = 2
#: Aligned logical windows audited by criterion 6.
SAMPLE_WINDOWS = 128


@dataclass
class CriterionReport:
    """Outcome of one layout criterion check."""

    name: str
    passed: bool
    detail: str
    metrics: typing.Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _audited(
    population: int, sample_size: int, sampled: bool
) -> typing.Tuple[typing.Sequence[int], bool]:
    """The indices below ``population`` a check audits, and whether they
    are a sample: ``sample_size`` distinct ones drawn with
    :data:`SAMPLE_SEED`, sorted, or all of them. A sample that would
    cover the population is the full audit, and reports as one."""
    if not sampled or sample_size >= population:
        return range(population), False
    indices = random.Random(SAMPLE_SEED).sample(range(population), sample_size)
    return sorted(indices), True


def _audited_stripes(
    layout: ParityLayout, sampled: bool
) -> typing.Tuple[typing.Sequence[int], bool]:
    """Every table stripe, or the seeded sample (criteria 1 and 5)."""
    return _audited(layout.stripes_per_table, SAMPLE_STRIPES, sampled)


def _sampled_scope(count: int, items: str) -> str:
    return f"each of {count} sampled {items} (seed {SAMPLE_SEED})"


def check_single_failure_correcting(
    layout: ParityLayout, sampled: bool = False
) -> CriterionReport:
    """Criterion 1: no two units of a stripe share a disk."""
    stripes, sampled = _audited_stripes(layout, sampled)
    if sampled:
        scope = f"{len(stripes)} sampled stripes (seed {SAMPLE_SEED})"
    else:
        scope = f"all {len(stripes)} table stripes"
    for s in stripes:
        disks = [u.disk for u in layout.stripe_units(s)]
        if len(set(disks)) != len(disks):
            return CriterionReport(
                name="single-failure-correcting",
                passed=False,
                detail=f"stripe {s} places two units on one disk ({disks})",
            )
    return CriterionReport(
        name="single-failure-correcting",
        passed=True,
        detail=f"{scope} use distinct disks",
        metrics={"stripes_audited": len(stripes)},
    )


def survivor_loads_for_failure(
    layout: ParityLayout, failed: int
) -> typing.List[int]:
    """Units each disk reads per table to rebuild ``failed``, via the
    inverse mapping — O(table_depth · G) for one failed disk, however
    many stripes the period holds."""
    loads = [0] * layout.num_disks
    for offset in range(layout.table_depth):
        stripe, _role = layout.stripe_of(failed, offset)
        for unit in layout.stripe_units(stripe):
            if unit.disk != failed:
                loads[unit.disk] += 1
    return loads


def check_distributed_reconstruction(
    layout: ParityLayout, sampled: bool = False
) -> CriterionReport:
    """Criterion 2: reconstruction work is uniform over surviving disks.

    For every audited failed disk, every surviving disk must contribute
    the same number of units per table. For a BIBD layout this constant
    is ``lam * G`` per full table.
    """
    failures, sampled = _audited(layout.num_disks, SAMPLE_FAILED_DISKS, sampled)
    loads: typing.Set[int] = set()
    for failed in failures:
        row = survivor_loads_for_failure(layout, failed)
        loads.update(load for survivor, load in enumerate(row) if survivor != failed)
    scope = _sampled_scope(len(failures), "failures") if sampled else "any failure"
    if len(loads) == 1:
        load = loads.pop()
        return CriterionReport(
            name="distributed-reconstruction",
            passed=True,
            detail=f"every survivor reads exactly {load} units per table for {scope}",
            metrics={"units_per_survivor_per_table": load},
        )
    return CriterionReport(
        name="distributed-reconstruction",
        passed=False,
        detail=f"survivor loads vary across pairs: {sorted(loads)}",
        metrics={"min_load": min(loads), "max_load": max(loads)},
    )


def _role_units_on_disk(layout: ParityLayout, disk: int, role: int) -> int:
    """Units with ``role`` on one disk per table, via the inverse mapping."""
    return sum(
        1
        for offset in range(layout.table_depth)
        if layout.stripe_of(disk, offset)[1] == role
    )


def role_units_per_disk(layout: ParityLayout, role: int) -> typing.List[int]:
    """Units with ``role`` (a check role or data position) each disk
    holds in one full table."""
    return [_role_units_on_disk(layout, disk, role) for disk in range(layout.num_disks)]


def _check_distributed_role(
    layout: ParityLayout,
    sampled: bool,
    role: int,
    name: str,
    label: str,
    metric: str,
) -> CriterionReport:
    disks, sampled = _audited(layout.num_disks, SAMPLE_COUNTED_DISKS, sampled)
    counts = [_role_units_on_disk(layout, disk, role) for disk in disks]
    scope = _sampled_scope(len(disks), "disks") if sampled else "every disk"
    if len(set(counts)) == 1:
        return CriterionReport(
            name=name,
            passed=True,
            detail=f"{scope} holds {counts[0]} {label} units per table",
            metrics={metric: counts[0]},
        )
    return CriterionReport(
        name=name,
        passed=False,
        detail=f"{label} counts per disk vary: min={min(counts)}, max={max(counts)}",
        metrics={"min": min(counts), "max": max(counts)},
    )


def check_distributed_parity(
    layout: ParityLayout, sampled: bool = False
) -> CriterionReport:
    """Criterion 3: parity units are spread evenly over the disks."""
    return _check_distributed_role(
        layout, sampled, PARITY_ROLE, "distributed-parity", "parity",
        "parity_units_per_disk",
    )


def check_efficient_mapping(
    layout: ParityLayout, max_table_units: int = 1_000_000
) -> CriterionReport:
    """Criterion 4: the mapping state is small enough to hold in memory.

    The paper rejects layouts whose table approaches the disk's own unit
    count (its 41-disk complete-design example needs ~3.75M tuples). We
    report the units the implementation actually materializes —
    :attr:`~repro.layout.base.ParityLayout.mapping_table_units` — against
    a configurable threshold. Arithmetic layouts materialize nothing,
    so they pass trivially however long their period is; the criterion
    still applies in full to every table-based layout.
    """
    units = layout.mapping_table_units
    passed = units <= max_table_units
    if units == 0:
        detail = (
            f"arithmetic mapping materializes no table "
            f"(period of {layout.stripes_per_table} stripes, "
            f"depth {layout.table_depth} per disk)"
        )
    else:
        detail = (
            f"full table holds {layout.stripes_per_table} stripes "
            f"({units} unit slots, depth {layout.table_depth} per disk)"
        )
    return CriterionReport(
        name="efficient-mapping",
        passed=passed,
        detail=detail,
        metrics={"table_stripes": layout.stripes_per_table, "table_units": units},
    )


def check_large_write_optimization(
    layout: ParityLayout, sampled: bool = False
) -> CriterionReport:
    """Criterion 5: contiguous logical data aligns with parity stripes.

    A user write covering logical units ``s*(G-1) .. s*(G-1)+G-2`` must
    touch exactly the data units of one parity stripe, so no pre-reads
    are needed.
    """
    g_data = layout.data_units_per_stripe
    stripes, sampled = _audited_stripes(layout, sampled)
    for s in stripes:
        spanned = {
            layout.stripe_of_logical(s * g_data + j) for j in range(g_data)
        }
        if spanned != {s}:
            return CriterionReport(
                name="large-write-optimization",
                passed=False,
                detail=f"logical window of stripe {s} spans stripes {sorted(spanned)}",
            )
    scope = f"every sampled (seed {SAMPLE_SEED})" if sampled else "every"
    return CriterionReport(
        name="large-write-optimization",
        passed=True,
        detail=f"{scope} aligned (G-1)-unit logical window is exactly one parity stripe",
    )


def _window_distinct_disks(layout: ParityLayout, start: int, width: int) -> int:
    return len(
        {layout.logical_to_physical(start + i).disk for i in range(width)}
    )


def _sliding_distinct_disks(
    layout: ParityLayout, total: int, width: int
) -> typing.Iterator[typing.Tuple[int, int]]:
    """``(start, distinct disks)`` for every window start below ``total``,
    by sliding one window: each step retires one logical unit and admits
    one, so the scan is O(total) translations instead of O(total · width)."""
    counts: typing.Dict[int, int] = {}
    for i in range(width):
        disk = layout.logical_to_physical(i).disk
        counts[disk] = counts.get(disk, 0) + 1
    for start in range(total):
        yield start, len(counts)
        leaving = layout.logical_to_physical(start).disk
        remaining = counts[leaving] - 1
        if remaining:
            counts[leaving] = remaining
        else:
            del counts[leaving]
        entering = layout.logical_to_physical(start + width).disk
        counts[entering] = counts.get(entering, 0) + 1


def check_maximal_parallelism(
    layout: ParityLayout, sampled: bool = False
) -> CriterionReport:
    """Criterion 6: any C consecutive logical units touch all C disks.

    The paper's declustered data mapping fails this (its Figure 4-2
    example reads disks 0 and 1 twice and disks 3 and 4 not at all);
    left-symmetric RAID 5 passes. The report includes the fraction of
    aligned windows that do achieve full parallelism.

    The full audit slides one window across the period; a sampled
    window is counted on its own.
    """
    c = layout.num_disks
    # Window starts, the last windows wrapping into the next table.
    total = layout.stripes_per_table * layout.data_units_per_stripe
    starts, sampled = _audited(total, SAMPLE_WINDOWS, sampled)
    audited = len(starts)
    if sampled:
        windows: typing.Iterable[typing.Tuple[int, int]] = (
            (start, _window_distinct_disks(layout, start, c)) for start in starts
        )
        scope = f"all {audited} sampled windows (seed {SAMPLE_SEED})"
    else:
        windows = _sliding_distinct_disks(layout, total, c)
        scope = f"all {total} aligned windows"
    failures = 0
    first_failure = None
    distinct_sum = 0
    for start, distinct in windows:
        distinct_sum += distinct
        if distinct != c:
            failures += 1
            if first_failure is None:
                first_failure = start
    fraction_ok = 1.0 - failures / audited
    mean_coverage = distinct_sum / (audited * c)
    metrics = {"fraction_parallel": fraction_ok, "mean_disk_coverage": mean_coverage}
    if failures == 0:
        return CriterionReport(
            name="maximal-parallelism",
            passed=True,
            detail=f"{scope} of {c} units span {c} distinct disks",
            metrics=metrics,
        )
    return CriterionReport(
        name="maximal-parallelism",
        passed=False,
        detail=(
            f"{failures}/{audited} windows miss full parallelism "
            f"(first at logical unit {first_failure}); a window covers "
            f"{mean_coverage:.0%} of the disks on average"
        ),
        metrics=metrics,
    )


def check_double_failure_correcting(
    layout: ParityLayout, sampled: bool = False
) -> CriterionReport:
    """Dual criterion 1: two syndromes and no two stripe units share a disk.

    With P and Q per stripe, any two failed disks cost a stripe at most
    two units — exactly the erasure budget of the code — so no stripe
    loses data.
    """
    if layout.num_syndromes < 2:
        return CriterionReport(
            name="double-failure-correcting",
            passed=False,
            detail="layout has a single syndrome; a second failure loses data",
        )
    distinct = check_single_failure_correcting(layout, sampled)
    return CriterionReport(
        name="double-failure-correcting",
        passed=distinct.passed,
        detail=(
            "two syndromes per stripe and " + distinct.detail
            if distinct.passed
            else distinct.detail
        ),
    )


def survivor_loads_for_pair(
    layout: ParityLayout, pair: typing.Tuple[int, int]
) -> typing.List[int]:
    """Units each disk reads per table when both disks of ``pair`` fail,
    via the inverse mapping — O(table_depth · G) for one pair.

    Every stripe touching either failed disk is read in full (one pass
    serves both rebuild targets), so a survivor is charged once per
    degraded stripe it belongs to.
    """
    degraded: typing.Set[int] = set()
    for failed in pair:
        for offset in range(layout.table_depth):
            degraded.add(layout.stripe_of(failed, offset)[0])
    loads = [0] * layout.num_disks
    for stripe in degraded:
        for unit in layout.stripe_units(stripe):
            if unit.disk not in pair:
                loads[unit.disk] += 1
    return loads


def _pair_at(num_disks: int, index: int) -> typing.Tuple[int, int]:
    """The ``index``-th pair of ``itertools.combinations(range(num_disks), 2)``."""
    first = 0
    pairs_with_first = num_disks - 1
    while index >= pairs_with_first:
        index -= pairs_with_first
        first += 1
        pairs_with_first -= 1
    return first, first + 1 + index


def check_pair_balanced_reconstruction(
    layout: ParityLayout, sampled: bool = False
) -> CriterionReport:
    """Dual criterion 2: rebuild load is uniform for every failed *pair*.

    For each audited pair of failed disks, every surviving disk must
    read the same number of units per table. A BIBD alone does not
    guarantee this — it takes a ``t = 3`` design (uniform triple
    co-occurrence), since the load on survivor ``d`` is
    ``N(a,d) + N(b,d) - N(a,b,d)``. A sampled pair is unranked from
    its index, so no audit lists the ``C(C-1)/2`` pairs.
    """
    num_disks = layout.num_disks
    population = num_disks * (num_disks - 1) // 2
    indices, sampled = _audited(population, SAMPLE_PAIRS, sampled)
    if sampled:
        pairs: typing.Iterable[typing.Tuple[int, int]] = (
            _pair_at(num_disks, index) for index in indices
        )
    else:
        pairs = itertools.combinations(range(num_disks), 2)
    observed: typing.Set[int] = set()
    for pair in pairs:
        row = survivor_loads_for_pair(layout, pair)
        observed.update(load for d, load in enumerate(row) if d not in pair)
    scope = _sampled_scope(len(indices), "failed pairs") if sampled else "any failed pair"
    if len(observed) == 1:
        load = observed.pop()
        return CriterionReport(
            name="pair-balanced-reconstruction",
            passed=True,
            detail=(
                f"every survivor reads exactly {load} units per table "
                f"for {scope}"
            ),
            metrics={"units_per_survivor_per_table": load},
        )
    return CriterionReport(
        name="pair-balanced-reconstruction",
        passed=False,
        detail=f"survivor loads vary across failed pairs: {sorted(observed)}",
        metrics={"min_load": min(observed), "max_load": max(observed)},
    )


def check_distributed_q(
    layout: ParityLayout, sampled: bool = False
) -> CriterionReport:
    """Dual criterion 3: Q units are spread evenly over the disks."""
    return _check_distributed_role(
        layout, sampled, Q_ROLE, "distributed-q", "Q", "q_units_per_disk"
    )


def evaluate_layout(layout: ParityLayout) -> typing.List[CriterionReport]:
    """Run all criteria checks against a layout.

    The paper's six checks always run; dual-syndrome layouts get three
    more (double-failure correction, pair-balanced reconstruction,
    distributed Q). Below :data:`SAMPLING_THRESHOLD_DISKS` disks every
    item is audited; at or above it, the seeded sample.
    """
    sampled = layout.num_disks >= SAMPLING_THRESHOLD_DISKS
    reports = [
        check_single_failure_correcting(layout, sampled),
        check_distributed_reconstruction(layout, sampled),
        check_distributed_parity(layout, sampled),
        check_efficient_mapping(layout),
        check_large_write_optimization(layout, sampled),
        check_maximal_parallelism(layout, sampled),
    ]
    if layout.num_syndromes == 2:
        reports.extend(
            [
                check_double_failure_correcting(layout, sampled),
                check_pair_balanced_reconstruction(layout, sampled),
                check_distributed_q(layout, sampled),
            ]
        )
    return reports
