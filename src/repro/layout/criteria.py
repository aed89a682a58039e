"""Executable versions of the paper's six layout-goodness criteria.

Section 4.1 lists six criteria for a parity layout. The first four are
properties of the parity mapping alone; the last two involve the data
mapping. Each check inspects one full table of a layout (the layout is
periodic, so the table is sufficient) and returns a
:class:`CriterionReport` with pass/fail plus the measured evidence.

Large arrays change the economics: an arithmetic layout's period can
hold millions of stripes, so walking all of it per criterion is off the
table. Every check therefore accepts an optional :class:`SamplePlan`:

- Per-stripe invariants (criteria 1, 5) and window starts (criterion 6)
  are checked on a seeded sample — each sampled item is verified
  exactly.
- Counting criteria (2, 3, and the dual checks) sample *failed disks*
  (or pairs, or counted disks) and compute each sample's full load
  exactly through the inverse mapping over one period — never an
  estimate, just fewer disks audited.

``evaluate_layout(layout)`` picks the mode automatically: exact below
:data:`SAMPLING_THRESHOLD_DISKS` disks (bit-identical to the original
exhaustive checks), sampled at or above it.
"""

from __future__ import annotations

import itertools
import random
import typing
from dataclasses import dataclass, field

from repro.layout.base import PARITY_ROLE, Q_ROLE, ParityLayout

#: Array widths at or above this default to sampled criteria checks.
SAMPLING_THRESHOLD_DISKS = 256


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


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sample sizes for criteria checks on large layouts.

    Every sampled item is still verified exactly; the plan only bounds
    how many stripes / disks / pairs / windows get audited. The seed
    makes reports reproducible run to run.
    """

    seed: int = 1992
    #: Stripes audited by the per-stripe checks (criteria 1 and 5).
    stripes: int = 512
    #: Failed disks whose full survivor-load vector is computed (criterion 2).
    failed_disks: int = 2
    #: Disks whose parity/Q counts are tallied (criterion 3 and dual 3).
    counted_disks: int = 16
    #: Failed pairs audited by the dual pair-balance check.
    pairs: int = 2
    #: Aligned logical windows audited by criterion 6.
    windows: int = 128

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def sample_plan(
    layout: ParityLayout, mode: str = "auto", seed: int = 1992
) -> typing.Optional[SamplePlan]:
    """The plan a mode implies: None means exact (exhaustive) checks."""
    if mode not in ("auto", "exact", "sample"):
        raise ValueError(f"mode must be 'auto', 'exact' or 'sample', got {mode!r}")
    if mode == "exact":
        return None
    if mode == "sample" or layout.num_disks >= SAMPLING_THRESHOLD_DISKS:
        return SamplePlan(seed=seed)
    return None


def _table_stripes(layout: ParityLayout) -> range:
    return range(layout.stripes_per_table)


def _sample(population: int, count: int, rng: random.Random) -> typing.List[int]:
    """``count`` distinct indices below ``population``, sorted; all if small."""
    if count >= population:
        return list(range(population))
    return sorted(rng.sample(range(population), count))


def check_single_failure_correcting(
    layout: ParityLayout, plan: typing.Optional[SamplePlan] = None
) -> CriterionReport:
    """Criterion 1: no two units of a stripe share a disk."""
    if plan is None:
        stripes: typing.Iterable[int] = _table_stripes(layout)
        audited = layout.stripes_per_table
        scope = f"all {audited} table stripes"
    else:
        sampled = _sample(layout.stripes_per_table, plan.stripes, plan.rng())
        stripes = sampled
        audited = len(sampled)
        scope = f"{audited} sampled stripes (seed {plan.seed})"
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
        metrics={"stripes_audited": audited},
    )


def reconstruction_load_matrix(layout: ParityLayout) -> typing.List[typing.List[int]]:
    """``m[f][d]``: units disk ``d`` reads per table to rebuild disk ``f``."""
    c = layout.num_disks
    matrix = [[0] * c for _ in range(c)]
    for s in _table_stripes(layout):
        disks = [u.disk for u in layout.stripe_units(s)]
        for failed in disks:
            for survivor in disks:
                if survivor != failed:
                    matrix[failed][survivor] += 1
    return matrix


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
    layout: ParityLayout, plan: typing.Optional[SamplePlan] = None
) -> CriterionReport:
    """Criterion 2: reconstruction work is uniform over surviving disks.

    For every possible failed disk, every surviving disk must contribute
    the same number of units per table. For a BIBD layout this constant
    is ``lam * G`` per full table. Under a :class:`SamplePlan`, failed
    disks are sampled but each sampled disk's survivor loads are
    computed exactly.
    """
    loads: typing.Set[int] = set()
    if plan is None:
        matrix = reconstruction_load_matrix(layout)
        for failed, row in enumerate(matrix):
            for survivor, load in enumerate(row):
                if survivor != failed:
                    loads.add(load)
        scope = "any failure"
    else:
        sampled = _sample(layout.num_disks, plan.failed_disks, plan.rng())
        for failed in sampled:
            row = survivor_loads_for_failure(layout, failed)
            for survivor, load in enumerate(row):
                if survivor != failed:
                    loads.add(load)
        scope = f"each of {len(sampled)} sampled failures (seed {plan.seed})"
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


def role_units_per_disk(layout: ParityLayout, role: int) -> typing.List[int]:
    """Units with ``role`` (a check role or data position) each disk
    holds in one full table."""
    counts = [0] * layout.num_disks
    for s in _table_stripes(layout):
        counts[layout.stripe_unit(s, role).disk] += 1
    return counts


def _role_count_on_disk(layout: ParityLayout, disk: int, role: int) -> int:
    """Units with ``role`` on one disk per table, via the inverse mapping."""
    return sum(
        1
        for offset in range(layout.table_depth)
        if layout.stripe_of(disk, offset)[1] == role
    )


def _check_distributed_role(
    layout: ParityLayout,
    plan: typing.Optional[SamplePlan],
    role: int,
    name: str,
    label: str,
    metric: str,
) -> CriterionReport:
    if plan is None:
        counts = role_units_per_disk(layout, role)
        scope = "every disk"
    else:
        sampled = _sample(layout.num_disks, plan.counted_disks, plan.rng())
        counts = [_role_count_on_disk(layout, disk, role) for disk in sampled]
        scope = f"each of {len(sampled)} sampled disks (seed {plan.seed})"
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
    layout: ParityLayout, plan: typing.Optional[SamplePlan] = None
) -> CriterionReport:
    """Criterion 3: parity units are spread evenly over the disks."""
    return _check_distributed_role(
        layout, plan, PARITY_ROLE, "distributed-parity", "parity",
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
    layout: ParityLayout, plan: typing.Optional[SamplePlan] = None
) -> CriterionReport:
    """Criterion 5: contiguous logical data aligns with parity stripes.

    A user write covering logical units ``s*(G-1) .. s*(G-1)+G-2`` must
    touch exactly the data units of one parity stripe, so no pre-reads
    are needed.
    """
    g_data = layout.data_units_per_stripe
    if plan is None:
        stripes: typing.Iterable[int] = _table_stripes(layout)
        scope = "every"
    else:
        stripes = _sample(layout.stripes_per_table, plan.stripes, plan.rng())
        scope = f"every sampled (seed {plan.seed})"
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
    return CriterionReport(
        name="large-write-optimization",
        passed=True,
        detail=f"{scope} aligned (G-1)-unit logical window is exactly one parity stripe",
    )


def _window_distinct_disks(layout: ParityLayout, start: int, width: int) -> int:
    return len(
        {layout.logical_to_physical(start + i).disk for i in range(width)}
    )


def check_maximal_parallelism(
    layout: ParityLayout, plan: typing.Optional[SamplePlan] = None
) -> CriterionReport:
    """Criterion 6: any C consecutive logical units touch all C disks.

    The paper's declustered data mapping fails this (its Figure 4-2
    example reads disks 0 and 1 twice and disks 3 and 4 not at all);
    left-symmetric RAID 5 passes. The report includes the fraction of
    aligned windows that do achieve full parallelism.

    The exact mode slides one window across the period — each step
    retires one logical unit and admits one, so the whole scan is
    O(windows) translations instead of O(windows · C).
    """
    c = layout.num_disks
    g_data = layout.data_units_per_stripe
    total = layout.stripes_per_table * g_data  # window starts, wrapping into the next table
    failures = 0
    first_failure = None
    distinct_sum = 0
    if plan is None:
        audited = total
        counts: typing.Dict[int, int] = {}
        for i in range(c):
            disk = layout.logical_to_physical(i).disk
            counts[disk] = counts.get(disk, 0) + 1
        for start in range(total):
            distinct = len(counts)
            distinct_sum += distinct
            if distinct != c:
                failures += 1
                if first_failure is None:
                    first_failure = start
            leaving = layout.logical_to_physical(start).disk
            remaining = counts[leaving] - 1
            if remaining:
                counts[leaving] = remaining
            else:
                del counts[leaving]
            entering = layout.logical_to_physical(start + c).disk
            counts[entering] = counts.get(entering, 0) + 1
        scope = f"all {total} aligned windows"
    else:
        starts = _sample(total, plan.windows, plan.rng())
        audited = len(starts)
        for start in starts:
            distinct = _window_distinct_disks(layout, start, c)
            distinct_sum += distinct
            if distinct != c:
                failures += 1
                if first_failure is None:
                    first_failure = start
        scope = f"all {audited} sampled windows (seed {plan.seed})"
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
    layout: ParityLayout, plan: typing.Optional[SamplePlan] = None
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
    distinct = check_single_failure_correcting(layout, plan)
    return CriterionReport(
        name="double-failure-correcting",
        passed=distinct.passed,
        detail=(
            "two syndromes per stripe and " + distinct.detail
            if distinct.passed
            else distinct.detail
        ),
    )


def pair_reconstruction_loads(
    layout: ParityLayout,
) -> typing.Dict[typing.Tuple[int, int], typing.List[int]]:
    """``loads[(a, b)][d]``: units disk ``d`` reads per table when disks
    ``a`` and ``b`` have both failed.

    Every stripe touching either failed disk is read in full (one pass
    serves both rebuild targets), so survivor ``d`` is charged once per
    degraded stripe it belongs to.
    """
    c = layout.num_disks
    loads = {
        pair: [0] * c for pair in itertools.combinations(range(c), 2)
    }
    stripe_disks = [
        frozenset(u.disk for u in layout.stripe_units(s)) for s in _table_stripes(layout)
    ]
    for disks in stripe_disks:
        for pair in itertools.combinations(range(c), 2):
            if pair[0] in disks or pair[1] in disks:
                row = loads[pair]
                for d in disks:
                    if d not in pair:
                        row[d] += 1
    return loads


def survivor_loads_for_pair(
    layout: ParityLayout, pair: typing.Tuple[int, int]
) -> typing.List[int]:
    """Units each disk reads per table when both disks of ``pair`` fail,
    via the inverse mapping — O(table_depth · G) for one pair."""
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


def check_pair_balanced_reconstruction(
    layout: ParityLayout, plan: typing.Optional[SamplePlan] = None
) -> CriterionReport:
    """Dual criterion 2: rebuild load is uniform for every failed *pair*.

    For each pair of failed disks, every surviving disk must read the
    same number of units per table. A BIBD alone does not guarantee
    this — it takes a ``t = 3`` design (uniform triple co-occurrence),
    since the load on survivor ``d`` is ``N(a,d) + N(b,d) - N(a,b,d)``.
    """
    observed: typing.Set[int] = set()
    if plan is None:
        for pair, row in pair_reconstruction_loads(layout).items():
            for d, load in enumerate(row):
                if d not in pair:
                    observed.add(load)
        scope = "any failed pair"
    else:
        rng = plan.rng()
        all_pairs = list(itertools.combinations(range(layout.num_disks), 2))
        indices = _sample(len(all_pairs), plan.pairs, rng)
        for index in indices:
            pair = all_pairs[index]
            row = survivor_loads_for_pair(layout, pair)
            for d, load in enumerate(row):
                if d not in pair:
                    observed.add(load)
        scope = f"each of {len(indices)} sampled failed pairs (seed {plan.seed})"
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
    layout: ParityLayout, plan: typing.Optional[SamplePlan] = None
) -> CriterionReport:
    """Dual criterion 3: Q units are spread evenly over the disks."""
    return _check_distributed_role(
        layout, plan, Q_ROLE, "distributed-q", "Q", "q_units_per_disk"
    )


def evaluate_layout(
    layout: ParityLayout, mode: str = "auto", seed: int = 1992
) -> typing.List[CriterionReport]:
    """Run all criteria checks against a layout.

    The paper's six checks always run; dual-syndrome layouts get three
    more (double-failure correction, pair-balanced reconstruction,
    distributed Q). ``mode`` selects exhaustive (``"exact"``) or seeded
    sampled (``"sample"``) checking; the default ``"auto"`` stays exact
    below :data:`SAMPLING_THRESHOLD_DISKS` disks — bit-identical to the
    historical exhaustive reports — and samples at or above it.
    """
    plan = sample_plan(layout, mode=mode, seed=seed)
    reports = [
        check_single_failure_correcting(layout, plan),
        check_distributed_reconstruction(layout, plan),
        check_distributed_parity(layout, plan),
        check_efficient_mapping(layout),
        check_large_write_optimization(layout, plan),
        check_maximal_parallelism(layout, plan),
    ]
    if layout.num_syndromes == 2:
        reports.extend(
            [
                check_double_failure_correcting(layout, plan),
                check_pair_balanced_reconstruction(layout, plan),
                check_distributed_q(layout, plan),
            ]
        )
    return reports
