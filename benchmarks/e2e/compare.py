"""Verdicts between two benchmark documents (parent ``A`` vs change ``B``).

For every (workload, end-to-end metric) both documents report:

- ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the metric's bound, and neither side has every
  run better than every run of the other;
- otherwise ``worse`` / ``better`` when B's median moved past the bound
  in that direction, else ``within-bound``.

A metric whose bound is 0 (``failed_frac``) is compared exactly: any
increase is ``worse``.
"""

from __future__ import annotations

import typing

WORSE = "worse"
BETTER = "better"
WITHIN = "within-bound"
UNRESOLVED = "unresolved"


class MetricSpec(typing.NamedTuple):
    unit: str
    better: str  # "lower" or "higher"
    bound: float  # share of A's median; 0 means any change counts


def _spread(summary: dict) -> float:
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def verdict(spec: MetricSpec, a: dict, b: dict) -> typing.Tuple[str, typing.Optional[float]]:
    """(verdict, B's change as a signed share of A's median; + is better)."""
    sign = 1.0 if spec.better == "higher" else -1.0
    if spec.bound == 0:
        gain = sign * (b["median"] - a["median"])
        return (BETTER if gain > 0 else WORSE if gain < 0 else WITHIN), None
    gain = sign * (b["median"] - a["median"]) / a["median"]
    if max(_spread(a), _spread(b)) > spec.bound:
        a_best = max(sign * v for v in a["values"])
        a_worst = min(sign * v for v in a["values"])
        b_best = max(sign * v for v in b["values"])
        b_worst = min(sign * v for v in b["values"])
        if not (b_worst > a_best or a_worst > b_best):
            return UNRESOLVED, gain
    if gain < -spec.bound:
        return WORSE, gain
    if gain > spec.bound:
        return BETTER, gain
    return WITHIN, gain


def compare(
    specs: typing.Mapping[str, MetricSpec], a_doc: dict, b_doc: dict
) -> typing.List[dict]:
    """One row per (workload, metric) present in both documents."""
    rows = []
    for workload, a_entry in a_doc["workloads"].items():
        b_entry = b_doc["workloads"].get(workload)
        if b_entry is None:
            continue
        for metric, spec in specs.items():
            a = a_entry["end_to_end"].get(metric)
            b = b_entry["end_to_end"].get(metric)
            if a is None or b is None:
                continue
            outcome, gain = verdict(spec, a, b)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": spec.unit,
                    "a_median": a["median"],
                    "b_median": b["median"],
                    "gain": gain,
                    "bound": spec.bound,
                    "verdict": outcome,
                }
            )
    return rows


def format_rows(rows: typing.Sequence[dict]) -> typing.List[str]:
    lines = [
        f"{'workload':<12} {'metric':<20} {'A median':>12} {'B median':>12} "
        f"{'gain':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        gain = "" if row["gain"] is None else f"{row['gain']:+.1%}"
        lines.append(
            f"{row['workload']:<12} {row['metric']:<20} "
            f"{row['a_median']:>12.6g} {row['b_median']:>12.6g} "
            f"{gain:>8} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return lines
