"""Job specs: untrusted JSON in, validated scenario configs out.

A client submits one of three spec kinds:

``{"kind": "scenario", "config": {...}}``
    One :class:`~repro.experiments.runner.ScenarioConfig` canonical key
    (the same form :meth:`ScenarioConfig.to_key` emits — algorithm by
    name, scale by preset name or fields).

``{"kind": "sweep", "axes": [["field", [v, ...]], ...], "base": {...}}``
    A parameter grid, enumerated by :class:`~repro.sweep.grid.SweepSpec`
    (row-major, first axis slowest), so a sweep submitted to the service
    addresses the same cache entries as the CLI figure that defined it.

``{"kind": "campaign", "stripe_sizes": [...], "trials": N, ...}``
    A Monte Carlo fault campaign (the grid of
    :func:`repro.experiments.campaign.campaign_spec`): one sweep over
    its trials, whose rows aggregate the per-trial summaries.

Validation is strict and total: any malformed document raises
:class:`SpecError` with a human-readable message — the service maps it
to a 400 response, never a traceback. The validated spec normalizes to
a canonical JSON document whose SHA-256 is the job id, so two requests
describing the same work — whatever their spelling — are one job.
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

from repro._version import __version__
from repro.experiments.campaign import (
    CAMPAIGN_PQ_STRIPE_SIZES,
    CAMPAIGN_STRIPE_SIZES,
    MISSION_HOURS,
    TRIALS,
    campaign_spec,
)
from repro.experiments.runner import ScenarioConfig
from repro.sweep.grid import SweepSpec

#: Bump when the normalized spec layout changes; separates job ids the
#: way the sweep cache separates result formats.
#: v2: normalized configs carry ScenarioConfig.layout (implementation
#: family), so every stored config key changed shape.
SPEC_FORMAT_VERSION = 2

KINDS = ("scenario", "sweep", "campaign")

#: Upper bound on points per job: a typo'd axis must not enqueue a
#: million simulations.
MAX_POINTS = 4096


class SpecError(ValueError):
    """A submitted job spec is invalid; ``str(error)`` says why."""


@dataclass
class JobSpec:
    """A validated job: its kind, its points, and campaign parameters."""

    kind: str
    configs: typing.List[ScenarioConfig]
    #: Campaign aggregation parameters; None for scenario/sweep jobs.
    campaign: typing.Optional[dict] = None
    #: The normalized, JSON-safe document this spec round-trips through.
    document: dict = field(default_factory=dict)

    def job_id(self) -> str:
        """Content address of the normalized spec (+ versions)."""
        payload = json.dumps(
            {
                "spec_format": SPEC_FORMAT_VERSION,
                "package_version": __version__,
                "spec": self.document,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _require_mapping(document: typing.Any) -> typing.Mapping:
    if not isinstance(document, dict):
        raise SpecError(
            f"spec must be a JSON object, got {type(document).__name__}"
        )
    return document


def _config_from_key(key: typing.Any, where: str) -> ScenarioConfig:
    if not isinstance(key, dict):
        raise SpecError(f"{where} must be a JSON object of ScenarioConfig fields")
    try:
        return ScenarioConfig.from_key(key)
    except (TypeError, ValueError, KeyError) as error:
        raise SpecError(f"invalid {where}: {error}") from error


def _parse_scenario(document: typing.Mapping) -> JobSpec:
    config = _config_from_key(document.get("config"), "scenario config")
    return JobSpec(
        kind="scenario",
        configs=[config],
        document={"kind": "scenario", "configs": [config.to_key()]},
    )


def _parse_sweep(document: typing.Mapping) -> JobSpec:
    axes = document.get("axes")
    if not isinstance(axes, (list, tuple)) or not axes:
        raise SpecError("sweep spec needs a non-empty 'axes' list")
    for axis in axes:
        if (
            not isinstance(axis, (list, tuple))
            or len(axis) != 2
            or not isinstance(axis[0], str)
            or not isinstance(axis[1], (list, tuple))
        ):
            raise SpecError(
                "each axis must be a ['field_name', [values...]] pair"
            )
    base = document.get("base", {})
    if not isinstance(base, dict):
        raise SpecError("'base' must be a JSON object of ScenarioConfig fields")
    try:
        grid = SweepSpec(axes=axes, base=base)
    except ValueError as error:
        raise SpecError(str(error)) from error
    if grid.size > MAX_POINTS:
        raise SpecError(
            f"sweep enumerates {grid.size} points; the limit is {MAX_POINTS}"
        )
    try:
        configs = grid.configs()
    except (TypeError, ValueError, KeyError) as error:
        raise SpecError(f"invalid sweep point: {error}") from error
    return JobSpec(
        kind="sweep",
        configs=configs,
        document={"kind": "sweep", "configs": [c.to_key() for c in configs]},
    )


def _parse_campaign(document: typing.Mapping) -> JobSpec:
    scale = document.get("scale", "tiny")
    if not isinstance(scale, str) or scale not in TRIALS:
        raise SpecError(
            f"campaign 'scale' must be one of {sorted(TRIALS)}, got {scale!r}"
        )
    syndromes = document.get("syndromes", 1)
    if syndromes not in (1, 2) or isinstance(syndromes, bool):
        raise SpecError("'syndromes' must be 1 or 2")
    default_sizes = (
        CAMPAIGN_PQ_STRIPE_SIZES if syndromes == 2 else CAMPAIGN_STRIPE_SIZES
    )
    stripe_sizes = document.get("stripe_sizes", list(default_sizes))
    if (
        not isinstance(stripe_sizes, (list, tuple))
        or not stripe_sizes
        or not all(isinstance(g, int) and not isinstance(g, bool) for g in stripe_sizes)
    ):
        raise SpecError("'stripe_sizes' must be a non-empty list of integers")
    trials = document.get("trials", TRIALS[scale])
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise SpecError("'trials' must be a positive integer")
    seed = document.get("seed", 1992)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecError("'seed' must be an integer")
    mission_hours = document.get("mission_hours", MISSION_HOURS)
    if (
        not isinstance(mission_hours, (int, float))
        or not math.isfinite(mission_hours)
        or mission_hours <= 0
    ):
        raise SpecError("'mission_hours' must be a positive finite number")
    if len(stripe_sizes) * trials > MAX_POINTS:
        raise SpecError(
            f"campaign enumerates {len(stripe_sizes) * trials} trials; "
            f"the limit is {MAX_POINTS}"
        )
    try:
        grid = campaign_spec(
            scale,
            stripe_sizes=stripe_sizes,
            seed=seed,
            trials=trials,
            mission_hours=float(mission_hours),
            syndromes=syndromes,
        )
        configs = grid.configs()
    except (TypeError, ValueError) as error:
        raise SpecError(f"invalid campaign grid: {error}") from error
    campaign = {
        "trials": trials,
        "mission_hours": float(mission_hours),
        "stripe_sizes": [int(g) for g in stripe_sizes],
        "seed": seed,
        "syndromes": syndromes,
    }
    return JobSpec(
        kind="campaign",
        configs=configs,
        campaign=campaign,
        document={
            "kind": "campaign",
            "campaign": campaign,
            "configs": [c.to_key() for c in configs],
        },
    )


def parse_spec(document: typing.Any) -> JobSpec:
    """Validate a submitted spec document; :class:`SpecError` on any flaw."""
    document = _require_mapping(document)
    kind = document.get("kind")
    if kind == "scenario":
        return _parse_scenario(document)
    if kind == "sweep":
        return _parse_sweep(document)
    if kind == "campaign":
        return _parse_campaign(document)
    raise SpecError(f"'kind' must be one of {KINDS}, got {kind!r}")


def spec_from_normalized(document: typing.Any) -> JobSpec:
    """Rebuild a :class:`JobSpec` from a stored normalized document.

    The job store persists the normalized form (explicit config keys);
    restart-time recovery rebuilds the executable spec from it without
    re-deriving grids. Raises :class:`SpecError` if the stored document
    is unusable (e.g. written by an incompatible version).
    """
    document = _require_mapping(document)
    kind = document.get("kind")
    if kind not in KINDS:
        raise SpecError(f"stored spec has unknown kind {kind!r}")
    keys = document.get("configs")
    if not isinstance(keys, list) or not keys:
        raise SpecError("stored spec has no configs")
    configs = [
        _config_from_key(key, f"stored config {index}")
        for index, key in enumerate(keys)
    ]
    campaign = document.get("campaign")
    if kind == "campaign" and not isinstance(campaign, dict):
        raise SpecError("stored campaign spec lacks campaign parameters")
    return JobSpec(
        kind=kind,
        configs=configs,
        campaign=campaign if kind == "campaign" else None,
        document=dict(document),
    )
