"""Persist experiment rows as JSON for downstream analysis.

Experiment runners return plain dict rows; this module writes them with
enough metadata (experiment name, scale, package version, row schema)
that a result file is self-describing.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing

from repro._version import __version__

FORMAT_VERSION = 1


def canonical_json_value(value: typing.Any) -> typing.Any:
    """JSON fallback for experiment objects that appear inside rows.

    A :class:`~repro.recon.algorithms.ReconAlgorithm` serializes by
    name, a :class:`~repro.experiments.runner.ScenarioConfig` by its
    canonical key (:meth:`to_key`, shared with the sweep result
    cache), and a :class:`~repro.experiments.scales.ScalePreset` by
    its fields — so rows carrying live config objects are storable and
    diffable without every runner hand-flattening them first.
    """
    from repro.experiments.runner import ScenarioConfig
    from repro.experiments.scales import ScalePreset
    from repro.recon.algorithms import ReconAlgorithm

    if isinstance(value, ReconAlgorithm):
        return value.name
    if isinstance(value, ScenarioConfig):
        return value.to_key()
    if isinstance(value, ScalePreset):
        return dataclasses.asdict(value)
    raise TypeError(
        f"object of type {type(value).__name__} is not JSON serializable"
    )


def save_rows(
    path: typing.Union[str, pathlib.Path],
    experiment: str,
    scale: str,
    rows: typing.Sequence[dict],
) -> None:
    """Write rows plus metadata as a JSON document."""
    document = {
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "experiment": experiment,
        "scale": scale,
        "fields": sorted({key for row in rows for key in row}),
        "rows": list(rows),
    }
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True, default=canonical_json_value)
        + "\n",
        encoding="utf-8",
    )

