"""Declarative sweep grids over scenario configs.

A :class:`SweepSpec` is the experiment layer's answer to "run this
figure's grid": ordered parameter axes crossed into
:class:`~repro.experiments.runner.ScenarioConfig` points. Enumeration
is row-major with the first axis slowest — the same order as the
nested loops the figure modules used to hand-roll — so a sweep's point
order and row order are a pure function of the spec.

Every point carries the spec's base seed: each point is an independent
simulation with its own environment, so reuse is harmless and keeps the
figure outputs bit-identical. A grid that needs distinct seeds puts
them on an axis, as the fault campaign does with its per-trial fault
profiles.
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass, field, fields as dataclass_fields

from repro.experiments.runner import ScenarioConfig

_CONFIG_FIELDS = tuple(f.name for f in dataclass_fields(ScenarioConfig))


@dataclass(frozen=True)
class SweepPoint:
    """One enumerated grid point: its position, coordinates, and config."""

    index: int
    coords: typing.Dict[str, typing.Any]
    config: ScenarioConfig


@dataclass
class SweepSpec:
    """A parameter grid of scenario points.

    Parameters
    ----------
    axes:
        Ordered ``(field_name, values)`` pairs; the cross product is
        enumerated row-major (first axis slowest). Every name must be a
        ``ScenarioConfig`` field.
    base:
        Fixed ``ScenarioConfig`` fields shared by every point.
    """

    axes: typing.Sequence[typing.Tuple[str, typing.Sequence[typing.Any]]]
    base: typing.Mapping[str, typing.Any] = field(default_factory=dict)

    def __post_init__(self):
        self.axes = tuple((name, tuple(values)) for name, values in self.axes)
        self.base = dict(self.base)
        seen: typing.Set[str] = set()
        for name, values in self.axes:
            if name not in _CONFIG_FIELDS:
                raise ValueError(
                    f"axis {name!r} is not a ScenarioConfig field; "
                    f"choose from {_CONFIG_FIELDS}"
                )
            if name in seen:
                raise ValueError(f"axis {name!r} appears twice")
            if name in self.base:
                raise ValueError(f"{name!r} is both an axis and a base field")
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            seen.add(name)
        for name in self.base:
            if name not in _CONFIG_FIELDS:
                raise ValueError(
                    f"base field {name!r} is not a ScenarioConfig field"
                )

    @property
    def size(self) -> int:
        n = 1
        for _name, values in self.axes:
            n *= len(values)
        return n

    def points(self) -> typing.List[SweepPoint]:
        """Enumerate every grid point, in deterministic order."""
        names = [name for name, _values in self.axes]
        points = []
        for index, combo in enumerate(
            itertools.product(*(values for _name, values in self.axes))
        ):
            coords = dict(zip(names, combo))
            config = ScenarioConfig(**self.base, **coords)
            points.append(SweepPoint(index=index, coords=coords, config=config))
        return points

    def configs(self) -> typing.List[ScenarioConfig]:
        return [point.config for point in self.points()]
