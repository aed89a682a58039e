"""Fold a cProfile of one scenario run into the simulator's layers.

Self time (``tottime``) is summed by module path under the ``repro``
package. A function outside the package (a C builtin or a stdlib
function) has no layer of its own: its time goes to the layers of its
callers, split by the pstats caller records. Counts are exact ``ncalls``
at each layer's public entry points.
"""

from __future__ import annotations

import os
import typing

import repro
from repro.array.controller import ArrayController
from repro.array.locks import StripeLockTable
from repro.disk.drive import Disk, service_components
from repro.disk.vectorized import service_times
from repro.sim.events import Event, Timeout
from repro.sim.process import Process

#: Module path (relative to the ``repro`` package) -> layer; the first
#: matching prefix wins. Everything else (experiments, designs, the
#: remaining sim modules) is ``other``.
LAYER_PREFIXES = (
    ("sim/environment.py", "sim.environment"),
    ("sim/events.py", "sim.events"),
    ("sim/process.py", "sim.process"),
    ("workload/", "workload"),
    ("array/", "array"),
    ("layout/", "layout"),
    ("disk/scheduling/", "disk.scheduling"),
    ("disk/", "disk"),
    ("recon/", "recon"),
    ("faults/", "faults"),
    ("metrics/", "metrics"),
)
LAYERS = tuple(layer for _prefix, layer in LAYER_PREFIXES) + ("other",)

#: Count name -> the functions whose calls it counts. ``Event.__init__``
#: also runs (via ``super()``) for every Process and Condition, so
#: ``sim.events`` counts every event object the kernel creates.
ENTRY_POINTS = {
    "sim.events": (Event.__init__, Timeout.__init__),
    "sim.processes": (Process.__init__,),
    "array.user_requests": (ArrayController.submit,),
    "array.lock_acquires": (StripeLockTable.acquire,),
    "disk.requests": (Disk.submit,),
    "disk.service_evals": (service_components,),
    "disk.batch_pricings": (service_times,),
}
#: Count name -> (module prefix, function names): every definition of
#: these names under the prefix, whichever layout or scheduler class
#: the scenario picked.
NAMED_ENTRY_POINTS = {
    "layout.translations": (
        "layout/",
        ("logical_to_physical", "physical_to_logical", "stripe_of"),
    ),
    "disk.scheduling.pops": ("disk/scheduling/", ("pop",)),
}

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

FuncKey = typing.Tuple[str, int, str]


def _relative(filename: str) -> typing.Optional[str]:
    """Path under the ``repro`` package, or None outside it."""
    if not filename.startswith(_PACKAGE_DIR):
        return None
    return filename[len(_PACKAGE_DIR):].replace(os.sep, "/")


def module_layer(filename: str) -> typing.Optional[str]:
    """The layer of a ``repro`` source file; None outside the package."""
    relative = _relative(filename)
    if relative is None:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return "other"


def _key(function) -> FuncKey:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_self_times(stats: dict) -> typing.Dict[str, float]:
    """Seconds of self time per layer; sums to the profile's total."""
    homes: typing.Dict[FuncKey, str] = {}

    def home(func: FuncKey, visiting: frozenset) -> str:
        """The layer a function's own time belongs to."""
        if func in homes:
            return homes[func]
        layer = module_layer(func[0])
        if layer is None:
            # Outside the package: the layer of the caller that spent
            # the most cumulative time in it.
            callers = stats[func][4] if func in stats else {}
            heaviest = max(callers, key=lambda c: callers[c][3], default=None)
            if heaviest is None or heaviest in visiting:
                layer = "other"
            else:
                layer = home(heaviest, visiting | {func})
        homes[func] = layer
        return layer

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        if module_layer(func[0]) is not None or not callers:
            totals[home(func, frozenset())] += tottime
            continue
        for caller, (_c_nc, _c_cc, caller_tt, _c_ct) in callers.items():
            totals[home(caller, frozenset({func}))] += caller_tt
    return totals


def entry_counts(stats: dict) -> typing.Dict[str, int]:
    """Exact call counts at the layers' public entry points."""
    ncalls = {func: entry[1] for func, entry in stats.items()}
    counts = {
        name: sum(ncalls.get(_key(function), 0) for function in functions)
        for name, functions in ENTRY_POINTS.items()
    }
    for name, (prefix, names) in NAMED_ENTRY_POINTS.items():
        counts[name] = sum(
            calls
            for (filename, _line, function), calls in ncalls.items()
            if function in names and (_relative(filename) or "").startswith(prefix)
        )
    return counts
