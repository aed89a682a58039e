"""Whole-program analysis layer: module graph, call graph, flow analyses.

The per-module rules (DET001, DET002, DET004, LOCK001, ERR001) see one
file at a time; everything in this package sees the whole tree at once:

- :mod:`~repro.devtools.simlint.project.modules` — the
  :class:`ProjectContext`: every module parsed, functions and classes
  indexed by qualified name, imports and lightweight type annotations
  resolved so ``self.controller._decode`` finds the method it names.
- :mod:`~repro.devtools.simlint.project.callgraph` — call sites
  resolved against that index into a project-wide call graph.
- :mod:`~repro.devtools.simlint.project.taint` — interprocedural
  nondeterminism taint (rule DET010).
- :mod:`~repro.devtools.simlint.project.lockflow` — interprocedural
  stripe-lock discipline (rule LOCK010) and the closer spans simsan
  reads.

Analyses are memoized on the :class:`ProjectContext`, so the call
graph both flow analyses read is built once per lint run.
"""

from repro.devtools.simlint.project.callgraph import CallGraph, CallSite
from repro.devtools.simlint.project.modules import (
    ClassInfo,
    FunctionInfo,
    ProjectContext,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ProjectContext",
]
