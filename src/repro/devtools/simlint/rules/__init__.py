"""Rule modules. Importing this package registers every rule.

Rule inventory (IDs are stable public API):

Per-module (always run):

- ``DET001`` — no wall-clock reads in simulation code
- ``DET002`` — no module-level or unseeded random draws
- ``DET004`` — no iteration over hash-ordered collections
- ``LOCK001`` — stripe-lock acquire must release in try/finally
- ``ERR001`` — no broad except that can swallow DataLossError

Whole-program (``repro lint --project``):

- ``DET010`` — call returns transitive nondeterminism
- ``LOCK010`` — stripe lock escapes its cross-function release protocol

Runtime sanitizer (``repro simsan``):

- ``SAN001``–``SAN005`` — lock-protocol violations observed while a
  macro scenario actually runs (see
  :mod:`repro.devtools.simsan.monitor`)
"""

from repro.devtools.simlint.rules import (
    determinism,
    errors,
    interprocedural,
    locks,
)

__all__ = ["determinism", "errors", "interprocedural", "locks"]
