"""Balanced incomplete and complete block designs.

A *block design* arranges ``v`` objects into ``b`` tuples of ``k``
elements each such that every object appears in exactly ``r`` tuples and
every pair of objects appears in exactly ``lam`` tuples. The paper maps
disks to objects and parity stripes to tuples: constant pair counts are
exactly what makes reconstruction load uniform across surviving disks
(layout criterion 2).

This package provides:

- :class:`BlockDesign` — the validated design type;
- constructors: complete designs, difference-method (cyclic) designs,
  quadratic-residue symmetric designs, projective/affine planes, derived
  and complemented designs;
- the six designs from the paper's appendix (:mod:`repro.designs.paper`);
- a catalog with lookup by ``(v, k)`` and closest-feasible-``alpha``
  fallback (:mod:`repro.designs.catalog`), mirroring the paper's design
  selection policy.
"""

from repro.designs.design import BlockDesign, DesignError
from repro.designs.complete import complete_design
from repro.designs.difference import BaseBlock, cyclic_design, develop_base_blocks
from repro.designs.derived import complement_design, derived_design
from repro.designs.families import (
    affine_plane,
    projective_plane,
    quadratic_residue_design,
)
from repro.designs.paper import paper_design, PAPER_DESIGN_ALPHAS
from repro.designs.catalog import DesignCatalog, default_catalog
from repro.designs.tdesigns import (
    boolean_quadruple_system,
    cyclic_pq_design,
    is_t_balanced,
    validate_t_design,
)

__all__ = [
    "BaseBlock",
    "BlockDesign",
    "DesignCatalog",
    "DesignError",
    "PAPER_DESIGN_ALPHAS",
    "affine_plane",
    "boolean_quadruple_system",
    "complement_design",
    "complete_design",
    "cyclic_design",
    "cyclic_pq_design",
    "default_catalog",
    "derived_design",
    "develop_base_blocks",
    "is_t_balanced",
    "paper_design",
    "projective_plane",
    "quadratic_residue_design",
    "validate_t_design",
]
