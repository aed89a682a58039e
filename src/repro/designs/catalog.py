"""Design catalog: lookup and closest-feasible selection.

The paper's selection policy (Section 4.3): prefer a known balanced
incomplete block design on ``(v=C, k=G)``; otherwise try a complete
design if it is small enough; otherwise choose the closest feasible
design point — the ``k`` whose ``alpha`` is nearest the request —
because "the performance of an array is not highly sensitive to such
small variations in alpha". :class:`DesignCatalog` implements exactly
that policy over a registry of verified constructions, in two steps:
choosing the tuple size from parameters alone (:meth:`~DesignCatalog.blocks`
and :meth:`~DesignCatalog.closest_k` read the registry and
:func:`math.comb`), then building that design
(:meth:`~DesignCatalog.build`). :mod:`repro.experiments.builders` plans
every layout with the first step, so checking a shape builds no design.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.designs.complete import complete_design, complete_design_size
from repro.designs.derived import complement_design, derived_design
from repro.designs.design import BlockDesign, DesignError
from repro.designs.families import (
    affine_plane,
    is_prime,
    projective_plane,
    quadratic_residue_design,
)
from repro.designs.paper import PAPER_DESIGN_PARAMETERS, paper_design

DesignFactory = typing.Callable[[], BlockDesign]


@dataclass(frozen=True)
class CatalogEntry:
    """A known design: parameters plus a lazy constructor."""

    v: int
    k: int
    b: int
    source: str
    factory: DesignFactory = None  # type: ignore[assignment]

    def alpha(self) -> float:
        return (self.k - 1) / (self.v - 1)


class DesignCatalog:
    """A registry of known block designs with the paper's lookup policy."""

    def __init__(self, max_table_tuples: int = 50_000):
        #: Designs larger than this violate the efficient-mapping
        #: criterion (the paper's 41-disk G=5 example would need ~3.75M
        #: tuples for a complete design) and are not offered.
        self.max_table_tuples = max_table_tuples
        self._entries: typing.Dict[typing.Tuple[int, int], CatalogEntry] = {}
        self._cache: typing.Dict[typing.Tuple[int, int], BlockDesign] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, v: int, k: int, b: int, source: str, factory: DesignFactory) -> None:
        """Add a design; smaller ``b`` wins when ``(v, k)`` collides."""
        key = (v, k)
        existing = self._entries.get(key)
        if existing is None or b < existing.b:
            self._entries[key] = CatalogEntry(v=v, k=k, b=b, source=source, factory=factory)
            self._cache.pop(key, None)

    def entries(self) -> typing.List[CatalogEntry]:
        """All registered designs, sorted by (v, k)."""
        return [self._entries[key] for key in sorted(self._entries)]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def exact(self, v: int, k: int) -> typing.Optional[BlockDesign]:
        """The registered design on ``(v, k)``, or None."""
        key = (v, k)
        if key in self._cache:
            return self._cache[key]
        entry = self._entries.get(key)
        if entry is None:
            return None
        design = entry.factory()
        self._cache[key] = design
        return design

    def blocks(self, v: int, k: int) -> typing.Optional[int]:
        """Tuples in the design :meth:`build` makes for ``(v, k)``, or
        None when it exceeds ``max_table_tuples``. Builds nothing."""
        if not 2 <= k <= v:
            raise DesignError(f"need 2 <= k <= v, got k={k}, v={v}")
        entry = self._entries.get((v, k))
        b = entry.b if entry is not None else complete_design_size(v, k)
        return b if b <= self.max_table_tuples else None

    def feasible_ks(self, v: int) -> typing.List[int]:
        """Tuple sizes with a design within ``max_table_tuples``."""
        return [k for k in range(2, v + 1) if self.blocks(v, k) is not None]

    def closest_k(self, v: int, k: int) -> int:
        """The feasible tuple size ``k'`` minimizing
        ``|alpha(k') - alpha(k)|``, the smaller on a tie. Builds nothing."""
        target_alpha = (k - 1) / (v - 1)
        candidates = self.feasible_ks(v)
        if not candidates:
            raise DesignError(f"no feasible design on {v} objects at any tuple size")
        return min(candidates, key=lambda kk: (abs((kk - 1) / (v - 1) - target_alpha), kk))

    def build(self, v: int, k: int) -> BlockDesign:
        """The design on ``(v, k)``: the registered one, else the
        complete one."""
        design = self.exact(v, k)
        return design if design is not None else complete_design(v, k)

    def select(self, v: int, k: int) -> BlockDesign:
        """A design for ``(v, k)``, or the closest feasible ``alpha``.

        Follows the paper's policy in two steps: choose the tuple size
        (``k`` itself when a registered or small complete design has
        it, else :meth:`closest_k`), then :meth:`build` that design.
        """
        if self.blocks(v, k) is None:
            k = self.closest_k(v, k)
        return self.build(v, k)


def _register_paper_designs(catalog: DesignCatalog) -> None:
    for g, (b, v, k, _r, _lam) in PAPER_DESIGN_PARAMETERS.items():
        if g == 18:
            continue  # complete design; the generic fallback covers it
        catalog.register(v=v, k=k, b=b, source="paper-appendix", factory=lambda g=g: paper_design(g))


def _register_families(catalog: DesignCatalog, max_objects: int = 200) -> None:
    for p in range(3, max_objects):
        if not is_prime(p):
            continue
        if p % 4 == 3 and p >= 7:
            v, k = p, (p - 1) // 2
            catalog.register(v, k, b=p, source="quadratic-residue",
                             factory=lambda p=p: quadratic_residue_design(p))
            # Derived designs give (k, lam) points: v'=(p-1)/2, k'=(p-3)/4.
            if (p - 3) // 4 >= 2:
                catalog.register(
                    (p - 1) // 2, (p - 3) // 4, b=p - 1, source="derived-qr",
                    factory=lambda p=p: derived_design(quadratic_residue_design(p)),
                )
            # Complements fill in large-alpha points (0.5 < alpha < 1).
            catalog.register(
                p, p - k, b=p, source="complement-qr",
                factory=lambda p=p: complement_design(quadratic_residue_design(p)),
            )
        if p * p + p + 1 <= max_objects:
            catalog.register(
                p * p + p + 1, p + 1, b=p * p + p + 1, source="projective-plane",
                factory=lambda p=p: projective_plane(p),
            )
        if p * p <= max_objects:
            catalog.register(
                p * p, p, b=p * p + p, source="affine-plane",
                factory=lambda p=p: affine_plane(p),
            )


def _register_known_families(catalog: DesignCatalog) -> None:
    from repro.designs.known_families import KNOWN_FAMILIES, known_family_design

    for (v, k), (blocks, periods) in KNOWN_FAMILIES.items():
        orbit = lambda p: v if p is None else p  # noqa: E731 - tiny local helper
        b = sum(
            orbit(periods[i] if periods is not None else None)
            for i in range(len(blocks))
        )
        catalog.register(
            v, k, b=b, source="difference-family",
            factory=lambda v=v, k=k: known_family_design(v, k),
        )


def _register_extensions(catalog: DesignCatalog) -> None:
    """Complements of the paper's designs: the alpha 0.5-0.8 gap.

    The paper's future-work section calls small designs with
    ``0.5 < alpha < 0.8`` an open problem; complementing its own
    appendix designs yields (21, 15), (21, 16), (21, 17), and (21, 18)
    designs of 105, 21, 70, and 42 tuples respectively.
    """
    for g, new_k in [(6, 15), (5, 16), (3, 18), (4, 17), (10, 11)]:
        b = PAPER_DESIGN_PARAMETERS[g][0]
        catalog.register(
            21, new_k, b=b, source="complement-paper",
            factory=lambda g=g: complement_design(paper_design(g)),
        )


_DEFAULT: typing.Optional[DesignCatalog] = None


def default_catalog() -> DesignCatalog:
    """The shared catalog with paper, family, and extension designs."""
    global _DEFAULT
    if _DEFAULT is None:
        catalog = DesignCatalog()
        _register_paper_designs(catalog)
        _register_families(catalog)
        _register_known_families(catalog)
        _register_extensions(catalog)
        _DEFAULT = catalog
    return _DEFAULT
