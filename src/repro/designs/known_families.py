"""Verified cyclic difference families from the literature.

These play the role of Hall's published tables for shapes the
algebraic constructors don't cover — chiefly cyclic Steiner triple
systems (k=3, lam=1) for small-G layouts on odd array sizes, plus the
(15, 7, 3) Singer difference set. Every family here is validated into
a full BIBD at construction (and by the test suite), so a
transcription error cannot reach a layout.

Format: ``(v, k) -> (base blocks, periods)``. ``None`` period
entries develop a full orbit of ``v`` shifts.
"""

from __future__ import annotations

import typing

from repro.designs.design import BlockDesign
from repro.designs.difference import cyclic_design

FamilySpec = typing.Tuple[
    typing.Tuple[typing.Tuple[int, ...], ...],
    typing.Optional[typing.Tuple[typing.Optional[int], ...]],
]

#: Cyclic difference families, keyed by (v, k).
KNOWN_FAMILIES: typing.Dict[typing.Tuple[int, int], FamilySpec] = {
    # Steiner triple systems S(2, 3, v) — one-lam triples.
    (13, 3): (((0, 1, 4), (0, 2, 7)), None),
    (15, 3): (((0, 1, 4), (0, 2, 9), (0, 5, 10)), (None, None, 5)),
    (19, 3): (((0, 1, 4), (0, 2, 9), (0, 5, 11)), None),
    (25, 3): (((0, 1, 3), (0, 4, 11), (0, 5, 13), (0, 6, 15)), None),
    (31, 3): (((0, 1, 12), (0, 2, 24), (0, 3, 8), (0, 4, 17), (0, 6, 16)), None),
    (37, 3): (
        ((0, 1, 3), (0, 4, 26), (0, 5, 14), (0, 6, 25), (0, 7, 17), (0, 8, 21)),
        None,
    ),
    # A Singer difference set, lam = 3.
    (15, 7): (((0, 1, 2, 4, 5, 8, 10),), None),
}


def known_family_design(v: int, k: int) -> BlockDesign:
    """Build (and validate) the registered family for ``(v, k)``.

    Raises
    ------
    KeyError
        If no family is registered for the parameters.
    """
    blocks, periods = KNOWN_FAMILIES[(v, k)]
    return cyclic_design(
        [list(block) for block in blocks],
        modulus=v,
        periods=list(periods) if periods is not None else None,
        name=f"family-{v}-{k}",
    )
