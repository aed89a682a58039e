"""Cyclic (difference-method) block design construction.

This is Hall's abbreviated notation used in the paper's appendix: a
design is given as a set of *base blocks* over ``Z_N``; the full design
is developed by adding every residue ``0..N-1`` (element-wise, mod N) to
each base block. A base block may carry a *period* ``P < N``, in which
case development stops after ``P`` additions — this handles short
orbits such as ``[0, 7, 14] (mod 21) period 7``, which is invariant
under ``+7``.

The base blocks form a *difference family*: every nonzero residue must
arise as a difference of two base-block elements a constant number of
times, which is what makes the developed design balanced.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.designs.design import BlockDesign, DesignError


@dataclass(frozen=True)
class BaseBlock:
    """One base block of a difference family, with an optional period."""

    elements: typing.Tuple[int, ...]
    period: typing.Optional[int] = None

    def orbit_length(self, modulus: int) -> int:
        """Number of developed tuples this base block contributes."""
        return self.period if self.period is not None else modulus


def develop_base_blocks(
    base_blocks: typing.Sequence[BaseBlock],
    modulus: int,
    name: str = "",
) -> BlockDesign:
    """Develop a difference family into a full cyclic design.

    The tuples come block-major, then by shift: each base block's orbit
    in turn.

    Parameters
    ----------
    base_blocks:
        The family; all blocks must share one size.
    modulus:
        ``N`` — the design's object count and the development modulus.
    """
    if modulus < 2:
        raise DesignError(f"modulus must be >= 2, got {modulus}")
    tuples = []
    for base in base_blocks:
        length = base.orbit_length(modulus)
        if not 1 <= length <= modulus:
            raise DesignError(f"period {length} outside 1..{modulus}")
        for shift in range(length):
            tuples.append(tuple((e + shift) % modulus for e in base.elements))
    return BlockDesign(v=modulus, tuples=tuple(tuples), name=name)


def cyclic_design(
    base_blocks: typing.Sequence[typing.Sequence[int]],
    modulus: int,
    periods: typing.Optional[typing.Sequence[typing.Optional[int]]] = None,
    name: str = "",
) -> BlockDesign:
    """Convenience wrapper: build and validate a cyclic design.

    Full BIBD balance is checked after development, so an invalid
    difference family fails loudly.

    Parameters
    ----------
    base_blocks:
        Sequences of residues mod ``modulus``.
    periods:
        Per-block development periods; ``None`` entries mean a full
        orbit of ``modulus`` shifts.
    """
    if periods is None:
        periods = [None] * len(base_blocks)
    if len(periods) != len(base_blocks):
        raise DesignError("periods list must match base_blocks list")
    blocks = [
        BaseBlock(elements=tuple(int(e) % modulus for e in elems), period=p)
        for elems, p in zip(base_blocks, periods)
    ]
    design = develop_base_blocks(blocks, modulus, name=name)
    design.validate()
    return design
