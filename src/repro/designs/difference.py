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


def iter_developed_tuples(
    base_blocks: typing.Sequence[BaseBlock], modulus: int
) -> typing.Iterator[typing.Tuple[int, ...]]:
    """Develop a difference family lazily, one tuple at a time.

    Yields tuples in the canonical development order — block-major,
    then shift — which every consumer of cyclic designs (including the
    arithmetic layouts, whose offset formulas re-derive this order)
    relies on. Nothing here allocates the O(b·k) developed design.
    """
    if modulus < 2:
        raise DesignError(f"modulus must be >= 2, got {modulus}")
    for base in base_blocks:
        length = base.orbit_length(modulus)
        if not 1 <= length <= modulus:
            raise DesignError(f"period {length} outside 1..{modulus}")
        for shift in range(length):
            yield tuple((e + shift) % modulus for e in base.elements)


def difference_family_lambda(
    base_blocks: typing.Sequence[BaseBlock], modulus: int
) -> int:
    """Verify balance of a *full-orbit* difference family; return ``lam``.

    Counts how often every nonzero residue arises as a difference of two
    elements of one base block — O(m·k²) time and O(v) memory, never the
    developed design. A constant count ``lam`` is exactly what makes the
    developed design a BIBD, so this is the streamed equivalent of
    ``BlockDesign.validate()`` for cyclic designs.

    Raises
    ------
    DesignError
        If any block develops a short orbit (balance of those is not a
        pure difference count), elements repeat within a block, or the
        difference counts are not constant.
    """
    if modulus < 2:
        raise DesignError(f"modulus must be >= 2, got {modulus}")
    if not base_blocks:
        raise DesignError("difference family has no base blocks")
    counts = [0] * modulus
    for base in base_blocks:
        if base.orbit_length(modulus) != modulus:
            raise DesignError(
                f"difference counting needs full orbits; block {base.elements} "
                f"has period {base.period}"
            )
        residues = [e % modulus for e in base.elements]
        if len(set(residues)) != len(residues):
            raise DesignError(f"base block {base.elements} repeats an element")
        for a in residues:
            for b in residues:
                if a != b:
                    counts[(a - b) % modulus] += 1
    lams = set(counts[1:])
    if len(lams) != 1:
        raise DesignError(
            f"not a difference family: difference counts range over {sorted(lams)}"
        )
    return lams.pop()


def develop_base_blocks(
    base_blocks: typing.Sequence[BaseBlock],
    modulus: int,
    name: str = "",
) -> BlockDesign:
    """Develop a difference family into a full cyclic design.

    Parameters
    ----------
    base_blocks:
        The family; all blocks must share one size.
    modulus:
        ``N`` — the design's object count and the development modulus.
    """
    return BlockDesign(
        v=modulus,
        tuples=tuple(iter_developed_tuples(base_blocks, modulus)),
        name=name,
    )


def cyclic_design(
    base_blocks: typing.Sequence[typing.Sequence[int]],
    modulus: int,
    periods: typing.Optional[typing.Sequence[typing.Optional[int]]] = None,
    name: str = "",
    validate: bool = True,
) -> BlockDesign:
    """Convenience wrapper: build and (by default) validate a cyclic design.

    Parameters
    ----------
    base_blocks:
        Sequences of residues mod ``modulus``.
    periods:
        Per-block development periods; ``None`` entries mean a full
        orbit of ``modulus`` shifts.
    validate:
        When True (default), check full BIBD balance after development,
        so an invalid difference family fails loudly.
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
    if validate:
        design.validate()
    return design
