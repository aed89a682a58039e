"""Programmatic BIBD families: quadratic residues and finite planes.

These families give the catalog a broad supply of verified incomplete
designs beyond the paper's six, so arrays of many shapes can pick a
small design rather than falling back to complete designs:

- **Quadratic-residue designs**: for a prime ``p ≡ 3 (mod 4)`` the
  quadratic residues mod p form a difference set developing into a
  symmetric ``(p, (p-1)/2, (p-3)/4)`` design — the paper's alpha=0.45
  design is derived from the (43, 21, 10) member of this family.
- **Projective planes** PG(2, q): symmetric ``(q^2+q+1, q+1, 1)``
  designs, built from lines over GF(q) (prime q).
- **Affine planes** AG(2, q): resolvable ``(q^2, q, 1)`` designs with
  ``b = q^2 + q`` lines (prime q).
"""

from __future__ import annotations

import typing

from repro.designs.design import BlockDesign, DesignError
from repro.designs.difference import cyclic_design


def is_prime(n: int) -> bool:
    """Trial-division primality, adequate for design-sized arguments."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def quadratic_residues(p: int) -> typing.List[int]:
    """The nonzero quadratic residues modulo a prime ``p``, sorted."""
    if not is_prime(p):
        raise DesignError(f"{p} is not prime")
    return sorted({(x * x) % p for x in range(1, p)})


def quadratic_residue_design(p: int) -> BlockDesign:
    """The symmetric ``(p, (p-1)/2, (p-3)/4)`` QR design for ``p ≡ 3 (mod 4)``."""
    if p % 4 != 3:
        raise DesignError(f"QR designs need p ≡ 3 (mod 4), got {p}")
    residues = quadratic_residues(p)
    return cyclic_design([residues], modulus=p, name=f"qr-{p}")


def projective_plane(q: int) -> BlockDesign:
    """PG(2, q) as a symmetric ``(q^2+q+1, q+1, 1)`` design (prime ``q``).

    Points are the 1-dimensional subspaces of GF(q)^3 and tuples are the
    lines (2-dimensional subspaces); every pair of points lies on
    exactly one line.
    """
    if not is_prime(q):
        raise DesignError(f"projective_plane needs prime order, got {q}")
    # Canonical representatives of projective points: (1,y,z), (0,1,z), (0,0,1).
    points = (
        [(1, y, z) for y in range(q) for z in range(q)]
        + [(0, 1, z) for z in range(q)]
        + [(0, 0, 1)]
    )
    index = {pt: i for i, pt in enumerate(points)}
    # Lines are also indexed by projective triples [a:b:c]; a point lies
    # on a line iff a*x + b*y + c*z == 0 (mod q).
    tuples = []
    for a, b, c in points:  # dual: same representative set
        line = tuple(
            index[pt] for pt in points if (a * pt[0] + b * pt[1] + c * pt[2]) % q == 0
        )
        tuples.append(line)
    design = BlockDesign(v=len(points), tuples=tuple(tuples), name=f"pg2-{q}")
    design.validate()
    return design


def affine_plane(q: int) -> BlockDesign:
    """AG(2, q) as a ``(q^2, q, 1)`` design with ``q^2+q`` lines (prime ``q``)."""
    if not is_prime(q):
        raise DesignError(f"affine_plane needs prime order, got {q}")

    def point(x: int, y: int) -> int:
        return x * q + y

    tuples = []
    for slope in range(q):
        for intercept in range(q):
            tuples.append(tuple(point(x, (slope * x + intercept) % q) for x in range(q)))
    for x in range(q):  # vertical lines
        tuples.append(tuple(point(x, y) for y in range(q)))
    design = BlockDesign(v=q * q, tuples=tuple(tuples), name=f"ag2-{q}")
    design.validate()
    return design
