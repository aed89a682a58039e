"""The block design type and its validation."""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass, field


class DesignError(ValueError):
    """Raised when tuples do not form a valid balanced block design."""


@dataclass(frozen=True)
class BlockDesign:
    """A balanced (possibly complete) block design.

    Attributes
    ----------
    v:
        Number of objects; objects are the integers ``0..v-1``.
    tuples:
        The ``b`` tuples, each a tuple of ``k`` distinct objects. Element
        order within a tuple is preserved — the layout construction uses
        it to place successive stripe units.
    name:
        Optional provenance label (e.g. ``"paper-bd3"``).
    """

    v: int
    tuples: typing.Tuple[typing.Tuple[int, ...], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.v < 2:
            raise DesignError(f"need at least two objects, got v={self.v}")
        if not self.tuples:
            raise DesignError("a design needs at least one tuple")
        object.__setattr__(self, "tuples", tuple(tuple(t) for t in self.tuples))
        k = len(self.tuples[0])
        for t in self.tuples:
            if len(t) != k:
                raise DesignError(f"non-uniform tuple sizes: {len(t)} vs {k}")
            if len(set(t)) != k:
                raise DesignError(f"tuple {t} repeats an object")
            for obj in t:
                if not 0 <= obj < self.v:
                    raise DesignError(f"object {obj} outside 0..{self.v - 1}")
        if k < 2:
            raise DesignError(f"tuple size must be at least 2, got {k}")
        if k > self.v:
            raise DesignError(f"tuple size {k} exceeds object count {self.v}")

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    @property
    def b(self) -> int:
        """Number of tuples."""
        return len(self.tuples)

    @property
    def k(self) -> int:
        """Tuple size (stripe units per parity stripe when used as a layout)."""
        return len(self.tuples[0])

    @property
    def r(self) -> int:
        """Replication count: tuples containing each object (``bk = vr``)."""
        return self.b * self.k // self.v

    @property
    def lam(self) -> int:
        """Pair count: tuples containing each object pair (``r(k-1) = lam(v-1)``)."""
        return self.r * (self.k - 1) // (self.v - 1)

    def alpha(self) -> float:
        """Declustering ratio ``(G-1)/(C-1)`` when used for a C=v, G=k array."""
        return (self.k - 1) / (self.v - 1)

    # ------------------------------------------------------------------
    # Balance checking
    # ------------------------------------------------------------------
    def replication_counts(self) -> typing.List[int]:
        """How many tuples each object appears in, indexed by object."""
        counts = [0] * self.v
        for t in self.tuples:
            for obj in t:
                counts[obj] += 1
        return counts

    def pair_counts(self) -> typing.Dict[typing.Tuple[int, int], int]:
        """How many tuples each unordered object pair co-occurs in."""
        counts: typing.Dict[typing.Tuple[int, int], int] = {
            pair: 0 for pair in itertools.combinations(range(self.v), 2)
        }
        for t in self.tuples:
            for pair in itertools.combinations(sorted(t), 2):
                counts[pair] += 1
        return counts

    def is_balanced(self) -> bool:
        """True if replication and pair counts are uniform (a true BIBD)."""
        try:
            self.validate()
        except DesignError:
            return False
        return True

    def validate(self) -> None:
        """Check full BIBD balance, raising :class:`DesignError` on failure.

        Verifies the counting identities ``bk = vr`` and
        ``r(k-1) = lam(v-1)`` and then the actual per-object and per-pair
        counts against ``r`` and ``lam``.
        """
        if (self.b * self.k) % self.v != 0:
            raise DesignError(
                f"bk = {self.b * self.k} not divisible by v = {self.v}: "
                "objects cannot appear equally often"
            )
        r = self.r
        if (r * (self.k - 1)) % (self.v - 1) != 0:
            raise DesignError(
                f"r(k-1) = {r * (self.k - 1)} not divisible by v-1 = {self.v - 1}: "
                "pairs cannot appear equally often"
            )
        lam = self.lam
        replication = self.replication_counts()
        bad_objects = [i for i, c in enumerate(replication) if c != r]
        if bad_objects:
            raise DesignError(
                f"objects {bad_objects[:5]} appear {[replication[i] for i in bad_objects[:5]]} "
                f"times, expected r = {r}"
            )
        for pair, count in self.pair_counts().items():
            if count != lam:
                raise DesignError(
                    f"pair {pair} co-occurs in {count} tuples, expected lam = {lam}"
                )

    def is_symmetric(self) -> bool:
        """True for symmetric designs (``b == v``, hence ``k == r``)."""
        return self.b == self.v

    def summary(self) -> str:
        """One-line human description with all five parameters."""
        return (
            f"BlockDesign(b={self.b}, v={self.v}, k={self.k}, r={self.r}, "
            f"lam={self.lam}, alpha={self.alpha():.3f}"
            + (f", name={self.name!r})" if self.name else ")")
        )
