"""Core data model for annotations given as partial rankings with ties.

An annotation orders a subset of the classes of a case into blocks. Classes
inside a block are tied, earlier blocks are preferred to later ones, and every
class the annotator left out is implicitly tied in a trailing "unranked" block.
This module holds the validated container types plus the matrix views of a
ranking (block membership, partition structure, hard and soft permutation
matrices) that the likelihood and metric code builds on.

Class ids are integers in ``[0, K)``. Display names and risk levels are
optional and live on the :class:`ClassSpace`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "ClassSpace",
    "PartialRanking",
    "BlockMatrix",
    "RankingError",
    "EmptyBlockError",
    "DuplicateClassAcrossBlocksError",
    "ClassIdOutOfRangeError",
    "CombinatorialCapError",
    "enumerate_compatible_permutations",
    "count_compatible_permutations",
    "to_block_matrix",
    "to_soft_permutation",
    "permutation_matrix",
]

ENUMERATION_CAP = 10_000_000


class RankingError(ValueError):
    """Base class for invalid partial-ranking input."""


class EmptyBlockError(RankingError):
    """A block contains no classes."""


class DuplicateClassAcrossBlocksError(RankingError):
    """A class id appears in more than one block."""


class ClassIdOutOfRangeError(RankingError):
    """A class id is not an integer in [0, K)."""


class CombinatorialCapError(RankingError):
    """An enumeration would exceed the configured cap."""


def _all_ints(*values) -> bool:
    """True if every value is an int or numpy integer and none is a bool:
    True is an int to Python, yet no class id, count or level. Each distinct
    type is checked once, so a whole risk map costs C-level passes."""
    types = set(map(type, values))
    return types <= {int} or (
        bool not in types and all(issubclass(t, (int, np.integer)) for t in types)
    )


@dataclass(frozen=True)
class ClassSpace:
    """The label universe for one case.

    Args:
        size: number of classes K.
        names: optional display names, distinct, one per class id.
        risk: optional risk level per class id (0 low, 1 medium, 2 high).
            A named space also takes a class name as the key, and holds the
            map by id. May cover only part of the space; metrics that need
            risk check coverage themselves.

    Raises:
        KeyError: a risk key is a string that names no class.
    """

    size: int
    names: tuple[str, ...] | None = None
    risk: dict[int, int] | None = None

    def __post_init__(self) -> None:
        if type(self.size) is not int or self.size < 1:
            raise ValueError(f"class space size must be a positive int, got {self.size!r}")
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != self.size:
                raise ValueError(
                    f"expected {self.size} names, got {len(self.names)}"
                )
            if len(self._ids) != self.size:
                raise ValueError("class names must be unique")
        if self.risk is not None:
            risk = {self.id_of(c) if isinstance(c, str) else c: v for c, v in self.risk.items()}
            if len(risk) != len(self.risk):
                raise ValueError("risk map gives a class two levels")
            object.__setattr__(self, "risk", risk)
            ids, levels = risk.keys(), risk.values()
            if not (
                _all_ints(*ids) and 0 <= min(ids, default=0) and max(ids, default=0) < self.size
            ):
                raise ClassIdOutOfRangeError(
                    f"risk map class ids must be integers in [0, {self.size})"
                )
            if not _all_ints(*levels) or not set(levels) <= {0, 1, 2}:
                raise ValueError("risk level must be the integer 0, 1 or 2")

    @cached_property
    def risk_levels(self) -> tuple[np.ndarray, tuple[int, ...]] | None:
        """The risk map as a read-only (K,) float vector, 0 for the classes
        it misses, and those class ids; None without a map. Built once per
        space, so the map must not change after construction."""
        if self.risk is None:
            return None
        levels = np.array([self.risk.get(c, 0) for c in range(self.size)], dtype=float)
        levels.setflags(write=False)
        return levels, tuple(c for c in range(self.size) if c not in self.risk)

    @cached_property
    def _ids(self) -> dict[str, int]:
        # Built in __post_init__ for a named space, where it also checks
        # that the names are unique.
        return dict(zip(self.names or (), range(self.size)))

    def id_of(self, name: str) -> int:
        """Resolve a display name back to its class id.

        Raises:
            KeyError: no class has that name, or the space has no names.
        """
        return self._ids[name]


@dataclass(frozen=True)
class PartialRanking:
    """An ordered tuple of disjoint, non-empty blocks of tied class ids.

    Only the blocks the annotator actually wrote are stored. The trailing
    block of unranked classes is materialized on demand by :meth:`partition`
    so that downstream code can treat every ranking as a full partition of
    the class space. Instances validate on construction and are immutable,
    so they are safe to share across threads and processes.

    Args:
        blocks: iterable of iterables of class ids, most plausible first.
            May be empty, meaning the annotator ranked nothing.
        class_space: the case's label universe.

    Raises:
        EmptyBlockError: some block has no members.
        DuplicateClassAcrossBlocksError: a class appears twice.
        ClassIdOutOfRangeError: an id is not an integer in [0, K).
    """

    blocks: tuple[frozenset[int], ...]
    class_space: ClassSpace

    def __init__(self, blocks, class_space: ClassSpace) -> None:
        canonical = []
        seen: set[int] = set()
        frozen = [frozenset(raw) for raw in blocks]
        if not _all_ints(*itertools.chain.from_iterable(frozen)):
            raise ClassIdOutOfRangeError(
                f"blocks {[set(b) for b in frozen]} hold a non-integer class id"
            )
        for block in frozen:
            if not block:
                raise EmptyBlockError("blocks must be non-empty")
            for cid in block:
                if not (0 <= cid < class_space.size):
                    raise ClassIdOutOfRangeError(
                        f"class id {cid} outside [0, {class_space.size})"
                    )
                if cid in seen:
                    raise DuplicateClassAcrossBlocksError(
                        f"class {cid} appears in more than one block"
                    )
                seen.add(cid)
            canonical.append(frozenset(int(c) for c in block))
        object.__setattr__(self, "blocks", tuple(canonical))
        object.__setattr__(self, "class_space", class_space)

    @property
    def ranked(self) -> frozenset[int]:
        """All class ids the annotator placed in some block."""
        return frozenset().union(*self.blocks) if self.blocks else frozenset()

    @property
    def unranked(self) -> frozenset[int]:
        """Class ids left to the implicit trailing block."""
        return frozenset(range(self.class_space.size)) - self.ranked

    def partition(self) -> tuple[frozenset[int], ...]:
        """Blocks completed into a full partition of the class space.

        The implicit unranked block is appended only when it is non-empty;
        a ranking whose blocks already cover every class is returned as is.
        """
        rest = self.unranked
        if rest:
            return self.blocks + (rest,)
        return self.blocks


def count_compatible_permutations(ranking: PartialRanking) -> int:
    """Number of full orderings of the class space compatible with ``ranking``."""
    return math.prod(math.factorial(len(b)) for b in ranking.partition())


def enumerate_compatible_permutations(
    ranking: PartialRanking, cap: int = ENUMERATION_CAP
):
    """Yield every full permutation compatible with a partial ranking.

    A permutation sigma (position -> class id) is compatible when it lists the
    members of block 1 first in some order, then block 2, and so on through
    the trailing unranked block. The number of such permutations is the
    product of factorials of the block sizes.

    Args:
        ranking: validated partial ranking.
        cap: refuse enumerations larger than this many permutations.

    Yields:
        tuple[int, ...]: class ids by position.

    Raises:
        CombinatorialCapError: the count exceeds ``cap``.
    """
    total = count_compatible_permutations(ranking)
    if total > cap:
        raise CombinatorialCapError(
            f"{total} compatible permutations exceed the cap of {cap}"
        )
    # An odometer over the blocks' permutations, last block fastest: the
    # order of itertools.product, without building every block's list first.
    parts = [sorted(b) for b in ranking.partition()]
    digits = [itertools.permutations(p) for p in parts]
    pieces = [next(d) for d in digits]
    while True:
        yield tuple(itertools.chain.from_iterable(pieces))
        i = len(parts) - 1
        while (piece := next(digits[i], None)) is None:
            if i == 0:
                return
            digits[i] = itertools.permutations(parts[i])
            pieces[i] = next(digits[i])
            i -= 1
        pieces[i] = piece


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """Matrix view of a completed partial ranking.

    Attributes:
        membership: (L, K) 0/1 array B with ``B[l, j] = 1`` iff class j is in
            block l of the completed partition.
        structure: (L, K) 0/1 array Q marking which positions each block
            spans, i.e. ``Q[l, i] = 1`` for cumulative positions i of block l.
        cum_sizes: cumulative block sizes ``c_l``; ``cum_sizes[-1] == K``.

    For every compatible permutation matrix P the identity ``B == Q @ P``
    holds, which is what ties the two views together.
    """

    membership: np.ndarray
    structure: np.ndarray
    cum_sizes: np.ndarray


def to_block_matrix(ranking: PartialRanking) -> BlockMatrix:
    """Build the block membership and partition structure matrices.

    The trailing unranked block appears as an explicit final row whenever it
    is non-empty, so the rows always partition the class space.
    """
    parts = ranking.partition()
    k = ranking.class_space.size
    n_blocks = len(parts)
    membership = np.zeros((n_blocks, k), dtype=np.int64)
    structure = np.zeros((n_blocks, k), dtype=np.int64)
    cum = np.cumsum([len(b) for b in parts])
    start = 0
    for l, block in enumerate(parts):
        membership[l, sorted(block)] = 1
        structure[l, start : cum[l]] = 1
        start = cum[l]
    return BlockMatrix(membership=membership, structure=structure, cum_sizes=cum)


def permutation_matrix(sigma) -> np.ndarray:
    """(K, K) 0/1 matrix P with ``P[i, j] = 1`` iff position i holds class j."""
    sigma = np.asarray(sigma, dtype=np.int64)
    k = sigma.size
    p = np.zeros((k, k), dtype=np.int64)
    p[np.arange(k), sigma] = 1
    return p


def to_soft_permutation(ranking: PartialRanking) -> np.ndarray:
    """Mean of the permutation matrices of all compatible orderings.

    Entry (i, j) is the probability that class j occupies position i when a
    compatible permutation is drawn uniformly: positions belonging to block l
    all share the same row, with mass 1/|block l| on the block's members and
    zero elsewhere. The result is doubly stochastic.

    Returns:
        (K, K) float array.
    """
    parts = ranking.partition()
    k = ranking.class_space.size
    soft = np.zeros((k, k), dtype=float)
    pos = 0
    for block in parts:
        members = sorted(block)
        row = np.zeros(k)
        row[members] = 1.0 / len(members)
        for _ in members:
            soft[pos] = row
            pos += 1
    return soft
