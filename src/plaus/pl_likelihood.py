"""Exact choice-model likelihood of full and partial rankings.

The model ranks classes by sampling without replacement in proportion to a
positive weight vector lambda. A full ranking sigma has probability

    prod_k  lambda[sigma_k] / (lambda[sigma_k] + lambda[sigma_{k+1}] + ...),

and a partial ranking is the sum of this over every compatible full
ordering. That sum factorizes over blocks: each block contributes the product
of its members' weights times a subset function R computed by the recursion

    R(empty) = 1
    R(A) = sum_{a in A} R(A minus a) / (zbar + sum_{a in A} lambda_a)

where zbar is the total weight of all later blocks. Evaluating R at the full
block costs O(2^n) for a block of n tied classes instead of O(n!), and the
trailing block is skipped outright because its conditional probability is
one. Probabilities are invariant to rescaling lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rankings import PartialRanking, _all_ints

__all__ = [
    "BlockTooLargeError",
    "NonPositiveWeightError",
    "MAX_BLOCK_SIZE",
    "SubsetTable",
    "subset_recursion",
    "pl_full_ranking_log_prob",
    "pl_partial_ranking_log_prob",
    "pl_log_likelihood",
]

# Blocks above this size would need subset tables past 2^20 entries.
MAX_BLOCK_SIZE = 20

# Rescale subset tables when a layer leaves this range, to dodge overflow
# on adversarial weight scales.
_RESCALE_HI = 1e250
_RESCALE_LO = 1e-250


class NonPositiveWeightError(ValueError):
    """Weights must be strictly positive."""


class BlockTooLargeError(ValueError):
    """A tied block exceeds the subset-table cap."""


def _check_block_size(n: int) -> None:
    if n > MAX_BLOCK_SIZE:
        raise BlockTooLargeError(f"block of {n} tied classes exceeds cap {MAX_BLOCK_SIZE}")


def _check_weights(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise NonPositiveWeightError("weights must be a non-empty 1-D array")
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
        raise NonPositiveWeightError("weights must be finite and strictly positive")
    return lam


@dataclass(frozen=True, eq=False)
class SubsetTable:
    """Values of the block recursion R for every subset of one block.

    Subsets are addressed by bitmask over ``members`` (bit i is
    ``members[i]``). ``values[mask]`` holds R(subset) times
    ``exp(-log_scale)``; the shared scale factor keeps the table inside
    floating-point range, and ratios of entries are unaffected by it.

    Attributes:
        members: class ids of the block, in bitmask order.
        zbar: total weight of all later blocks.
        values: (2^n,) scaled subset values, ``values[0] == exp(-log_scale)``
            times one.
        log_scale: log of the factor taken out of ``values``.
    """

    members: tuple[int, ...]
    zbar: float
    values: np.ndarray
    log_scale: float

    @property
    def full_mask(self) -> int:
        return (1 << len(self.members)) - 1

    def log_value(self, mask: int) -> float:
        """log R of the subset encoded by ``mask``."""
        return float(np.log(self.values[mask])) + self.log_scale


@lru_cache(maxsize=None)
def _plain_layout(n: int) -> tuple:
    """For every non-empty mask of an n-class block, ascending: the mask, the
    mask without its highest bit, that bit's index and the mask's
    one-bit-removed masks in ascending bit order."""
    layout = []
    for mask in range(1, 1 << n):
        high = mask.bit_length() - 1
        removed = tuple(mask ^ (1 << i) for i in range(n) if mask >> i & 1)
        layout.append((mask, mask ^ (1 << high), high, removed))
    return tuple(layout)


def _table_values_small(w, zbar: float):
    # Plain-float subset walk; its per-mask Python work beats the layered
    # kernel's per-layer numpy calls up to five tied classes and about ties
    # with them at six. It performs the layered kernel's operations in the
    # same order, so the two return the same tables bit for bit: a mass adds
    # the weights in ascending bit order, as the layered kernel's doubling
    # does, and a total adds the one-bit-removed values in ascending bit
    # order. It never rescales, so it serves only weights inside the
    # unchecked range below.
    n = len(w)
    size = 1 << n
    values = [0.0] * size
    values[0] = 1.0
    totals = [0.0] * size
    subset_sum = [0.0] * size
    # Every mask a mask reads is smaller, so ascending masks read only
    # finished entries.
    for mask, rest, high, removed in _plain_layout(n):
        mass = subset_sum[rest] + w[high]
        subset_sum[mask] = mass
        acc = 0.0
        for other in removed:
            acc += values[other]
        totals[mask] = acc
        values[mask] = acc / (zbar + mass)
    return np.array(values), np.array(totals), 0.0


# Weights inside these bounds can never trip a rescale: every table entry of
# layer L lies in [(zbar + max w)^-L, (min w)^-L], and for L <= 20 that is
# inside [1e-240, 1e240], well within the rescale thresholds.
_UNCHECKED_MIN_WEIGHT = 1e-12
_UNCHECKED_MAX_MASS = 1e12


def _unchecked(weights: list, zbar: float) -> bool:
    """Whether no table of these weights can leave the rescale range."""
    return min(weights) >= _UNCHECKED_MIN_WEIGHT and zbar + max(weights) <= _UNCHECKED_MAX_MASS


class _TableBuffers:
    """The layer-ordered layout of an n-class block's 2^n subset masks, and
    the working arrays of the layered kernel, kept from call to call.

    Position p of a layer-ordered table holds mask ``order[p]``: the empty
    mask first, then every one-bit mask, and so on up to the full mask, each
    layer ascending, and ``position`` is the inverse permutation. Layer L
    fills positions ``start:stop``, and row j of its (L, stop - start)
    ``preds`` holds, for each of its masks, the position of that mask with
    its j-th lowest set bit cleared. Indices are intp up to n = 16, so a
    gather uses them as they are (numpy would cast an int32 index array on
    every gather); above that they are int32, which halves the largest
    layouts. The layout arrays are read-only.

    The working arrays are the layer-order denominators, values and totals,
    and the view of them that each doubling step and each layer reads or
    writes. Making a view costs about as much as the arithmetic of a small
    layer, and an n-class table needs 2n + 3n of them. The kernel returns
    fresh arrays, so every call for blocks of that size shares the one set
    that :func:`_table_buffers` keeps; they must not serve two calls at
    once, so the kernel is not thread-safe (the CLI's workers are processes).
    """

    def __init__(self, n: int):
        size = 1 << n
        masks = np.arange(size)
        # A bit loop, since np.bitwise_count needs numpy 2.
        popcounts = np.zeros(size, dtype=np.int8)
        for i in range(n):
            popcounts += (masks >> i) & 1
        index_dtype = np.intp if n <= 16 else np.int32
        self.order = np.argsort(popcounts, kind="stable").astype(index_dtype)
        self.position = np.empty(size, dtype=index_dtype)
        self.position[self.order] = np.arange(size, dtype=index_dtype)
        self.order.flags.writeable = False
        self.position.flags.writeable = False

        self.by_mask = np.zeros(size)
        self.doubling = [(self.by_mask[: 1 << i], self.by_mask[1 << i : 2 << i]) for i in range(n)]
        self.denom = np.empty(size)
        self.values = np.empty(size)
        self.totals = np.zeros(size)
        self.layers = []
        start = 1
        for layer in range(1, n + 1):
            stop = start + int(np.count_nonzero(popcounts == layer))
            layer_masks = self.order[start:stop].astype(np.intp)
            preds = np.empty((layer, stop - start), dtype=index_dtype)
            rest = layer_masks.copy()
            for j in range(layer):
                low = rest & -rest
                preds[j] = self.position[layer_masks ^ low]
                rest ^= low
            preds.flags.writeable = False
            self.layers.append(
                (start, stop, preds, self.totals[start:stop], self.denom[start:stop],
                 self.values[start:stop])
            )
            start = stop


@lru_cache(maxsize=None)
def _table_buffers(n: int) -> _TableBuffers:
    """The layout and working arrays of every n-class table.

    They depend on n alone, so they are built once per block size
    (n <= ``MAX_BLOCK_SIZE`` bounds the cache). Kept bytes: the layout is
    about 0.12 MB at n = 11, 5.2 MB at n = 16 and 50 MB at n = 20, and the
    working arrays are 4 * 2^n floats, 2 MB at n = 16 and 32 MB at n = 20.
    """
    return _TableBuffers(n)


def _table_values_layered(w, zbar: float):
    # Same recursion, a popcount layer at a time, on tables kept in layer
    # order: one gather of every mask's one-bit-removed values, summed in
    # ascending bit order into the layer's slice of the totals, then divided
    # into its slice of the values. Summing a C-contiguous (L, C) array over
    # axis 0 adds its rows in order when C >= 2, but the one-column full-mask
    # layer is a contiguous run that numpy sums pairwise, which changes the
    # last bits; accumulate keeps that layer in order. A one-class subset's
    # only predecessor is the empty set, of value 1, so its total is 1.
    space = _table_buffers(len(w))
    weights = w.tolist()
    # denom[mask] adds the weights in ascending bit order, then zbar.
    for (lower, upper), weight in zip(space.doubling, weights):
        np.add(lower, weight, out=upper)
    denom = space.by_mask.take(space.order, out=space.denom)
    denom += zbar
    checked = not _unchecked(weights, zbar)

    values, totals = space.values, space.totals
    values[0] = 1.0  # an earlier call's rescale may have moved it
    log_scale = 0.0
    for start, stop, preds, total, layer_denom, layer in space.layers:
        if start == 1:
            total.fill(1.0)
        elif stop - start > 1:
            np.add.reduce(values.take(preds), axis=0, out=total)
        else:
            total[:] = np.add.accumulate(values.take(preds[:, 0]))[-1]
        np.divide(total, layer_denom, out=layer)
        if checked:
            peak = float(layer.max())
            if peak != 0.0 and not (_RESCALE_LO < peak < _RESCALE_HI):
                # Earlier layers may saturate to inf; they are never read again.
                with np.errstate(over="ignore"):
                    values[:stop] /= peak
                    totals[:stop] /= peak
                log_scale += float(np.log(peak))
    return values.take(space.position), totals.take(space.position), log_scale


def _table_values(w, zbar: float):
    """Subset values, their totals and the shared log scale of one block.

    Returns ``(values, totals, log_scale)``, each table indexed by bitmask
    over ``w``. ``values`` holds R as in :class:`SubsetTable`. ``totals``
    keeps, for every subset S, the sum the recursion divides by
    ``zbar + w(S)``: S's one-bit-removed values, added in ascending bit
    order, so that a block walk reads each step's total instead of adding it
    again (``totals[0]`` is 0).

    Two kernels compute this one definition with the same floating-point
    operations in the same order, so they return the same tables bit for
    bit. The plain-float kernel is faster up to five classes, and takes such
    a block when its weights lie in the unchecked range (every weight at
    least ``_UNCHECKED_MIN_WEIGHT``, ``zbar`` plus the largest at most
    ``_UNCHECKED_MAX_MASS``), where no table can leave float range. Every
    other block takes the layered kernel, the only one that rescales. On an
    unscaled table (``log_scale`` 0) each total is the in-order sum above
    bit for bit. A rescaled table divides its totals by the same peaks as
    its values, so there a total may differ from a walk's running sum over
    the rescaled values by rounding; the weights of the benchmark's
    workloads and of the report digests never rescale.
    """
    if len(w) <= 5:
        weights = [float(x) for x in w]
        if _unchecked(weights, zbar):
            return _table_values_small(weights, zbar)
    return _table_values_layered(np.asarray(w, dtype=float), zbar)


def subset_recursion(members, zbar: float, lam) -> SubsetTable:
    """Tabulate R over all subsets of a tied block.

    Args:
        members: class ids tied in the block.
        zbar: total weight of every class ranked strictly below the block.
        lam: (K,) positive weight vector for the whole class space.

    Returns:
        SubsetTable with 2^n entries.

    Raises:
        BlockTooLargeError: more than ``MAX_BLOCK_SIZE`` tied classes.
        NonPositiveWeightError: invalid weights.
    """
    lam = _check_weights(lam)
    members = tuple(int(m) for m in members)
    n = len(members)
    if n == 0:
        raise ValueError("block must be non-empty")
    _check_block_size(n)
    if zbar < 0:
        raise ValueError("zbar must be non-negative")
    values, _, log_scale = _table_values(lam[list(members)], float(zbar))
    return SubsetTable(members=members, zbar=float(zbar), values=values, log_scale=log_scale)


def pl_full_ranking_log_prob(lam, sigma) -> float:
    """Log probability of a full ranking.

    Args:
        lam: (K,) positive weights, not necessarily normalized.
        sigma: permutation of all K class ids, most plausible first.

    Returns:
        Sum over positions of ``log lam[sigma_k]`` minus the log of the
        weight still unranked at position k.
    """
    lam = _check_weights(lam)
    sigma = np.asarray(sigma, dtype=np.int64)
    if sorted(sigma.tolist()) != list(range(lam.size)):
        raise ValueError("sigma must be a permutation of all class ids")
    ordered = lam[sigma]
    residual = np.cumsum(ordered[::-1])[::-1]
    return float(np.sum(np.log(ordered) - np.log(residual)))


def pl_partial_ranking_log_prob(lam, ranking: PartialRanking) -> float:
    """Log probability that the model produces a given partial ranking.

    Sums the full-ranking probability over every compatible ordering, in
    O(2^n) per block by the recursion that :func:`subset_recursion`
    tabulates, rather than by enumeration. The weights are checked once.
    The trailing block of the completed partition contributes probability
    one and is skipped, so a ranking with no blocks has log probability
    zero.

    Raises:
        BlockTooLargeError: some non-trailing block exceeds the cap.
        NonPositiveWeightError: invalid weights.
    """
    lam = _check_weights(lam)
    if lam.size != ranking.class_space.size:
        raise ValueError("weight vector length must match the class space")
    parts = ranking.partition()
    if len(parts) <= 1:
        return 0.0
    # Each block's zbar adds up the later blocks' weights, from the last one
    # back: subtracting from the total could leave a tiny mass below zero.
    total = 0.0
    later_mass = float(lam[list(parts[-1])].sum())
    for block in reversed(parts[:-1]):
        members = sorted(block)
        _check_block_size(len(members))
        values, _, log_scale = _table_values(lam[members], later_mass)
        # R of the whole block, as SubsetTable.log_value reads it.
        total += float(np.sum(np.log(lam[members]))) + (float(np.log(values[-1])) + log_scale)
        later_mass += float(lam[members].sum())
    return total


def pl_log_likelihood(lam, rankings, repetitions: int = 1) -> float:
    """Joint log likelihood of independent annotators, optionally repeated.

    ``repetitions`` models reliability by counting each annotation that many
    times, sharpening the likelihood around its maximum.
    """
    if not (_all_ints(repetitions) and repetitions >= 1):
        raise ValueError(f"repetitions must be a positive integer, got {repetitions!r}")
    return repetitions * sum(pl_partial_ranking_log_prob(lam, r) for r in rankings)
