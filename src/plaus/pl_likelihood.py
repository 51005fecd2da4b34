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

from .rankings import PartialRanking

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


def _table_values_small(w, zbar: float):
    # Plain-float subset walk; its per-mask Python work beats the gather
    # kernel's per-layer numpy calls only up to about six tied classes.
    # Proceeds a popcount layer at a time: a mask only reads one-bit-removed
    # masks, so rescaling by the layer peak keeps every read on one scale.
    n = len(w)
    size = 1 << n
    values = [0.0] * size
    values[0] = 1.0
    subset_sum = [0.0] * size
    log_scale = 0.0
    by_layer: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, size):
        by_layer[mask.bit_count()].append(mask)
    for layer_masks in by_layer[1:]:
        peak = 0.0
        for mask in layer_masks:
            low = mask & -mask
            subset_sum[mask] = subset_sum[mask ^ low] + w[low.bit_length() - 1]
            acc = 0.0
            rest = mask
            while rest:
                bit = rest & -rest
                acc += values[mask ^ bit]
                rest ^= bit
            v = acc / (zbar + subset_sum[mask])
            values[mask] = v
            if v > peak:
                peak = v
        if peak != 0.0 and not (_RESCALE_LO < peak < _RESCALE_HI):
            # Entries many layers back can exceed float range relative to the
            # new scale; saturate them, they are never read past this point.
            for j in range(size):
                try:
                    values[j] /= peak
                except OverflowError:
                    values[j] = float("inf")
            log_scale += float(np.log(peak))
    return np.array(values), log_scale


@lru_cache(maxsize=None)
def _subset_layout(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per popcount layer 1..n: its masks and their one-bit-removed masks.

    Each layer is ``(masks, preds)``: ``masks`` holds every n-bit mask with
    that popcount L, ascending, and row j of the (L, C) ``preds`` is each
    mask with its j-th lowest set bit cleared. The layout depends on n
    alone, so it is built once per block size (n <= ``MAX_BLOCK_SIZE``
    bounds the cache; n = 20 keeps about 50 MB). ``preds`` is int32 to halve
    that; the arrays are read-only because every caller shares them.
    """
    masks = np.arange(1 << n)
    # A bit loop, since np.bitwise_count needs numpy 2.
    popcounts = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        popcounts += (masks >> i) & 1
    layers = []
    for layer in range(1, n + 1):
        layer_masks = masks[popcounts == layer]
        preds = np.empty((layer, layer_masks.size), dtype=np.int32)
        rest = layer_masks.copy()
        for j in range(layer):
            low = rest & -rest
            preds[j] = layer_masks ^ low
            rest ^= low
        layer_masks.flags.writeable = False
        preds.flags.writeable = False
        layers.append((layer_masks, preds))
    return tuple(layers)


def _table_values_layered(w, zbar: float):
    # Same recursion, a popcount layer at a time: one gather of every
    # mask's one-bit-removed values, summed row by row in ascending bit
    # order (np.add.reduce may sum pairwise, which changes the last bits).
    n = len(w)
    size = 1 << n
    # denom[mask] adds the weights in ascending bit order.
    denom = np.zeros(size)
    for i in range(n):
        np.add(denom[: 1 << i], w[i], out=denom[1 << i : 2 << i])
    denom += zbar

    values = np.zeros(size)
    values[0] = 1.0
    log_scale = 0.0
    for layer_masks, preds in _subset_layout(n):
        gathered = values[preds]
        numer = gathered[0]
        for row in gathered[1:]:
            numer += row
        numer /= denom[layer_masks]
        values[layer_masks] = numer
        peak = float(numer.max())
        if peak != 0.0 and not (_RESCALE_LO < peak < _RESCALE_HI):
            # Stale layers may saturate to inf; they are never read again.
            with np.errstate(over="ignore"):
                values /= peak
            log_scale += float(np.log(peak))
    return values, log_scale


def _table_values(w, zbar: float):
    """Subset values and shared log scale for one block's weights."""
    if len(w) <= 6:
        return _table_values_small([float(x) for x in w], zbar)
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
    values, log_scale = _table_values(lam[list(members)], float(zbar))
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
    O(2^n) per block via :func:`subset_recursion` rather than by
    enumeration. The trailing block of the completed partition contributes
    probability one and is skipped, so a ranking with no blocks has log
    probability zero.

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
    total = 0.0
    later_mass = float(lam.sum())
    for block in parts[:-1]:
        members = sorted(block)
        later_mass -= float(lam[members].sum())
        table = subset_recursion(members, later_mass, lam)
        total += float(np.sum(np.log(lam[members]))) + table.log_value(table.full_mask)
    return total


def pl_log_likelihood(lam, rankings, repetitions: int = 1) -> float:
    """Joint log likelihood of independent annotators, optionally repeated.

    ``repetitions`` models reliability by counting each annotation that many
    times, sharpening the likelihood around its maximum.
    """
    if not (isinstance(repetitions, (int, np.integer)) and repetitions >= 1):
        raise ValueError(f"repetitions must be a positive integer, got {repetitions!r}")
    return repetitions * sum(pl_partial_ranking_log_prob(lam, r) for r in rankings)
