"""Inverse rank normalization: a point estimate of class plausibilities.

Each annotator's ranking contributes weight 1/i to block i, shared equally
among the block's members; the trailing block (unranked classes, or the last
block when everything was ranked) contributes nothing. Contributions are
summed over annotators first and normalized once at the end, never per
annotator, so prolific annotators carry more mass than terse ones.
"""

from __future__ import annotations

import numpy as np

from .rankings import PartialRanking

__all__ = ["AllZeroMassError", "irn_single", "irn_aggregate"]


class AllZeroMassError(ValueError):
    """No annotator ranked anything, so the case cannot be labeled."""


def irn_single(ranking: PartialRanking) -> np.ndarray:
    """Unnormalized inverse-rank weights of one annotator.

    Block i of the completed partition (1-based, last block excluded) puts
    (1/i) / |block i| on each of its members. An annotator who ranked
    nothing above the unranked block yields the zero vector.

    Returns:
        (K,) float array.
    """
    k = ranking.class_space.size
    scores = np.zeros(k)
    parts = ranking.partition()
    for i, block in enumerate(parts[:-1], start=1):
        scores[sorted(block)] = (1.0 / i) / len(block)
    return scores


def irn_aggregate(rankings) -> np.ndarray:
    """Sum inverse-rank weights over annotators, then normalize.

    The unnormalized sums are ``sum(irn_single(r) for r in rankings)``.

    Args:
        rankings: non-empty sequence of rankings over one shared class space.

    Returns:
        (K,) float array that sums to one.

    Raises:
        AllZeroMassError: every annotator left every class unranked.
    """
    rankings = list(rankings)
    if not rankings:
        raise AllZeroMassError("no rankings supplied")
    space = rankings[0].class_space
    for r in rankings:
        if r.class_space.size != space.size:
            raise ValueError("rankings must share one class space")
    total = np.zeros(space.size)
    for r in rankings:
        total += irn_single(r)
    mass = total.sum()
    if mass == 0.0:
        raise AllZeroMassError("no annotator ranked any class")
    return total / mass
