"""Container for Monte Carlo samples of plausibility vectors.

Every aggregation model in this package emits its posterior as an (M, K)
array of points on the probability simplex. Deterministic point estimates
travel through the same container as a single-row point mass, which is what
makes the uncertainty-adjusted metrics collapse to their classical
counterparts. Which model, reliability and seed drew the samples is the
caller's to record: the command line writes it on every report row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PosteriorSamples"]

_SIMPLEX_ATOL = 1e-9


def _raise_invalid(arr: np.ndarray) -> None:
    """Raise the first check that the (M, K) samples fail."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    if np.any(arr < 0):
        raise ValueError("samples must be non-negative")
    deviation = np.abs(arr.sum(axis=1) - 1.0)
    if np.any(deviation > _SIMPLEX_ATOL):
        raise ValueError(
            f"sample rows must sum to 1 (worst deviation {float(deviation.max()):.3g})"
        )


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """(M, K) plausibility samples, checked once on construction.

    Attributes:
        samples: finite, non-negative rows that sum to one within 1e-9.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.samples, dtype=float))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"samples must be a non-empty (M, K) array, got {arr.shape}")
        # Valid samples need two passes: a minimum of at least 0 rules out
        # NaN, -inf and negative entries, and then rows summing to 1 rule
        # out +inf. Invalid ones repeat the checks in order for the message.
        if not (arr.min() >= 0 and np.all(np.abs(arr.sum(axis=1) - 1.0) <= _SIMPLEX_ATOL)):
            _raise_invalid(arr)
        object.__setattr__(self, "samples", arr)

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def num_classes(self) -> int:
        return self.samples.shape[1]

    @classmethod
    def point_mass(cls, vector: np.ndarray) -> "PosteriorSamples":
        """Wrap one plausibility vector as a single-sample posterior."""
        return cls(np.asarray(vector, dtype=float)[None, :])
