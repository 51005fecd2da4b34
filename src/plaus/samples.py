"""Container for Monte Carlo samples of plausibility vectors.

Every aggregation model in this package emits its posterior as an (M, K)
array of points on the probability simplex plus provenance (model tag,
reliability setting, seed). Deterministic point estimates travel through the
same container as a single-row point mass, which is what makes the
uncertainty-adjusted metrics collapse to their classical counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PosteriorSamples"]

_SIMPLEX_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """(M, K) plausibility samples with provenance.

    Attributes:
        samples: rows are non-negative and sum to one.
        model: short tag of the producing model, e.g. "pl-gibbs".
        reliability: the reliability setting the model ran at, if any.
        seed: RNG seed used to draw the samples, if any.
    """

    samples: np.ndarray
    model: str
    reliability: float | int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.samples, dtype=float))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"samples must be a non-empty (M, K) array, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if np.any(arr < 0):
            raise ValueError("samples must be non-negative")
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _SIMPLEX_ATOL):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValueError(f"sample rows must sum to 1 (worst deviation {worst:.3g})")
        object.__setattr__(self, "samples", arr)

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def num_classes(self) -> int:
        return self.samples.shape[1]

    @classmethod
    def point_mass(
        cls,
        vector: np.ndarray,
        model: str,
        reliability: float | int | None = None,
        seed: int | None = None,
    ) -> "PosteriorSamples":
        """Wrap one plausibility vector as a single-sample posterior."""
        return cls(
            samples=np.asarray(vector, dtype=float)[None, :],
            model=model,
            reliability=reliability,
            seed=seed,
        )
