"""Dirichlet posterior centered on the inverse-rank point estimate.

The aggregated, normalized inverse-rank vector lambda-hat becomes the mean of
a Dirichlet with concentration gamma * lambda-hat, so gamma acts as a
reliability dial: small gamma spreads mass widely, gamma to infinity
degenerates to the point estimate. Classes with zero inverse-rank mass stay
at exactly zero in every sample; the Dirichlet lives on the positive support
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .irn import irn_aggregate
from .samples import PosteriorSamples

__all__ = ["DEFAULT_GAMMA_GRID", "PrIrnModel"]

# Reliability settings swept by default, loosest to tightest.
DEFAULT_GAMMA_GRID = (10.0, 20.0, 30.0, 50.0, 100.0)


@dataclass(frozen=True, eq=False)
class PrIrnModel:
    """Fitted sampler around one case's inverse-rank estimate.

    Attributes:
        point_estimate: (K,) normalized inverse-rank vector lambda-hat.
        gamma: Dirichlet concentration multiplier (reliability), > 0.
        support: sorted ids of classes with positive mass.
    """

    point_estimate: np.ndarray
    gamma: float
    support: np.ndarray

    @classmethod
    def fit(cls, rankings, gamma: float) -> "PrIrnModel":
        """Aggregate the rankings and fix the concentration.

        Raises:
            ValueError: gamma is not positive.
            AllZeroMassError: no annotator ranked anything.
        """
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        lam_hat = irn_aggregate(rankings)
        return cls(
            point_estimate=lam_hat,
            gamma=float(gamma),
            support=np.flatnonzero(lam_hat > 0),
        )

    def sample(self, num_samples: int, seed: int | None = None) -> PosteriorSamples:
        """Draw plausibility vectors from Dirichlet(gamma * lambda-hat).

        Zero-mass classes are exactly zero in every row. A support of size
        one yields the same one-hot vector in every row.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        rng = np.random.default_rng(seed)
        k = self.point_estimate.size
        out = np.zeros((num_samples, k))
        if self.support.size == 1:
            out[:, self.support[0]] = 1.0
        else:
            alpha = self.gamma * self.point_estimate[self.support]
            out[:, self.support] = rng.dirichlet(alpha, size=num_samples)
        return PosteriorSamples(out)
