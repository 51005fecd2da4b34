"""Closed-form uncertainty models for simpler annotation shapes.

Two baselines for data that is not a ranking: per-class vote counts get a
Dirichlet posterior, and scalar scores compared against a threshold get a
conjugate normal model with unknown mean and variance. Both emit the same
kind of Monte Carlo output as the ranking models, so the certainty and
metric machinery downstream does not care where samples came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .samples import PosteriorSamples

__all__ = [
    "dirichlet_from_counts",
    "unvoted_gammas",
    "NormalScoreModel",
    "score_threshold_certainty",
]


def unvoted_gammas(num_classes: int, prior_alpha: float, num_samples: int, seed=None) -> np.ndarray:
    """(num_samples, num_classes) Gamma(prior_alpha) draws: the columns that
    :func:`dirichlet_from_counts` uses for the classes with no votes.

    ``seed`` is an int, None or a ``numpy.random.Generator`` to draw from.
    """
    return np.random.default_rng(seed).standard_gamma(prior_alpha, size=(num_samples, num_classes))


def dirichlet_from_counts(
    counts,
    gamma: float = 1.0,
    prior_alpha: float = 0.01,
    num_samples: int = 1000,
    seed: int | None = None,
    unvoted: np.ndarray | None = None,
) -> PosteriorSamples:
    """Posterior plausibilities from per-class vote counts.

    Draws from Dirichlet(gamma * counts + prior_alpha) so that gamma scales
    how literally the counts are taken: large gamma concentrates the
    posterior on the empirical vote shares.

    A row is one Gamma(gamma * count + prior_alpha) draw per class, divided by
    the row's sum. A class with no votes has shape ``prior_alpha`` whatever
    gamma is, so its column is taken from ``unvoted``, which the units of one
    case over a reliability grid can share; the voted classes are drawn from
    ``seed``. Every unit is still exactly Dirichlet. When every concentration
    is below 0.1 the row is ``Generator.dirichlet``'s stick-breaking draw
    from ``seed`` instead, and ``unvoted`` is not read: normalized Gammas that
    small can all underflow to zero.

    Args:
        counts: (K,) non-negative vote counts.
        gamma: reliability multiplier, > 0.
        prior_alpha: symmetric prior concentration added to every class.
        num_samples: rows to draw.
        seed: RNG seed.
        unvoted: (num_samples, K) Gamma(prior_alpha) draws, as
            :func:`unvoted_gammas` makes them; the columns of voted classes
            are not read. Drawn from ``seed`` when None.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size < 2:
        raise ValueError("counts must be a 1-D array of at least two classes")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if not prior_alpha > 0:
        raise ValueError("prior_alpha must be positive")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if unvoted is not None and np.shape(unvoted) != (num_samples, counts.size):
        raise ValueError("unvoted must hold num_samples rows of one draw per class")
    rng = np.random.default_rng(seed)
    concentration = gamma * counts + prior_alpha
    if concentration.max() < 0.1:
        return PosteriorSamples(rng.dirichlet(concentration, size=num_samples))
    if unvoted is None:
        unvoted = unvoted_gammas(counts.size, prior_alpha, num_samples, rng)
    voted = np.flatnonzero(counts)
    draws = np.array(unvoted, dtype=float)
    draws[:, voted] = rng.standard_gamma(concentration[voted], size=(num_samples, voted.size))
    draws /= draws.sum(axis=1, keepdims=True)
    return PosteriorSamples(draws)


@dataclass(frozen=True)
class NormalScoreModel:
    """Conjugate prior for scores with unknown mean and variance.

    The variance has an inverse-gamma prior with shape ``a`` and scale ``b``;
    given the variance, the mean is normal around ``mu0`` with variance
    ``sigma^2 / nu``. ``nu`` therefore acts as a prior pseudo-count.
    """

    mu0: float
    nu: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.nu > 0 and self.a > 0 and self.b > 0):
            raise ValueError("nu, a and b must be positive")

    @classmethod
    def from_scores(cls, scores) -> "NormalScoreModel":
        """Moment-matched default prior.

        Centers on the sample mean with one pseudo-observation, and sets the
        variance prior so its mean equals the sample variance (floored to
        stay proper when the scores are constant).
        """
        scores = np.asarray(scores, dtype=float)
        if scores.size < 1:
            raise ValueError("need at least one score")
        spread = float(np.var(scores)) if scores.size > 1 else 1.0
        spread = max(spread, 1e-12)
        # a = 2 gives E[sigma^2] = b / (a - 1) = b.
        return cls(mu0=float(np.mean(scores)), nu=1.0, a=2.0, b=spread)

    def posterior(self, scores) -> "NormalScoreModel":
        """Conjugate update after observing the scores."""
        scores = np.asarray(scores, dtype=float)
        n = scores.size
        if n == 0:
            return self
        mean = float(np.mean(scores))
        ss = float(np.sum((scores - mean) ** 2))
        nu_n = self.nu + n
        mu_n = (self.nu * self.mu0 + n * mean) / nu_n
        a_n = self.a + n / 2.0
        b_n = self.b + 0.5 * ss + 0.5 * self.nu * n * (mean - self.mu0) ** 2 / nu_n
        return NormalScoreModel(mu0=mu_n, nu=nu_n, a=a_n, b=b_n)

    def sample_parameters(self, num_samples: int, seed: int | None = None):
        """Draw (mean, variance) pairs from this (posterior) distribution."""
        rng = np.random.default_rng(seed)
        var = self.b / rng.gamma(self.a, 1.0, size=num_samples)
        mu = rng.normal(self.mu0, np.sqrt(var / self.nu))
        return mu, var


def score_threshold_certainty(
    scores, threshold: float, num_samples: int = 1000, seed: int | None = None
) -> float:
    """Certainty that the case's score outcome falls on one side of a cut.

    Fits the conjugate normal model's default prior
    (:meth:`NormalScoreModel.from_scores`), updates it on the scores,
    and Monte Carlo averages the probability that a new outcome lands at or
    below the threshold. The certainty is the larger of that averaged
    probability and its complement, so it lives in [0.5, 1]: symmetric
    scores straddling the threshold give 0.5, tight scores on one side
    approach 1. Shifting scores and threshold together changes nothing.

    Args:
        scores: observed scalar scores for the case.
        threshold: decision cut t for the outcome "score <= t".
        num_samples: Monte Carlo draws from the posterior.
        seed: RNG seed.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size < 1:
        raise ValueError("need at least one score")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    post = NormalScoreModel.from_scores(scores).posterior(scores)
    mu, var = post.sample_parameters(num_samples, seed)
    z = (threshold - mu) / np.sqrt(var)
    p_below = float(np.mean(_normal_cdf(z)))
    return max(p_below, 1.0 - p_below)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    # math.erf per element: numpy has no erf, and the draws are few.
    scaled = (z / math.sqrt(2.0)).tolist()
    return 0.5 * (1.0 + np.array([math.erf(x) for x in scaled]))
