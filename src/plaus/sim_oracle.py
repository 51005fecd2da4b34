"""Synthetic annotation generator and slow reference implementations.

Everything here exists to check the fast code against something independent:
annotations drawn from a known ground-truth weight vector, partial-ranking
probabilities summed permutation by permutation, and a brute-force grid
posterior for two or three classes. The oracles trade speed for obvious
correctness. The ``*_gap`` functions hold the one copy of each exactness check
(recursion vs enumeration, Gibbs vs grid, point-mass reduction); the acceptance
suite, ``plaus selfcheck`` and demo 03 call them with their own seeds and trial
counts and compare the returned gap with their own tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .metrics import (
    PredictionSet, overlap, ua_average_overlap, ua_set_accuracy, ua_topk_accuracy
)
from .pl_gibbs import GibbsConfig, gibbs_run
from .pl_likelihood import pl_partial_ranking_log_prob
from .rankings import ClassSpace, CombinatorialCapError, PartialRanking
from .samples import PosteriorSamples

__all__ = [
    "SimSpec",
    "simulate_annotations",
    "brute_force_partial_prob",
    "GridPosterior",
    "grid_posterior_oracle",
    "random_partial_ranking",
    "recursion_enumeration_gap",
    "gibbs_grid_gap",
    "point_mass_reduction_gap",
]

BRUTE_FORCE_CAP = 10_000_000


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one synthetic case.

    Args:
        true_lambda: ground-truth plausibilities; positive and finite, any
            scale, as long as each ``true_lambda ** sharpness`` and its
            reciprocal, the scale of its arrival time, are too.
        num_annotators: rankings to draw.
        block_sizes: sizes of the explicit blocks each annotator reports,
            e.g. (1, 2) for a top choice plus two tied runners-up. Must fit
            within the class count; remaining classes stay unranked.
        sharpness: exponent applied to the weights before sampling,
            positive and finite. Values above one make annotators agree
            more than the model that will be fit to them assumes; one draws
            from the model itself.
        seed: RNG seed.
    """

    true_lambda: tuple[float, ...]
    num_annotators: int
    block_sizes: tuple[int, ...]
    sharpness: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "true_lambda", tuple(float(v) for v in self.true_lambda))
        object.__setattr__(self, "block_sizes", tuple(int(s) for s in self.block_sizes))
        # The race draws each arrival at scale 1 / (true_lambda ** sharpness).
        with np.errstate(all="ignore"):
            weights = np.asarray(self.true_lambda) ** self.sharpness
            in_range = np.isfinite([weights, 1.0 / weights]).all()
        if not (0 < self.sharpness < np.inf and all(v > 0 for v in self.true_lambda) and in_range):
            raise ValueError("true_lambda and sharpness must be positive and finite, "
                             "and so must each true_lambda ** sharpness and its reciprocal")
        if self.num_annotators < 1:
            raise ValueError("need at least one annotator")
        if any(s < 1 for s in self.block_sizes):
            raise ValueError("block sizes must be positive")
        if sum(self.block_sizes) > len(self.true_lambda):
            raise ValueError("block sizes exceed the class count")


def simulate_annotations(spec: SimSpec) -> list[PartialRanking]:
    """Draw annotations by running the ranking model on the true weights.

    Each annotator's full ordering comes from an exponential race: class k
    arrives at Exp(lambda_k) and earlier arrivals rank higher, which is
    exactly sampling without replacement in proportion to the weights. The
    ordering is then cut into the requested block sizes and the rest is
    left unranked. Deterministic given the seed.
    """
    rng = np.random.default_rng(spec.seed)
    lam = np.asarray(spec.true_lambda) ** spec.sharpness
    space = ClassSpace(size=lam.size)
    out = []
    for _ in range(spec.num_annotators):
        arrivals = rng.exponential(1.0 / lam)
        order = np.argsort(arrivals, kind="stable")
        blocks = []
        start = 0
        for size in spec.block_sizes:
            blocks.append(order[start : start + size].tolist())
            start += size
        out.append(PartialRanking(blocks, space))
    return out


def brute_force_partial_prob(lam, ranking: PartialRanking, cap: int = BRUTE_FORCE_CAP) -> float:
    """Partial-ranking probability by summing over compatible orderings.

    Enumerates every interleaving of the non-trailing blocks and adds up the
    sequential-choice probabilities; the trailing block is skipped because
    the conditional probability of any ordering of what remains sums to one.
    Independent of the subset recursion, so the two can check each other.

    Raises:
        CombinatorialCapError: the enumeration would exceed ``cap`` terms.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("weights must be strictly positive")
    parts = ranking.partition()
    if len(parts) <= 1:
        return 1.0
    ranked_blocks = parts[:-1]
    count = math.prod(math.factorial(len(b)) for b in ranked_blocks)
    if count > cap:
        raise CombinatorialCapError(f"{count} orderings exceed the cap of {cap}")
    trailing_mass = float(lam[list(parts[-1])].sum())
    prob = 0.0
    per_block_orders = [itertools.permutations(sorted(b)) for b in ranked_blocks]
    for pieces in itertools.product(*per_block_orders):
        prefix = list(itertools.chain.from_iterable(pieces))
        # Each step's residual adds up the weights still unchosen, from the
        # last pick back: taking each pick off the total would leave a tiny
        # trailing mass as rounding error.
        residual = trailing_mass
        term = 1.0
        for cid in reversed(prefix):
            residual += lam[cid]
            term *= lam[cid] / residual
        prob += term
    return prob


@dataclass(frozen=True, eq=False)
class GridPosterior:
    """Posterior moments from simplex quadrature.

    Attributes:
        mean: (K,) posterior mean of the normalized weights.
        variance: (K,) posterior variance per coordinate.
        num_nodes: quadrature nodes evaluated.
    """

    mean: np.ndarray
    variance: np.ndarray
    num_nodes: int


def grid_posterior_oracle(rankings, alpha: float = 1.0, resolution: int = 200) -> GridPosterior:
    """Posterior of the normalized weights by brute-force quadrature.

    Works for two or three classes only. Because the ranking likelihood
    depends on the weights only through their direction, the sampler's
    Gamma(alpha, 1) prior on each unnormalized weight induces a
    Dirichlet(alpha, ..., alpha) prior on the simplex, as a Gamma prior of
    any rate would; the oracle therefore weighs each lattice node by
    Dirichlet density times likelihood and normalizes.

    Nodes are cell midpoints, ``(i + 0.5) / resolution`` in each barycentric
    coordinate, scaled to the simplex; equal quadrature weights. Accuracy
    improves as the resolution grows.

    Args:
        rankings: annotations for one case, at least one to fix the class
            count; rankings without blocks leave the prior.
        alpha: Gamma shape of the sampler prior being mirrored.
        resolution: lattice subdivisions, >= 2.

    Returns:
        GridPosterior with mean and variance per class.
    """
    rankings = list(rankings)
    if not rankings:
        raise ValueError("need at least one ranking to fix the class count")
    k = rankings[0].class_space.size
    if k not in (2, 3):
        raise ValueError(f"grid oracle supports 2 or 3 classes, got {k}")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if not alpha > 0:
        raise ValueError("alpha must be positive")

    if k == 2:
        x = (np.arange(resolution) + 0.5) / resolution
        nodes = np.column_stack([x, 1.0 - x])
    else:
        ij = [
            (i, j)
            for i in range(resolution)
            for j in range(resolution - i)
        ]
        arr = np.array(ij, dtype=float)
        third = resolution - 1 - arr.sum(axis=1)
        nodes = np.column_stack([arr + 0.5, third + 0.5]) / (resolution + 0.5)

    log_w = (alpha - 1.0) * np.log(nodes).sum(axis=1)
    for r in rankings:
        log_w += np.array([pl_partial_ranking_log_prob(node, r) for node in nodes])
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    mean = w @ nodes
    variance = w @ (nodes - mean) ** 2
    return GridPosterior(mean=mean, variance=variance, num_nodes=nodes.shape[0])


def random_partial_ranking(rng, space, max_blocks=3, max_block=3):
    """Up to ``max_blocks`` blocks of at most ``max_block`` classes, cut from a
    random ordering of ``space``; the rest stay unranked."""
    ids = rng.permutation(space.size)
    blocks = []
    start = 0
    for _ in range(int(rng.integers(1, max_blocks + 1))):
        if start >= space.size:
            break
        size = int(rng.integers(1, min(max_block, space.size - start) + 1))
        blocks.append(ids[start : start + size].tolist())
        start += size
    return PartialRanking(blocks, space)


def recursion_enumeration_gap(seed: int, trials: int) -> float:
    """Worst |recursion - enumeration| over ``trials`` random partial rankings
    of 2 to 6 classes with weights uniform on [0.05, 5]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(2, 7))
        space = ClassSpace(size=k)
        lam = rng.uniform(0.05, 5.0, size=k)
        ranking = random_partial_ranking(rng, space)
        dp = math.exp(pl_partial_ranking_log_prob(lam, ranking))
        bf = brute_force_partial_prob(lam, ranking)
        worst = max(worst, abs(dp - bf))
    return worst


def gibbs_grid_gap(rankings, config: GibbsConfig, resolution: int) -> float:
    """Largest per-class gap between the Gibbs chain mean and the grid mean;
    the grid mirrors one repetition, so ``config.repetitions`` should be 1."""
    oracle = grid_posterior_oracle(rankings, alpha=config.alpha, resolution=resolution)
    chain = gibbs_run(rankings, config)
    return float(np.max(np.abs(chain.samples.mean(axis=0) - oracle.mean)))


def point_mass_reduction_gap(seed: int, trials: int) -> float:
    """Worst gap between the uncertainty-adjusted top-k, set and overlap
    metrics of a point mass and their deterministic values, over ``trials``
    random weights of 3 to 8 classes and predictions of 1 to K classes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(3, 9))
        lam = rng.dirichlet(np.ones(k))
        point = PosteriorSamples.point_mass(lam)
        m = int(rng.integers(1, k + 1))
        pred = PredictionSet(tuple(int(c) for c in rng.permutation(k)[:m]))
        order = np.argsort(-lam, kind="stable")
        for j in range(1, m + 1):
            det_top = 1.0 if order[0] in pred.ranked_classes[:j] else 0.0
            worst = max(worst, abs(ua_topk_accuracy(point, pred, j) - det_top))
            det_set = 1.0 if set(pred.top(j)) == set(order[:j].tolist()) else 0.0
            worst = max(worst, abs(ua_set_accuracy(point, pred, j) - det_set))
        aos = [overlap(pred.ranked_classes[:j], order[:j]) for j in range(1, m + 1)]
        worst = max(worst, abs(ua_average_overlap(point, pred, m) - float(np.mean(aos))))
    return worst
