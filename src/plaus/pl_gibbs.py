"""Gibbs sampler for the posterior over ranking-model weights.

Generative story per annotator: every class k gets an independent arrival
time tau_k ~ Exp(lambda_k); sorting the arrivals yields a full ordering, and
the observed partial ranking is that ordering with positions grouped into
the annotator's blocks. With independent Gamma(alpha, beta) priors on the
weights, all three conditionals are exact:

  * the ordering within each block, given the weights, via the block's
    subset table (a trellis walk);
  * the arrival times, given weights and orderings, via interarrival
    exponentials whose rate at position k is the weight still unranked;
  * each weight, given the arrival times, via a Gamma whose shape counts
    the class's appearances in non-trailing blocks and whose rate adds up
    arrival times. A class an annotator never ranked is only known not to
    have arrived before that annotator's last ranked class, so its arrival
    contributes censored at that time and its shape is untouched.

Reliability is an integer repetition count: each annotation is entered that
many times with its own latent ordering and arrival times, which sharpens
the likelihood exactly like observing the annotator repeatedly. The chain
state is one row per copy, and each conditional updates every row with a
fixed number of array calls. Copies share their annotation's partition and
so, at a given lambda, every tied block's zbar: each sweep builds one subset
table per tied block of an annotation and draws all of its copies' orderings
from it.

Weights stay unnormalized inside the chain; emitted samples are projected
onto the simplex. With no annotations the chain reproduces the prior, whose
normalized draws are Dirichlet(alpha, ..., alpha).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .pl_likelihood import _check_block_size, _table_values
from .rankings import ClassSpace
from .samples import PosteriorSamples

__all__ = [
    "DEFAULT_REPETITION_GRID",
    "GibbsConfig",
    "GibbsState",
    "GibbsSampler",
    "gibbs_run",
]

# Reliability settings swept by default, loosest to tightest.
DEFAULT_REPETITION_GRID = (1, 2, 3, 5, 10)


@dataclass(frozen=True)
class GibbsConfig:
    """Chain settings.

    Defaults keep 1500 of 2000 sweeps after a 500-sweep burn-in.
    """

    alpha: float = 1.0
    beta: float = 1.0
    iterations: int = 2000
    burn_in: int = 500
    thinning: int = 1
    repetitions: int = 1
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.alpha > 0 or not self.beta > 0:
            raise ValueError("alpha and beta must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0 <= self.burn_in < self.iterations):
            raise ValueError("burn_in must lie in [0, iterations)")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if not (isinstance(self.repetitions, (int, np.integer)) and self.repetitions >= 1):
            raise ValueError("repetitions must be a positive integer")

    @property
    def num_retained(self) -> int:
        """Samples the chain will emit."""
        span = self.iterations - self.burn_in
        return (span + self.thinning - 1) // self.thinning


@dataclass
class GibbsState:
    """Mutable chain state.

    Attributes:
        lam: (K,) current unnormalized weights.
        sigmas: (A, K) full compatible permutations (position -> class id),
            one row per effective annotation. Zero rows until the first
            ordering pass.
        taus: (A, K) arrival times by class id, one row per effective
            annotation.
    """

    lam: np.ndarray
    sigmas: np.ndarray
    taus: np.ndarray


class GibbsSampler:
    """Runs the three-conditional chain for one case.

    Args:
        rankings: annotations sharing one class space. May be empty, in
            which case ``class_space`` fixes the class count and the chain
            samples the prior.
        config: chain settings; reliability comes from ``config.repetitions``.
        class_space: required when ``rankings`` is empty.

    Attributes:
        num_rows: state rows, one per copy: annotations times repetitions.
        num_ranked: (num_rows,) classes each row's annotation ranked in its
            non-trailing blocks.

    Raises:
        BlockTooLargeError: some annotation ties more than
            ``MAX_BLOCK_SIZE`` classes in a non-trailing block.
    """

    def __init__(
        self,
        rankings,
        config: GibbsConfig | None = None,
        class_space: ClassSpace | None = None,
    ):
        self.config = config or GibbsConfig()
        rankings = list(rankings)
        if rankings:
            class_space = rankings[0].class_space
            for r in rankings:
                if r.class_space.size != class_space.size:
                    raise ValueError("rankings must share one class space")
        elif class_space is None:
            raise ValueError("class_space is required when no rankings are given")
        self.class_space = class_space
        self.num_classes = class_space.size

        # Repetitions literally duplicate the annotation, each copy with its
        # own latent ordering and arrival times. The copies of annotation g
        # are the contiguous rows g * reps ... (g + 1) * reps - 1.
        reps = self.config.repetitions
        self.num_rows = len(rankings) * reps

        k = self.num_classes
        counts = np.zeros(k)
        num_ranked = np.zeros(len(rankings), dtype=np.int64)
        # Sort keys that put each annotation's ranked classes, in order, ahead
        # of every arrival time (tied blocks are redrawn after the sort).
        head = np.zeros((len(rankings), k))
        free = np.zeros((len(rankings), k), dtype=bool)
        self._ties = []  # (rows, members, first position, classes ranked up to it)
        for g, ranking in enumerate(rankings):
            parts = ranking.partition()
            for block in parts[:-1]:
                _check_block_size(len(block))
            # Non-trailing blocks carry likelihood; the trailing one is free.
            blocks = [np.array(sorted(b), dtype=np.int64) for b in parts[:-1]]
            ranked_ids = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
            num_ranked[g] = ranked_ids.size
            counts[ranked_ids] += reps
            head[g, ranked_ids] = np.arange(ranked_ids.size) - k
            free[g, list(parts[-1])] = True
            end = 0
            for members in blocks:
                end += members.size
                if members.size > 1:
                    rows = slice(g * reps, (g + 1) * reps)
                    self._ties.append((rows, members, end - members.size, ranked_ids[:end]))
        self.ranked_counts = counts
        self.num_ranked = np.repeat(num_ranked, reps)  # per row
        self._head_keys = np.repeat(head, reps, axis=0)
        self._free = np.repeat(free, reps, axis=0)
        self._rows = np.arange(self.num_rows)
        self._last_ranked = self.num_ranked - 1
        self._has_ranked = (self.num_ranked > 0).astype(float)
        self._flat_offsets = self._rows[:, None] * k

        self.rng = np.random.default_rng(self.config.seed)
        lam0 = self.rng.gamma(self.config.alpha, 1.0 / self.config.beta, size=self.num_classes)
        self.state = GibbsState(
            lam=lam0, sigmas=np.empty((0, k), dtype=np.int64), taus=np.empty((0, k))
        )

    # -- conditional 1: orderings ------------------------------------------

    def _draw_block_orders(self, values: np.ndarray, members: np.ndarray, copies: int):
        """Order one tied block ``copies`` times from its shared subset table.

        At each step the next class s is drawn with probability proportional
        to the subset value of the remaining set minus s: the candidates'
        values are accumulated in ascending bit order and ``u`` times their
        total is bisected, with one ``rng.random((copies, n - 1))`` call
        supplying every ``u``. A copy reads only the n(n + 1)/2 - 1 entries
        its path visits, and keeps its remaining bits as an ascending list,
        so each step pops its pick instead of rescanning all n singles.
        Entries are read one ``values.item`` each: a ``tolist()`` of all 2^n
        of them costs more at wide ties. Returns (copies, n) class ids.
        """
        n = members.size
        read = values.item
        singles = [1 << i for i in range(n)]
        picks = []
        for draws in self.rng.random((copies, n - 1)).tolist():
            mask = (1 << n) - 1
            bits = singles.copy()
            for u in draws:
                cum = list(accumulate(read(mask ^ bit) for bit in bits))
                # u * cum[-1] may round up to cum[-1]; then take the last.
                bit = bits.pop(min(bisect_right(cum, u * cum[-1]), len(bits) - 1))
                picks.append(bit.bit_length() - 1)
                mask ^= bit
            picks.append(mask.bit_length() - 1)
        return members[np.reshape(picks, (copies, n))]

    def sample_sigma(self) -> None:
        """Redraw every annotation's compatible full ordering given lam."""
        if not self.num_rows:
            return
        lam = self.state.lam
        # Ordering what trails is the model itself: run the race for every
        # copy at once.
        arrivals = self.rng.standard_exponential(self._free.shape)
        arrivals /= lam
        sigmas = np.where(self._free, arrivals, self._head_keys).argsort(1)
        total = lam.sum()
        for rows, members, start, above in self._ties:
            # Copies share the partition, hence each block's zbar and table.
            values, _ = _table_values(lam[members], float(total - lam[above].sum()))
            sigmas[rows, start : start + members.size] = self._draw_block_orders(
                values, members, rows.stop - rows.start
            )
        self.state.sigmas = sigmas

    # -- conditional 2: arrival times --------------------------------------

    def sample_tau(self) -> None:
        """Redraw arrival times given lam and the current orderings.

        The interarrival time into position k is exponential with rate equal
        to the total weight of everything not yet ranked, so the first
        arrival has rate sum(lam) and arrivals are strictly increasing.
        """
        if len(self.state.sigmas) != self.num_rows:
            raise RuntimeError("orderings not sampled yet; call sample_sigma first")
        if not self.num_rows:
            return
        sigmas = self.state.sigmas
        rates = self.state.lam[sigmas][:, ::-1].cumsum(1)[:, ::-1]
        arrivals = self.rng.standard_exponential(sigmas.shape)
        arrivals /= rates
        taus = np.empty(sigmas.shape)
        taus.flat[sigmas + self._flat_offsets] = arrivals.cumsum(1)
        self.state.taus = taus

    # -- conditional 3: weights --------------------------------------------

    def _posterior_gamma_params(self):
        """Shape and rate vectors for the weight update.

        Shape adds the class's ranked appearances; the rate adds each
        annotation's arrival time, censored at that annotation's last ranked
        arrival for classes it never ranked (an unranked class is only known
        to have arrived after that point; zero when nothing was ranked).
        """
        shape = self.config.alpha + self.ranked_counts
        if not self.num_rows:
            return shape, np.full(self.num_classes, self.config.beta)
        sigmas, taus = self.state.sigmas, self.state.taus
        last = sigmas[self._rows, self._last_ranked]
        horizon = taus[self._rows, last] * self._has_ranked
        rate = self.config.beta + np.minimum(taus, horizon[:, None]).sum(0)
        return shape, rate

    def sample_lambda(self) -> None:
        """Redraw every weight from its Gamma full conditional."""
        if self.num_rows and len(self.state.taus) != self.num_rows:
            raise RuntimeError("arrival times not sampled yet; call sample_tau first")
        shape, rate = self._posterior_gamma_params()
        # Same draws as rng.gamma(shape, 1 / rate), without its broadcasting.
        self.state.lam = self.rng.standard_gamma(shape) * (1.0 / rate)

    # -- driver -------------------------------------------------------------

    def run(self) -> PosteriorSamples:
        """Sweep the chain and emit retained, normalized samples."""
        cfg = self.config
        kept = np.empty((cfg.num_retained, self.num_classes))
        row = 0
        for t in range(1, cfg.iterations + 1):
            self.sample_sigma()
            self.sample_tau()
            self.sample_lambda()
            if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0:
                lam = self.state.lam
                kept[row] = lam / lam.sum()
                row += 1
        return PosteriorSamples(
            samples=kept,
            model="pl-gibbs",
            reliability=cfg.repetitions,
            seed=cfg.seed,
        )


def gibbs_run(
    rankings,
    config: GibbsConfig | None = None,
    class_space: ClassSpace | None = None,
) -> PosteriorSamples:
    """Build a sampler and run it. See :class:`GibbsSampler`."""
    return GibbsSampler(rankings, config=config, class_space=class_space).run()
