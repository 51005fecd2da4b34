"""Gibbs sampler for the posterior over ranking-model weights.

Generative story per annotator: the model picks classes one position at a
time, each with probability proportional to its weight among those not yet
ranked, and the observed partial ranking groups those positions into the
annotator's blocks. After Caron and Doucet (2012), every ranked position j
carries an exponential latent of rate Z_j, the weight not yet ranked there
(1 / Z_j is the integral of exp(-Z_j t) over t > 0). Running sums of the
latents are arrival times, and a copy's last arrival is its horizon. With
independent Gamma(alpha, beta) priors on the weights, all three
conditionals are exact:

  * the ordering within each tied block, given the weights, via the block's
    subset table (a trellis walk); an untied block has one ordering;
  * the arrival times, given weights and orderings, via interarrival
    exponentials of rate Z_j;
  * each weight, given the arrival times, via a Gamma whose shape counts
    the class's appearances in non-trailing blocks and whose rate adds, for
    every copy, the arrival time of the class's position, or the horizon
    where the copy left the class unranked (zero if it ranked nothing).
    This is the race of Exp(weight) arrivals of every class with the
    unranked classes' arrivals integrated out: the latents live at ranked
    positions only.

Reliability is an integer repetition count: each annotation is entered that
many times with its own latent ordering and arrival times, which sharpens
the likelihood exactly like observing the annotator repeatedly. The chain
state is one row per copy over the ranked positions, and each conditional
updates every row with a fixed number of array calls. Copies share their
annotation's partition and so, at a given lambda, every tied block's zbar:
each sweep builds one subset table per tied block of an annotation and
draws all of its copies' orderings from it.

A chain with no tied block has one ordering per annotation, so it sweeps
with collapsed copies instead. Its ranked positions, over every annotation,
index the rows of a fixed (P, K) 0/1 matrix U, 1 where a class is still
unranked at the position: ranked there or later, or in the trailing block.
The rate there is R = U lambda, and the weights' Gamma rate adds
sum_p z_p U[p, k], where z_p is the sum of the copies' interarrival times
into position p. The copies of an annotation share every rate, so z_p is
Gamma(repetitions) / R_p in law, and a sweep draws z = Gamma / (U lambda)
and then lambda = G / (beta + z U): the weights' Markov kernel is that of
the per-copy chain in distribution, and a sweep's cost does not grow with
the repetitions.

The conditionals draw nothing themselves: each is a function of the chain
state and the draws it is given. A tied chain takes them from
``GibbsSampler._sweep_draws``, which draws sweep by sweep, in stream order,
every tied block's walk uniforms (numpy fills ``random`` one entry after
another, so one call for all of the blocks draws what one call per block
would), the interarrival times and the weights' standard Gammas. An untied
chain draws a chunk of sweeps in one ``standard_gamma`` call, each sweep its
P Gammas of shape ``repetitions`` then its K of shape alpha plus the ranked
count. numpy draws a shape-1 Gamma as the same ziggurat exponential that
``standard_exponential`` draws, and fills an array call one entry after
another, so at one repetition, where no annotation ranks fewer classes than
another, this is the per-copy chain's stream, draw for draw.

Weights stay unnormalized inside the chain; emitted samples are projected
onto the simplex. With no annotations the chain reproduces the prior, whose
normalized draws are Dirichlet(alpha, ..., alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Draws per chunk of an untied chain's sweeps: at most 64 KiB of them at
# once.
_CHUNK_DRAWS = 8192


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
        for name in ("iterations", "burn_in", "thinning", "repetitions"):
            value = getattr(self, name)
            # bool is an int, but True is no count of sweeps or copies.
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0 <= self.burn_in < self.iterations):
            raise ValueError("burn_in must lie in [0, iterations)")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be a positive integer")

    @property
    def num_retained(self) -> int:
        """Samples the chain will emit."""
        span = self.iterations - self.burn_in
        return (span + self.thinning - 1) // self.thinning


@dataclass
class GibbsState:
    """Mutable chain state.

    ``GibbsSampler.run`` on a chain with no tied block updates only ``lam``:
    its sweep collapses the copies and never forms ``sigmas`` or ``taus``.

    Attributes:
        lam: (K,) current unnormalized weights.
        sigmas: (A, r) class at each ranked position (position -> class id),
            one row per copy, where r is the longest ranking's ranked count
            and shorter rows are padded with the id K. Empty until the first
            ordering pass.
        taus: (A, r + 1) arrival time after each ranked position, behind a
            leading zero column, so that a row's horizon is its column
            ``num_ranked``. Empty until the first arrival pass.
    """

    lam: np.ndarray
    sigmas: np.ndarray
    taus: np.ndarray


def _block_orders(
    values: np.ndarray, totals: np.ndarray, members: np.ndarray, uniforms: np.ndarray
):
    """Order one tied block once per row of ``uniforms`` from its subset table.

    At each step the next class s is drawn with probability proportional
    to the subset value of the remaining set minus s, by the inverse
    transform over the candidates in ascending bit order: the first whose
    running sum exceeds ``u`` times their total is picked, and the last
    when none does (``u`` times the total may round up to it). A row of the
    (copies, n - 1) ``uniforms`` holds one copy's ``u``s. The total of the
    remaining set is read from ``totals``, where the table kept the sum of
    these same values in this same order, so a step does not add every
    candidate up first: with j candidates left it reads the total, then
    values only until its pick, (j + 3)/2 entries on average for an even
    pick against the j of a full sum. Over a whole path that is
    n^2/4 + 7n/4 - 2 of the n(n + 1)/2 - 1 entries: 0.70 of them at n = 11
    and 0.80 at n = 8 on the benchmark's tied chains, and no fewer at n = 4.
    A copy keeps its remaining bits as an ascending list and removes each
    pick from it. Entries are read one ``.item`` each: a ``tolist()`` of all
    2^n of them costs more at wide ties. Returns (copies, n) class ids.
    """
    n = members.size
    read = values.item
    total = totals.item
    singles = [1 << i for i in range(n)]
    ids = members.tolist()
    orders = []
    for draws in uniforms.tolist():
        mask = (1 << n) - 1
        bits = singles.copy()
        order = []
        for u in draws:
            target = u * total(mask)
            acc = 0.0
            for bit in bits:
                acc += read(mask ^ bit)
                if acc > target:
                    break
            # Past the last candidate without a pick, the loop leaves ``bit``
            # on it.
            bits.remove(bit)
            mask ^= bit
            order.append(ids[bit.bit_length() - 1])
        order.append(ids[mask.bit_length() - 1])
        orders.append(order)
    return np.array(orders)


class GibbsSampler:
    """Runs the chain for one case: the three conditionals where some
    annotation ties classes, the collapsed sweep where none does.

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
        parts = [r.partition() for r in rankings]
        num_ranked = np.array([sum(map(len, p[:-1])) for p in parts], dtype=np.int64)
        self.num_ranked = np.repeat(num_ranked, reps)  # per row
        width = int(num_ranked.max(initial=0))
        # Each row's ranked classes in order, padded with the id K, then the
        # id K + 1 + row of its trailing mass: sample_tau gathers its rates
        # through this from [lam, 0, trailing masses].
        order = np.full((self.num_rows, width + 1), k, dtype=np.intp)
        order[:, -1] += 1 + np.arange(self.num_rows)
        # 1.0 where a row's class sits in its trailing block.
        self._trailing = np.zeros((self.num_rows, k))
        self._ties = []  # (rows, members, first position, ids of later blocks)
        # Each annotation's rows of U: 1.0 where a class is ranked at the
        # row's position or later, or sits in the trailing block.
        unranked = [np.zeros((0, k))]
        for g, blocks in enumerate(parts):
            for block in blocks[:-1]:
                _check_block_size(len(block))
            rows = slice(g * reps, (g + 1) * reps)
            # Non-trailing blocks carry likelihood; the trailing one is free.
            ranked = [np.array(sorted(b), dtype=np.intp) for b in blocks[:-1]]
            ranked_ids = np.concatenate(ranked) if ranked else np.empty(0, dtype=np.intp)
            counts[ranked_ids] += reps
            order[rows, : ranked_ids.size] = ranked_ids
            self._trailing[rows, list(blocks[-1])] = 1.0
            u = np.zeros((ranked_ids.size, k))
            u[:, ranked_ids] = np.triu(np.ones((ranked_ids.size, ranked_ids.size)))
            u[:, list(blocks[-1])] = 1.0
            unranked.append(u)
            end = 0
            for members in ranked:
                end += members.size
                if members.size > 1:
                    self._ties.append((rows, members, end - members.size, ranked_ids[end:]))
        self.ranked_counts = counts
        # Per-chain constants, so that each sweep makes only the calls its
        # draws need.
        self._shape = self.config.alpha + counts
        self._order = order
        self._sigmas = order[:, :-1]
        self._taus = np.zeros((self.num_rows, width + 1))
        self._horizon_flat = np.arange(self.num_rows) * (width + 1) + self.num_ranked
        self._zero = np.zeros(1)
        self._unranked = np.concatenate(unranked)

        self.rng = np.random.default_rng(self.config.seed)
        lam0 = self.rng.gamma(self.config.alpha, 1.0 / self.config.beta, size=self.num_classes)
        self.state = GibbsState(
            lam=lam0,
            sigmas=np.empty((0, width), dtype=np.intp),
            taus=np.empty((0, width + 1)),
        )

    # -- conditional 1: orderings ------------------------------------------

    def sample_sigma(self, uniforms: np.ndarray) -> None:
        """Redraw every copy's ordering of its ranked positions given lam.

        Only tied blocks have more than one ordering. ``uniforms`` are their
        walk uniforms, each block's (copies, n - 1) in turn, flattened; empty
        without a tied block.
        """
        self.state.sigmas = sigmas = self._sigmas
        if not self._ties:
            return
        lam = self.state.lam
        trailing_mass = self._trailing.dot(lam)
        end = 0
        for rows, members, start, later in self._ties:
            # Copies share the partition, hence each block's zbar and table.
            # zbar adds non-negative masses, so it cannot round below zero.
            zbar = float(trailing_mass[rows.start] + lam[later].sum())
            values, totals, _ = _table_values(lam[members], zbar)
            copies, steps = rows.stop - rows.start, members.size - 1
            begin, end = end, end + copies * steps
            sigmas[rows, start : start + members.size] = _block_orders(
                values, totals, members, uniforms[begin:end].reshape(copies, steps)
            )

    # -- conditional 2: arrival times --------------------------------------

    def sample_tau(self, draws: np.ndarray) -> None:
        """Redraw arrival times given lam and the current orderings.

        The interarrival time into ranked position j is exponential with
        rate equal to the total weight of everything not yet ranked, so the
        first arrival has rate sum(lam) and arrivals are strictly
        increasing. ``draws`` are the interarrival times' (num_rows, r)
        standard exponentials.
        """
        if len(self.state.sigmas) != self.num_rows:
            raise RuntimeError("orderings not sampled yet; call sample_sigma first")
        lam = self.state.lam
        # Each position's weight, then the trailing mass, summed from the
        # end back in place: a padded position adds 0.
        rates = np.concatenate((lam, self._zero, self._trailing.dot(lam))).take(self._order)
        np.add.accumulate(rates[:, ::-1], axis=1, out=rates[:, ::-1])
        np.add.accumulate(draws / rates[:, :-1], axis=1, out=self._taus[:, 1:])
        self.state.taus = self._taus

    # -- conditional 3: weights --------------------------------------------

    def _posterior_gamma_params(self):
        """Shape and rate vectors for the weight update.

        Shape adds the class's ranked appearances; the rate adds each copy's
        arrival time at the class's position, or the copy's horizon for a
        class in its trailing block (an unranked class is only known to have
        arrived after that point; zero when nothing was ranked).
        """
        k = self.num_classes
        taus = self.state.taus
        rate = taus.take(self._horizon_flat).dot(self._trailing)
        # Padded positions land in bin K, which is dropped.
        rate += np.bincount(self.state.sigmas.ravel(), taus[:, 1:].ravel(), k + 1)[:k]
        rate += self.config.beta
        return self._shape, rate

    def sample_lambda(self, draws: np.ndarray) -> None:
        """Redraw every weight from its Gamma full conditional.

        ``draws`` are (K,) standard Gammas of the conditional's shapes.
        """
        if len(self.state.taus) != self.num_rows:
            raise RuntimeError("arrival times not sampled yet; call sample_tau first")
        _, rate = self._posterior_gamma_params()
        self.state.lam = draws / rate

    # -- driver -------------------------------------------------------------

    def _sweep_draws(self, sweeps: int):
        """Yield a tied chain's draws for each sweep, in stream order: the
        walk uniforms that ``sample_sigma`` takes, the (num_rows, r)
        interarrival times and the weights' (K,) standard Gammas, one call
        for each kind."""
        rng = self.rng
        shape = self._sigmas.shape
        # n - 1 uniforms for each copy of an n-way tie.
        walk = sum((rows.stop - rows.start) * (m.size - 1) for rows, m, _, _ in self._ties)
        for _ in range(sweeps):
            yield rng.random(walk), rng.standard_exponential(shape), rng.standard_gamma(self._shape)

    def _tied_sweeps(self, sweeps: int):
        """Yield the weights after each sweep of the three conditionals."""
        for uniforms, arrivals, gammas in self._sweep_draws(sweeps):
            self.sample_sigma(uniforms)
            self.sample_tau(arrivals)
            self.sample_lambda(gammas)
            yield self.state.lam

    def _collapsed_sweeps(self, sweeps: int):
        """Yield the weights after each sweep of an untied chain, with each
        annotation's copies collapsed (see the module docstring).

        A chunk of sweeps draws its (sweeps, P + K) standard Gammas in one
        call: the P position sums of shape ``repetitions``, then the
        weights' K.
        """
        unranked = self._unranked
        positions = unranked.shape[0]
        beta = self.config.beta
        per_chunk = max(1, _CHUNK_DRAWS // (positions + self.num_classes))
        pattern = np.empty((min(per_chunk, sweeps), positions + self.num_classes))
        pattern[:, :positions] = self.config.repetitions
        pattern[:, positions:] = self._shape
        lam = self.state.lam
        for start in range(0, sweeps, per_chunk):
            for draws in self.rng.standard_gamma(pattern[: sweeps - start]):
                z = draws[:positions] / unranked.dot(lam)
                self.state.lam = lam = draws[positions:] / (z.dot(unranked) + beta)
                yield lam

    def run(self) -> PosteriorSamples:
        """Sweep the chain and emit retained, normalized samples.

        A chain with a tied block runs the three conditionals; an untied one
        runs the collapsed sweep and updates only ``state.lam``.
        """
        cfg = self.config
        kept = np.empty((cfg.num_retained, self.num_classes))
        row = 0
        chain = self._tied_sweeps if self._ties else self._collapsed_sweeps
        for t, lam in enumerate(chain(cfg.iterations), 1):
            if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0:
                kept[row] = lam
                row += 1
        # Each row sums in the order lam.sum() would, so this is the
        # per-sweep normalization done once.
        kept /= kept.sum(axis=1, keepdims=True)
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
