"""Gibbs sampler for the posterior over ranking-model weights.

Generative story per annotator: the model picks classes one position at a
time, each with probability proportional to its weight among those not yet
ranked, and the observed partial ranking groups those positions into the
annotator's blocks. After Caron and Doucet (2012), every ranked position j
carries an exponential latent of rate Z_j, the weight not yet ranked there
(1 / Z_j is the integral of exp(-Z_j t) over t > 0). With independent
Gamma(alpha, 1) priors on the weights, all three conditionals are exact:

  * the ordering within each tied block, given the weights, via the block's
    subset table (a trellis walk); an untied block has one ordering;
  * the latents, given weights and orderings: Exp(Z_j) at each position;
  * each weight, given the latents, via a Gamma whose shape counts the
    class's appearances in non-trailing blocks and whose rate adds every
    latent of a position where the class was still unranked. This is the
    race of Exp(weight) arrivals of every class with the unranked classes'
    arrivals integrated out: the latents live at ranked positions only.

Reliability is an integer repetition count: each annotation is entered that
many times, each copy with its own latent ordering and latents, which
sharpens the likelihood exactly like observing the annotator repeatedly.

The chain state is a 0/1 matrix U, one row per latent, 1 where a class is
still unranked at the row's position: ranked there or later, or in the
trailing block. The rates are then Z = U lambda and the weights' Gamma rate
is 1 + z U, where z holds the latents. The copies of an annotation have
the same classes unranked at every ranked position outside a tie and at a
tie's first position, whatever their orderings, so they share one row
there, whose latent is the sum of theirs: Gamma(repetitions) / Z_j in law.
A tie's later positions get one row per copy, with a Gamma(1) / Z_j latent,
and the ordering pass writes the copy's ordering into those rows. U holds
at most (positions + sum over ties of copies * (n - 1)) rows of K floats,
positions counted over all annotations. A sweep is

  orderings:  each tie's copies walk its subset table and rewrite their rows;
  latents:    z = Gamma / (U lambda);
  weights:    lambda = G / (1 + z U),

so the weights' Markov kernel is that of the per-copy chain in
distribution, and outside the ties a sweep's cost does not grow with the
repetitions.

The conditionals draw nothing themselves: each is a function of the chain
state and the draws it is given. ``GibbsSampler._sweeps`` draws a chunk of
sweeps at once: one ``random`` call for every sweep's walk uniforms, each
tie's (copies, n - 1) in turn, then one ``standard_gamma`` call for every
sweep's row Gammas and its K weight Gammas of shape alpha plus the ranked
count. numpy fills an array call one entry after another, so a chunk draws
what one call per sweep would. A chain with no tie draws no walk uniforms,
and an empty ``random`` call leaves the generator as it was. numpy draws a
shape-1 Gamma as the same ziggurat exponential that
``standard_exponential`` draws, so at one repetition, where no annotation
ranks fewer classes than another, an untied chain draws the per-copy
chain's stream, draw for draw.

Weights stay unnormalized inside the chain; emitted samples are projected
onto the simplex. With no annotations the chain reproduces the prior, whose
normalized draws are Dirichlet(alpha, ..., alpha). The prior's rate is fixed
at 1. A rate beta would divide the chain's weights by beta, draw for draw,
and scale the latents back by beta; the emitted samples are normalized, so
it could change them only by rounding (the scale invariance Caron and
Doucet 2012 note).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pl_likelihood import _check_block_size, _table_values
from .rankings import ClassSpace, _all_ints
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

# Draws per chunk of sweeps: at most 64 KiB of them at once.
_CHUNK_DRAWS = 8192


@dataclass(frozen=True)
class GibbsConfig:
    """Chain settings, and the one place their rules are checked.

    ``alpha`` is the shape of each weight's Gamma prior, whose rate is 1
    (see the module docstring). Defaults keep 1500 of 2000 sweeps after a
    500-sweep burn-in.

    ``alpha`` must be at least 0.05. The chain starts from K Gamma(alpha, 1)
    draws, and such a draw is below 2^-1074, the smallest positive double,
    so 0, with probability about 2^(-1074 alpha) / Gamma(1 + alpha): about
    7e-17 at alpha = 0.05, but 0.47 at alpha = 0.001, where a start of zero
    weights, or of weights so small that the first latents overflow,
    divides by zero. Every later draw of a class that some annotation ranks
    has shape at least 1 + alpha, and every row of U holds such a class.
    """

    alpha: float = 1.0
    iterations: int = 2000
    burn_in: int = 500
    thinning: int = 1
    repetitions: int = 1
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.05 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and at least 0.05")
        counts = (self.iterations, self.burn_in, self.thinning, self.repetitions)
        if not _all_ints(*counts):
            raise ValueError(
                f"iterations, burn_in, thinning and repetitions must be integers, got {counts}"
            )
        # The CLI sets iterations to burn_in + thinning * M, so in this order
        # a bad thinning or burn-in is named, not the iterations it yields.
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.iterations <= self.burn_in:
            raise ValueError("iterations must exceed burn_in")
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

    Attributes:
        lam: (K,) current unnormalized weights.
        unranked: (rows, K) the matrix U: 1.0 where a class is still
            unranked at the row's position. A tie's rows after its first
            position hold one copy's current ordering each; no other row
            changes.
        z: (rows,) latents of the last pass: a shared row's is the sum of
            its copies' interarrival times into the position, a tie row's
            one copy's. None until the first pass.
    """

    lam: np.ndarray
    unranked: np.ndarray
    z: np.ndarray | None = None


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
    """Runs the chain for one case, one sweep form for every chain (see the
    module docstring).

    Args:
        rankings: annotations sharing one class space. May be empty, in
            which case ``class_space`` fixes the class count and the chain
            samples the prior.
        config: chain settings; reliability comes from ``config.repetitions``.
        class_space: required when ``rankings`` is empty.

    Attributes:
        ranked_counts: (K,) appearances of each class in non-trailing
            blocks, over every copy.

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
        self.num_classes = class_space.size

        reps = self.config.repetitions
        k = self.num_classes
        counts = np.zeros(k)
        unranked = [np.zeros((0, k))]
        shapes = []  # each row's Gamma shape
        rest = []  # per tie: 1.0 on the classes of its later and trailing blocks
        self._ties = []  # (rows of U (copies, n - 1), members, their entries)
        for blocks in (r.partition() for r in rankings):
            for block in blocks[:-1]:
                _check_block_size(len(block))
            # Non-trailing blocks carry likelihood; the trailing one is free.
            ranked = [np.array(sorted(b), dtype=np.intp) for b in blocks[:-1]]
            ranked_ids = np.concatenate(ranked) if ranked else np.empty(0, dtype=np.intp)
            counts[ranked_ids] += reps
            # U's rows at each position, ties in ascending id order.
            u = np.zeros((ranked_ids.size, k))
            u[:, ranked_ids] = np.triu(np.ones((ranked_ids.size, ranked_ids.size)))
            u[:, list(blocks[-1])] = 1.0
            picks = []  # position of each of the annotation's rows
            end = 0
            for members in ranked:
                start, end = end, end + members.size
                picks.append(start)
                shapes.append(float(reps))
                if members.size > 1:
                    n = members.size
                    rows = len(shapes) + np.arange(reps * (n - 1)).reshape(reps, n - 1)
                    picks += list(range(start + 1, end)) * reps
                    shapes += [1.0] * rows.size
                    self._ties.append((rows, members, np.triu(np.ones((n, n)))[1:]))
                    rest.append(u[start] * np.isin(np.arange(k), members, invert=True))
            unranked.append(u[picks])
        self.ranked_counts = counts
        self._shapes = np.concatenate((shapes, self.config.alpha + counts))
        self._rest = np.array(rest).reshape(-1, k)

        self.rng = np.random.default_rng(self.config.seed)
        lam0 = self.rng.gamma(self.config.alpha, 1.0, size=self.num_classes)
        self.state = GibbsState(lam=lam0, unranked=np.concatenate(unranked))

    # -- conditional 1: orderings ------------------------------------------

    def sample_sigma(self, uniforms: np.ndarray) -> None:
        """Redraw every copy's ordering of each tie given lam, into U.

        ``uniforms`` are the ties' walk uniforms, each tie's (copies, n - 1)
        in turn, flattened; empty without a tie.
        """
        if not self._ties:
            return
        lam = self.state.lam
        unranked = self.state.unranked
        end = 0
        # Each zbar adds non-negative masses, so it cannot round below zero.
        for (rows, members, entries), zbar in zip(self._ties, self._rest.dot(lam).tolist()):
            # Copies share the partition, hence the tie's zbar and table.
            values, totals, _ = _table_values(lam[members], zbar)
            begin, end = end, end + rows.size
            walks = uniforms[begin:end].reshape(rows.shape)
            orders = _block_orders(values, totals, members, walks)
            unranked[rows[:, :, None], orders[:, None, :]] = entries

    # -- conditional 2: latents --------------------------------------------

    def sample_tau(self, draws: np.ndarray) -> None:
        """Redraw the latents given lam and U.

        ``draws`` are the rows' standard Gammas: of shape ``repetitions``
        for a shared row, 1 for a tie's row.
        """
        state = self.state
        state.z = draws / state.unranked.dot(state.lam)

    # -- conditional 3: weights --------------------------------------------

    def sample_lambda(self, draws: np.ndarray) -> None:
        """Redraw every weight from its Gamma full conditional.

        ``draws`` are (K,) standard Gammas of the conditional's shapes.
        """
        state = self.state
        if state.z is None:
            raise RuntimeError("latents not sampled yet; call sample_tau first")
        state.lam = draws / (state.z.dot(state.unranked) + 1.0)

    # -- driver -------------------------------------------------------------

    def _sweeps(self, sweeps: int):
        """Yield the weights after each sweep, drawing a chunk of sweeps at
        a time: their walk uniforms in one call, then their (sweeps,
        rows + K) standard Gammas in one."""
        rows = self.state.unranked.shape[0]
        walk = sum(tie_rows.size for tie_rows, _, _ in self._ties)
        per_chunk = max(1, _CHUNK_DRAWS // (walk + self._shapes.size))
        pattern = np.tile(self._shapes, (min(per_chunk, sweeps), 1))
        for start in range(0, sweeps, per_chunk):
            count = min(per_chunk, sweeps - start)
            walks = self.rng.random((count, walk))
            for uniforms, draws in zip(walks, self.rng.standard_gamma(pattern[:count])):
                self.sample_sigma(uniforms)
                self.sample_tau(draws[:rows])
                self.sample_lambda(draws[rows:])
                yield self.state.lam

    def run(self) -> PosteriorSamples:
        """Sweep the chain and emit retained, normalized samples."""
        cfg = self.config
        kept = np.empty((cfg.num_retained, self.num_classes))
        row = 0
        for t, lam in enumerate(self._sweeps(cfg.iterations), 1):
            if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0:
                kept[row] = lam
                row += 1
        # Each row sums in the order lam.sum() would, so this is the
        # per-sweep normalization done once.
        kept /= kept.sum(axis=1, keepdims=True)
        return PosteriorSamples(kept)


def gibbs_run(
    rankings,
    config: GibbsConfig | None = None,
    class_space: ClassSpace | None = None,
) -> PosteriorSamples:
    """Build a sampler and run it. See :class:`GibbsSampler`."""
    return GibbsSampler(rankings, config=config, class_space=class_space).run()
