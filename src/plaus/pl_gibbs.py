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

The conditionals draw nothing themselves: each is a function of the chain
state and the draws it is given, and ``GibbsSampler._sweep_draws`` is the
one reader of the generator after the initial weights. A sweep's draws are,
in stream order, the race keys, every tied block's walk uniforms, the
interarrival times and the weights' standard Gammas. A chain with no tied
block draws them ahead, in chunks of sweeps. Every draw of its sweep is a
standard Gamma of a shape fixed for the chain: 1 for the race keys and the
interarrival times, which numpy draws as the same ziggurat exponentials that
``standard_exponential`` draws, and alpha plus the ranked count for each
weight. numpy fills an array ``standard_gamma`` call one entry after another,
so one call over that pattern, stacked for a chunk of sweeps, draws bit for
bit the stream of the per-sweep calls and leaves the generator in the same
state. A tied chain draws sweep by sweep, in four calls, since its walk
uniforms are not Gammas; numpy fills ``random`` one entry after another too,
so one call for all of its blocks draws what one call per block would. So
does a chain of more than ``_CHUNK_MAX_SWEEP_DRAWS`` draws a sweep, in
three, where numpy's slower per-entry Gamma fill outweighs the calls saved.

Weights stay unnormalized inside the chain; emitted samples are projected
onto the simplex. With no annotations the chain reproduces the prior, whose
normalized draws are Dirichlet(alpha, ..., alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pl_likelihood import _check_block_size, _table_values, _TableBuffers
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

# Largest count of draws a sweep, (2 num_rows + 1) K, at which an untied
# chain draws its stream in chunks. numpy fills an array standard_gamma
# call at about 18 ns an entry against 9 ns for standard_exponential, so the
# calls saved stop paying near 1,500 draws: whole sweeps ran 1.34x faster
# chunked at 20 draws, 1.07x at 972 and 1,200, 1.01x at 1,464 and 0.92x at
# 2,440 (2-vCPU x86 box, numpy 2.4; table in CHANGES.md).
_CHUNK_MAX_SWEEP_DRAWS = 1200
# Draws per chunk: at most 64 KiB of them at once.
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
        # Each annotation's last ranked class if its last ranked block holds
        # that class alone, else -1.
        last_single = np.full(len(rankings), -1, dtype=np.int64)
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
            if blocks and blocks[-1].size == 1:
                last_single[g] = blocks[-1][0]
            end = 0
            for members in blocks:
                end += members.size
                if members.size > 1:
                    rows = slice(g * reps, (g + 1) * reps)
                    self._ties.append((rows, members, end - members.size, ranked_ids[:end]))
        self.ranked_counts = counts
        # The subset tables' working arrays, one set per tied block size.
        self._table_buffers = {m.size: _TableBuffers(m.size) for _, m, _, _ in self._ties}
        self.num_ranked = np.repeat(num_ranked, reps)  # per row
        # Per-chain constants, so that each sweep makes only the calls its
        # draws need.
        self._shape = self.config.alpha + counts
        self._head_keys = np.repeat(head, reps, axis=0)
        self._fixed = ~np.repeat(free, reps, axis=0)
        self._row_col = np.arange(self.num_rows)[:, None]
        self._row_starts = np.arange(self.num_rows) * k
        # A row that ranked nothing reads its last column, then weighs zero.
        self._last_flat = self._row_starts + (self.num_ranked - 1) % k
        self._has_ranked = (self.num_ranked > 0).astype(float)
        self._all_ranked = bool(self.num_ranked.all())
        # When every row ends its ranking on a one-class block, each row's
        # horizon is the arrival of that class: a fixed cell of taus.
        self._horizon_flat = None
        if (last_single >= 0).all():
            self._horizon_flat = self._row_starts + np.repeat(last_single, reps)

        self.rng = np.random.default_rng(self.config.seed)
        lam0 = self.rng.gamma(self.config.alpha, 1.0 / self.config.beta, size=self.num_classes)
        self.state = GibbsState(
            lam=lam0, sigmas=np.empty((0, k), dtype=np.int64), taus=np.empty((0, k))
        )

    # -- conditional 1: orderings ------------------------------------------

    def sample_sigma(self, keys: np.ndarray, uniforms: np.ndarray | None) -> None:
        """Redraw every annotation's compatible full ordering given lam.

        ``keys`` are the race's (num_rows, K) standard exponentials and
        ``uniforms`` the tied blocks' walk uniforms, each block's
        (copies, n - 1) in turn, flattened; None without a tied block.
        """
        if not self.num_rows:
            return
        lam = self.state.lam
        # Ordering what trails is the model itself: run the race for every
        # copy at once.
        keys = keys / lam
        np.copyto(keys, self._head_keys, where=self._fixed)
        sigmas = keys.argsort(1)
        if self._ties:
            total = lam.sum()
            end = 0
            for rows, members, start, above in self._ties:
                # Copies share the partition, hence each block's zbar and table.
                # Down to a block at the top, only its own members are ranked.
                w = lam[members]
                zbar = float(total - (w.sum() if start == 0 else lam[above].sum()))
                values, totals, _ = _table_values(w, zbar, self._table_buffers[members.size])
                copies, steps = rows.stop - rows.start, members.size - 1
                begin, end = end, end + copies * steps
                sigmas[rows, start : start + members.size] = _block_orders(
                    values, totals, members, uniforms[begin:end].reshape(copies, steps)
                )
        self.state.sigmas = sigmas

    # -- conditional 2: arrival times --------------------------------------

    def sample_tau(self, draws: np.ndarray) -> None:
        """Redraw arrival times given lam and the current orderings.

        The interarrival time into position k is exponential with rate equal
        to the total weight of everything not yet ranked, so the first
        arrival has rate sum(lam) and arrivals are strictly increasing.
        ``draws`` are the interarrival times' (num_rows, K) standard
        exponentials.
        """
        if len(self.state.sigmas) != self.num_rows:
            raise RuntimeError("orderings not sampled yet; call sample_sigma first")
        if not self.num_rows:
            return
        sigmas = self.state.sigmas
        # Rates summed from the last position back, in place.
        rates = self.state.lam[sigmas]
        np.add.accumulate(rates[:, ::-1], axis=1, out=rates[:, ::-1])
        arrivals = draws / rates
        taus = np.empty(sigmas.shape)
        taus[self._row_col, sigmas] = np.add.accumulate(arrivals, axis=1, out=arrivals)
        self.state.taus = taus

    # -- conditional 3: weights --------------------------------------------

    def _posterior_gamma_params(self):
        """Shape and rate vectors for the weight update.

        Shape adds the class's ranked appearances; the rate adds each
        annotation's arrival time, censored at that annotation's last ranked
        arrival for classes it never ranked (an unranked class is only known
        to have arrived after that point; zero when nothing was ranked).
        """
        if not self.num_rows:
            return self._shape, np.full(self.num_classes, self.config.beta)
        taus = self.state.taus
        if self._horizon_flat is not None:
            horizon = taus.take(self._horizon_flat)
        else:
            horizon = taus.take(self._row_starts + self.state.sigmas.take(self._last_flat))
            if not self._all_ranked:
                horizon *= self._has_ranked
        # np.add.reduce is what sum(0) calls, without the method's wrapper.
        rate = self.config.beta + np.add.reduce(np.minimum(taus, horizon[:, None]), axis=0)
        return self._shape, rate

    def sample_lambda(self, draws: np.ndarray) -> None:
        """Redraw every weight from its Gamma full conditional.

        ``draws`` are (K,) standard Gammas of the conditional's shapes.
        """
        if self.num_rows and len(self.state.taus) != self.num_rows:
            raise RuntimeError("arrival times not sampled yet; call sample_tau first")
        _, rate = self._posterior_gamma_params()
        # What rng.gamma(shape, 1 / rate) draws, without its broadcasting.
        self.state.lam = draws * (1.0 / rate)

    # -- driver -------------------------------------------------------------

    def _sweep_draws(self, sweeps: int):
        """Yield each sweep's draws, in stream order: the (num_rows, K) race
        keys, the walk uniforms that ``sample_sigma`` takes, the
        (num_rows, K) interarrival times and the weights' (K,) standard
        Gammas.

        An untied chain of at most ``_CHUNK_MAX_SWEEP_DRAWS`` draws a sweep
        takes them from one ``standard_gamma`` call per chunk of sweeps,
        other chains from one call per kind a sweep; both draw the stream of
        the per-sweep calls (see the module docstring).
        """
        rng = self.rng
        k = self.num_classes
        a = self.num_rows
        if self._ties or (2 * a + 1) * k > _CHUNK_MAX_SWEEP_DRAWS:
            # n - 1 uniforms for each copy of an n-way tie.
            walk = sum((rows.stop - rows.start) * (m.size - 1) for rows, m, _, _ in self._ties)
            for _ in range(sweeps):
                keys = rng.standard_exponential((a, k))
                uniforms = rng.random(walk) if walk else None
                arrivals = rng.standard_exponential((a, k))
                yield keys, uniforms, arrivals, rng.standard_gamma(self._shape)
            return
        per_chunk = max(1, _CHUNK_DRAWS // ((2 * a + 1) * k))
        pattern = np.ones((min(per_chunk, sweeps), 2 * a + 1, k))
        pattern[:, -1] = self._shape
        for start in range(0, sweeps, per_chunk):
            for draws in rng.standard_gamma(pattern[: sweeps - start]):
                yield draws[:a], None, draws[a:-1], draws[-1]

    def run(self) -> PosteriorSamples:
        """Sweep the chain and emit retained, normalized samples."""
        cfg = self.config
        kept = np.empty((cfg.num_retained, self.num_classes))
        row = 0
        sweeps = self._sweep_draws(cfg.iterations)
        for t, (keys, uniforms, arrivals, gammas) in enumerate(sweeps, 1):
            self.sample_sigma(keys, uniforms)
            self.sample_tau(arrivals)
            self.sample_lambda(gammas)
            if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0:
                kept[row] = self.state.lam
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
