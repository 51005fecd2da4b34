from bisect import bisect_right
from itertools import accumulate, permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from plaus import pl_gibbs
from plaus.pl_gibbs import DEFAULT_REPETITION_GRID, GibbsConfig, GibbsSampler, gibbs_run
from plaus.pl_likelihood import MAX_BLOCK_SIZE, BlockTooLargeError, _table_values
from plaus.rankings import ClassSpace, PartialRanking
from plaus.sim_oracle import random_partial_ranking


def make_sampler(blocks, k, **cfg):
    space = ClassSpace(size=k)
    rankings = [PartialRanking(b, space) for b in blocks]
    return GibbsSampler(rankings, GibbsConfig(**cfg))


def test_config_validation():
    with pytest.raises(ValueError):
        GibbsConfig(alpha=0.0)
    with pytest.raises(ValueError):
        GibbsConfig(iterations=100, burn_in=100)
    with pytest.raises(ValueError):
        GibbsConfig(thinning=0)
    with pytest.raises(ValueError):
        GibbsConfig(repetitions=1.5)


@pytest.mark.parametrize(
    "field, value, count",
    [
        ("iterations", 600.5, 600),
        ("burn_in", 1.5, 1),
        ("thinning", 1.5, 2),
        ("repetitions", True, 3),
    ],
)
def test_config_refuses_a_count_that_is_no_integer(field, value, count):
    # a float count used to pass and fail later in run() with a TypeError,
    # and repetitions=True ran as 1
    with pytest.raises(ValueError, match=field):
        GibbsConfig(**{field: value})
    # numpy integers are counts
    assert getattr(GibbsConfig(**{field: np.int64(count)}), field) == count


def test_retained_count_arithmetic():
    assert GibbsConfig(iterations=2000, burn_in=500).num_retained == 1500
    assert GibbsConfig(iterations=505, burn_in=500, thinning=2).num_retained == 3
    assert GibbsConfig(iterations=506, burn_in=500, thinning=2).num_retained == 3


def test_default_grid():
    assert DEFAULT_REPETITION_GRID == (1, 2, 3, 5, 10)


def test_weight_update_for_a_ranked_class():
    # one annotator ranked class 0 first; its arrival of 1.0 is the horizon
    sampler = make_sampler([[[0]]], k=2, seed=0)
    sampler.state.sigmas = np.array([[0]])
    sampler.state.taus = np.array([[0.0, 1.0]])
    shape, rate = sampler._posterior_gamma_params()
    assert_allclose(shape, [2.0, 1.0])
    assert_allclose(rate, [2.0, 2.0])


def test_weight_update_censors_the_unranked_class():
    # unranked class alive past the horizon 0.7 contributes Gamma(1, 1.7)
    sampler = make_sampler([[[0]]], k=2, seed=0)
    sampler.state.sigmas = np.array([[0]])
    sampler.state.taus = np.array([[0.0, 0.7]])
    shape, rate = sampler._posterior_gamma_params()
    assert_allclose(shape, [2.0, 1.0])
    assert_allclose(rate, [1.7, 1.7])


def test_weight_update_accumulates_over_annotations():
    sampler = make_sampler([[[0]], [[1], [0]]], k=3, seed=0)
    # the first row ranked one class: its second position is padding (id 3),
    # and its arrival there must not count
    sampler.state.sigmas = np.array([[0, 3], [1, 0]])
    sampler.state.taus = np.array([[0.0, 0.5, 0.8], [0.0, 0.2, 0.6]])
    shape, rate = sampler._posterior_gamma_params()
    # class 0 ranked by both; class 1 ranked only by the second annotator
    assert_allclose(shape, [3.0, 2.0, 1.0])
    # first annotation horizon 0.5, second 0.6
    assert_allclose(rate, [1.0 + 0.5 + 0.6, 1.0 + 0.5 + 0.2, 1.0 + 0.5 + 0.6])


def test_weight_update_matches_a_per_annotation_loop():
    # the rate sum over all copies at once equals the loop over annotations,
    # an annotation that ranked nothing contributing zero
    sampler = make_sampler([[[2], [0, 1]], [], [[3]]], k=4, repetitions=3, seed=4)
    for uniforms, arrivals, gammas in sampler._sweep_draws(5):
        sampler.sample_sigma(uniforms)
        sampler.sample_tau(arrivals)
        sampler.sample_lambda(gammas)
    uniforms, arrivals, _ = next(sampler._sweep_draws(1))
    sampler.sample_sigma(uniforms)
    sampler.sample_tau(arrivals)
    _, rate = sampler._posterior_gamma_params()
    expected = np.full(4, 1.0)
    assert sampler.num_ranked.tolist() == [3, 3, 3, 0, 0, 0, 1, 1, 1]
    assert sampler.state.sigmas.shape == (9, 3) and sampler.state.taus.shape == (9, 4)
    for ranked, sigma, tau in zip(sampler.num_ranked, sampler.state.sigmas, sampler.state.taus):
        for position in range(ranked):
            expected[sigma[position]] += tau[position + 1]
        for c in set(range(4)) - set(sigma[:ranked].tolist()):
            expected[c] += tau[ranked]
    assert_allclose(rate, expected, rtol=1e-12)


def test_shapes_untouched_for_never_ranked_classes():
    sampler = make_sampler([[[0]]], k=3, alpha=2.0, seed=0)
    assert_allclose(sampler.ranked_counts, [1.0, 0.0, 0.0])
    uniforms, arrivals, _ = next(sampler._sweep_draws(1))
    sampler.sample_sigma(uniforms)
    sampler.sample_tau(arrivals)
    shape, _ = sampler._posterior_gamma_params()
    assert_allclose(shape, [3.0, 2.0, 2.0])


def test_repetitions_duplicate_annotations():
    base = make_sampler([[[0]], [[1]]], k=3, seed=0)
    doubled = make_sampler([[[0]], [[1]]], k=3, repetitions=2, seed=0)
    assert (base.num_rows, doubled.num_rows) == (2, 4)
    assert_allclose(doubled.ranked_counts, 2 * base.ranked_counts)


def test_arrivals_increase_along_the_ordering():
    sampler = make_sampler([[[2], [0, 1]]], k=4, seed=5)
    for uniforms, arrivals, gammas in sampler._sweep_draws(25):
        sampler.sample_sigma(uniforms)
        sampler.sample_tau(arrivals)
        (sigma,) = sampler.state.sigmas
        (tau,) = sampler.state.taus
        assert tau[0] == 0.0 and np.all(np.diff(tau) > 0)
        assert sigma[0] == 2  # the ranked top stays on top
        assert sorted(sigma[1:].tolist()) == [0, 1]
        sampler.sample_lambda(gammas)


def test_first_arrival_rate_is_total_mass():
    sampler = make_sampler([[[0]]], k=2, seed=8)
    lam = np.array([1.5, 2.5])
    sampler.state.lam = lam
    firsts = []
    for uniforms, arrivals, _ in sampler._sweep_draws(4000):
        sampler.sample_sigma(uniforms)
        sampler.sample_tau(arrivals)
        firsts.append(sampler.state.taus[0, 1])
    target = 1.0 / lam.sum()
    se = target / np.sqrt(len(firsts))  # exponential: sd equals the mean
    assert abs(np.mean(firsts) - target) < 4 * se


def test_block_order_conditional_frequencies():
    # two tied classes, third unranked: order within the block is exact
    sampler = make_sampler([[[0, 1]]], k=3, seed=13)
    lam = np.array([1.0, 2.0, 0.5])
    sampler.state.lam = lam
    p_first = (1 / (0.5 + 2.0)) / (1 / (0.5 + 2.0) + 1 / (0.5 + 1.0))
    hits = 0
    n = 4000
    for uniforms, _, _ in sampler._sweep_draws(n):
        sampler.sample_sigma(uniforms)
        hits += sampler.state.sigmas[0][0] == 0
    se = np.sqrt(p_first * (1 - p_first) / n)
    assert abs(hits / n - p_first) < 4 * se


def test_copies_draw_their_block_orders_independently():
    # 400 copies of one tie share a subset table but not their draws
    sampler = make_sampler([[[0, 1]]], k=3, repetitions=400, seed=13)
    lam = np.array([1.0, 2.0, 0.5])
    sampler.state.lam = lam
    p_first = (1 / (0.5 + 2.0)) / (1 / (0.5 + 2.0) + 1 / (0.5 + 1.0))
    uniforms, _, _ = next(sampler._sweep_draws(1))
    sampler.sample_sigma(uniforms)
    firsts = sampler.state.sigmas[:, 0]
    n = firsts.size
    assert n == 400
    se = np.sqrt(p_first * (1 - p_first) / n)
    assert abs(np.mean(firsts == 0) - p_first) < 4 * se


def test_copies_order_a_large_tie_by_its_exact_first_pick_probabilities():
    # an 8-way tie takes the gather kernel; 2000 copies share one table
    k, members = 10, list(range(8))
    sampler = make_sampler([[members]], k=k, repetitions=2000, seed=17)
    lam = np.array([3.0, 0.5, 1.0, 2.0, 0.8, 1.5, 0.3, 2.5, 1.0, 0.7])
    sampler.state.lam = lam
    zbar = lam[8:].sum()
    # exact first-pick law by enumerating all 8! block orderings
    orders = np.array(list(permutations(members)))
    w = lam[orders]
    probs = np.prod(w / (zbar + w[:, ::-1].cumsum(1)[:, ::-1]), axis=1)
    probs /= probs.sum()
    p_first = np.bincount(orders[:, 0], weights=probs, minlength=8)
    uniforms, _, _ = next(sampler._sweep_draws(1))
    sampler.sample_sigma(uniforms)
    sigmas = sampler.state.sigmas
    assert sigmas.shape == (2000, 8)  # ranked positions only
    assert (np.sort(sigmas, axis=1) == members).all()
    freq = np.bincount(sigmas[:, 0], minlength=8) / 2000
    se = np.sqrt(p_first * (1 - p_first) / 2000)
    assert (np.abs(freq - p_first) < 4 * se).all()


def _reference_block_orders(uniforms, values, members):
    # the walk over a tolist() of every entry, rescanning the remaining bits
    # from all n singles at each step: the sampler must pick as it does
    n = members.size
    values = values.tolist()
    singles = [1 << i for i in range(n)]
    picks = []
    for draws in uniforms.tolist():
        mask = (1 << n) - 1
        for u in draws:
            bits = [bit for bit in singles if mask & bit]
            cum = list(accumulate(values[mask ^ bit] for bit in bits))
            bit = bits[min(bisect_right(cum, u * cum[-1]), len(bits) - 1)]
            picks.append(bit.bit_length() - 1)
            mask ^= bit
        picks.append(mask.bit_length() - 1)
    return members[np.reshape(picks, (len(uniforms), n))]


def _in_order_totals(values):
    # each mask's one-bit-removed values added in ascending bit order, as the
    # subset kernels keep them
    n = (values.size - 1).bit_length()
    return np.array(
        [
            sum(values[mask ^ (1 << i)] for i in range(n) if mask >> i & 1)
            for mask in range(values.size)
        ]
    )


@pytest.mark.parametrize("n", range(2, 14))
def test_block_walk_matches_the_reference_walk(n):
    # n <= 5 takes the plain-float table, wider blocks the layered one
    rng = np.random.default_rng(n)
    members = rng.permutation(n + 3)[:n]
    w = rng.uniform(0.1, 5.0, size=n)
    for zbar in (0.0, 1.5):
        values, totals, _ = _table_values(w, zbar)
        for copies in (1, 3, 21):
            for seed in range(3):
                uniforms = np.random.default_rng(seed).random((copies, n - 1))
                got = pl_gibbs._block_orders(values, totals, members, uniforms)
                assert_array_equal(got, _reference_block_orders(uniforms, values, members))


def test_block_walk_takes_the_last_bit_when_the_draw_rounds_up():
    # subnormal entries make u * total round up to the total, past every
    # cumulative value; the walk must clamp to the last remaining bit
    top = 1 - 2**-53
    values = np.full(1 << 5, 5e-324)
    assert top * (3 * 5e-324) == 3 * 5e-324
    members = np.array([7, 3, 9, 1, 4])
    uniforms = np.full((2, 4), top)
    got = pl_gibbs._block_orders(values, _in_order_totals(values), members, uniforms)
    assert_array_equal(got, [members[::-1]] * 2)
    assert_array_equal(got, _reference_block_orders(uniforms, values, members))


def test_block_walk_moves_a_draw_on_a_boundary_to_the_next_class():
    # equal entries put 0.5 * total exactly on the first cumulative value;
    # the draw lies in [cum[0], cum[1]), so the second class goes first
    values = np.ones(4)
    uniforms = np.full((1, 1), 0.5)
    got = pl_gibbs._block_orders(values, _in_order_totals(values), np.array([5, 6]), uniforms)
    assert_array_equal(got, [[6, 5]])


def test_oversized_ties_are_refused_at_construction():
    k = MAX_BLOCK_SIZE + 3
    with pytest.raises(BlockTooLargeError):
        make_sampler([[list(range(MAX_BLOCK_SIZE + 1))]], k=k)
    with pytest.raises(BlockTooLargeError):
        make_sampler([[[0]], [[1], list(range(2, MAX_BLOCK_SIZE + 3))]], k=k)
    # a trailing block of any size is free
    make_sampler([[[0], [1]]], k=k)


def test_tau_requires_sigma_first():
    sampler = make_sampler([[[0]]], k=2, seed=0)
    uniforms, arrivals, gammas = next(sampler._sweep_draws(1))
    with pytest.raises(RuntimeError):
        sampler.sample_tau(arrivals)
    sampler.sample_sigma(uniforms)
    sampler.sample_tau(arrivals)
    with pytest.raises(RuntimeError):
        make_sampler([[[0]]], k=2, seed=0).sample_lambda(gammas)


def test_prior_recovery_without_annotations():
    space = ClassSpace(size=3)
    cfg = GibbsConfig(iterations=3500, burn_in=500, seed=21)
    samples = gibbs_run([], cfg, class_space=space).samples
    # normalized prior draws are Dirichlet(1, 1, 1)
    assert_allclose(samples.mean(axis=0), 1 / 3, atol=0.02)
    assert_allclose(samples.var(axis=0), 1 / 18, atol=0.01)


def test_zero_annotations_require_a_class_space():
    with pytest.raises(ValueError):
        gibbs_run([], GibbsConfig(seed=0))


def test_mismatched_spaces_rejected():
    rankings = [
        PartialRanking([[0]], ClassSpace(size=2)),
        PartialRanking([[0]], ClassSpace(size=3)),
    ]
    with pytest.raises(ValueError):
        GibbsSampler(rankings, GibbsConfig(seed=0))


def test_two_seeds_agree_on_the_posterior_mean():
    space = ClassSpace(size=2)
    rankings = [PartialRanking([[0], [1]], space)]
    cfg_a = GibbsConfig(iterations=3000, burn_in=500, seed=100)
    cfg_b = GibbsConfig(iterations=3000, burn_in=500, seed=200)
    a = gibbs_run(rankings, cfg_a).samples[:, 0]
    b = gibbs_run(rankings, cfg_b).samples[:, 0]
    se = np.sqrt(a.var() / a.size + b.var() / b.size)
    assert abs(a.mean() - b.mean()) < 3 * se


def test_run_is_deterministic_given_seed(derm_rankings):
    cfg = GibbsConfig(iterations=60, burn_in=20, seed=77)
    assert_array_equal(
        gibbs_run(derm_rankings, cfg).samples, gibbs_run(derm_rankings, cfg).samples
    )


def test_emitted_samples_are_normalized_with_provenance(derm_rankings):
    cfg = GibbsConfig(iterations=40, burn_in=10, thinning=3, repetitions=2, seed=1)
    out = gibbs_run(derm_rankings, cfg)
    assert out.model == "pl-gibbs"
    assert out.reliability == 2
    assert out.seed == 1
    assert out.num_samples == cfg.num_retained
    assert_allclose(out.samples.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out.samples >= 0)


class _ReferenceSampler:
    """The full-K race the sampler replaced, as one plain array call per
    step: every copy draws a race key and an arrival time for every class
    each sweep, sorts the keys behind its ranked classes, walks each tied
    block with the reference walk, and censors every arrival at its
    horizon. The sampler draws its latents at ranked positions only, so it
    must match this chain's posterior in distribution, not draw for draw."""

    def __init__(self, rankings, config, class_space):
        k, reps = class_space.size, config.repetitions
        self.config, self.num_classes = config, k
        head, free = np.zeros((len(rankings), k)), np.zeros((len(rankings), k), dtype=bool)
        num_ranked = np.zeros(len(rankings), dtype=np.int64)
        self.ranked_counts = np.zeros(k)
        self.ties = []  # (rows, members, first position, classes ranked up to it)
        for g, ranking in enumerate(rankings):
            parts = ranking.partition()
            blocks = [np.array(sorted(b)) for b in parts[:-1]]
            ranked_ids = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
            num_ranked[g] = ranked_ids.size
            self.ranked_counts[ranked_ids] += reps
            head[g, ranked_ids] = np.arange(ranked_ids.size) - k
            free[g, list(parts[-1])] = True
            end = 0
            for members in blocks:
                end += members.size
                if members.size > 1:
                    rows = slice(g * reps, (g + 1) * reps)
                    self.ties.append((rows, members, end - members.size, ranked_ids[:end]))
        self.head_keys = np.repeat(head, reps, axis=0)
        self.free = np.repeat(free, reps, axis=0)
        self.num_ranked = np.repeat(num_ranked, reps)
        self.rows = np.arange(self.num_ranked.size)
        self.rng = np.random.default_rng(config.seed)
        self.lam = self.rng.gamma(config.alpha, 1.0 / config.beta, size=k)

    def sweep(self):
        cfg, lam = self.config, self.lam
        rate = np.full(self.num_classes, cfg.beta)
        if self.rows.size:
            keys = self.rng.standard_exponential(self.free.shape) / lam
            sigmas = np.where(self.free, keys, self.head_keys).argsort(1)
            total = lam.sum()
            for rows, members, start, above in self.ties:
                values, _, _ = _table_values(lam[members], float(total - lam[above].sum()))
                uniforms = self.rng.random((rows.stop - rows.start, members.size - 1))
                sigmas[rows, start : start + members.size] = _reference_block_orders(
                    uniforms, values, members
                )
            rates = lam[sigmas][:, ::-1].cumsum(1)[:, ::-1]
            arrivals = self.rng.standard_exponential(sigmas.shape) / rates
            taus = np.empty(sigmas.shape)
            taus[self.rows[:, None], sigmas] = arrivals.cumsum(1)
            last = sigmas[self.rows, self.num_ranked - 1]
            horizon = taus[self.rows, last] * (self.num_ranked > 0)
            rate += np.minimum(taus, horizon[:, None]).sum(0)
        shape = cfg.alpha + self.ranked_counts
        self.lam = self.rng.standard_gamma(shape) / rate

    def run(self):
        cfg = self.config
        kept = []
        for t in range(1, cfg.iterations + 1):
            self.sweep()
            if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0:
                kept.append(self.lam / self.lam.sum())
        return np.array(kept)


def _batch_means(samples, batches=20):
    """Per-class mean and its batch-means standard error."""
    means = samples[: samples.shape[0] // batches * batches].reshape(batches, -1, samples.shape[1])
    means = means.mean(axis=1)
    return samples.mean(axis=0), means.std(axis=0, ddof=1) / np.sqrt(batches)


# (class count, annotations' blocks): untied, a leading tie, ties mid-ranking
# and at its end, an annotation that ranked nothing.
_POSTERIOR_CASES = {
    "untied-K4": (4, [[[0], [1]], [[2], [0]]]),
    "untied-K12": (12, [[[3], [7], [1]], [[7], [0]], [[11]]]),
    "leading-tie-K6": (6, [[[0, 2], [1]], [[4]], []]),
    "ties-K12": (12, [[[5], [0, 9, 2], [8]], [[1], [4], [6, 10]]]),
    # ranked counts 3, 1 and 0, and a row that ranks every class
    "untied-ragged-K6": (6, [[[3], [0], [5]], [[2]], [], [[1], [4], [0], [2], [3], [5]]]),
}


@pytest.mark.parametrize("reps", [1, 3, 10])
@pytest.mark.parametrize("case", sorted(_POSTERIOR_CASES))
def test_posterior_matches_the_full_race(case, reps):
    # Drawing no latent for unranked classes leaves the weights' Markov
    # kernel as it was, so both chains have one stationary law: their means
    # agree within a batch-means bound of 5 standard errors per class.
    k, blocks = _POSTERIOR_CASES[case]
    space = ClassSpace(size=k)
    rankings = [PartialRanking(b, space) for b in blocks]
    cfg = GibbsConfig(iterations=4500, burn_in=500, repetitions=reps, seed=reps)
    got, got_se = _batch_means(gibbs_run(rankings, cfg, class_space=space).samples)
    ref_cfg = GibbsConfig(iterations=4500, burn_in=500, repetitions=reps, seed=100 + reps)
    ref, ref_se = _batch_means(_ReferenceSampler(rankings, ref_cfg, space).run())
    assert (np.abs(got - ref) < 5 * np.hypot(got_se, ref_se)).all()


# (class count, annotations' blocks) where every annotation ranks as many
# classes as every other and ties none.
_EQUAL_COUNTS = {
    "K4": (4, [[[0], [1]], [[2], [0]]]),
    "K12": (12, [[[3], [7], [1]], [[7], [0], [11]], [[11], [2], [5]]]),
    "every-class": (5, [[[1], [4], [0], [2], [3]], [[3], [2], [4], [0], [1]]]),
    "no-annotations": (7, []),
}


@pytest.mark.parametrize("case", sorted(_EQUAL_COUNTS))
def test_collapsed_chain_draws_the_per_copy_stream_at_one_repetition(case):
    # At one repetition with no padded position, the P position sums of
    # shape 1 are the per-copy chain's interarrival exponentials, draw for
    # draw: the chains differ only in the order they add up the same
    # numbers.
    k, blocks = _EQUAL_COUNTS[case]
    space = ClassSpace(size=k)
    rankings = [PartialRanking(b, space) for b in blocks]
    cfg = GibbsConfig(alpha=0.7, iterations=400, burn_in=100, thinning=3, seed=11)
    got = GibbsSampler(rankings, cfg, class_space=space)
    samples = got.run().samples
    per_copy, rng = _reference_loop(rankings, cfg, space)
    assert got.rng.bit_generator.state == rng.bit_generator.state
    assert_allclose(samples, per_copy, rtol=1e-12, atol=0)


def _panel(case, rng, k):
    """0 to 3 annotations: every sixth case is empty, every fourth has one
    that ranks nothing and (every eighth) one with a leading tie, every
    third ranks no ties, the rest are random."""
    space = ClassSpace(size=k)
    if case % 6 == 0:
        return [], space
    max_block = 1 if case % 3 == 0 else 4
    rankings = [random_partial_ranking(rng, space, max_blocks=3, max_block=max_block)
                for _ in range(int(rng.integers(0, 3)))]
    if case % 4 == 1:
        rankings.append(PartialRanking([], space))
        if case % 8 == 1:
            rankings.append(PartialRanking([[0, 1], [k - 1]], space))
    return rankings, space


class _CountingGenerator:
    """Forwards to a numpy Generator, counting the draw calls made."""

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator
        self.calls = 0
        self._rng = rng

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return draw(*args, **kwargs)

        return counted


def _loop_draws(rankings, cfg, space):
    """Per-sweep draw sizes, read from the rankings alone: the tied walks'
    uniforms, the (copies, longest ranked count) interarrival times and the
    weights' Gamma shapes."""
    reps = cfg.repetitions
    parts = [r.partition()[:-1] for r in rankings]
    walk = reps * sum(len(b) - 1 for blocks in parts for b in blocks if len(b) > 1)
    width = max((sum(map(len, blocks)) for blocks in parts), default=0)
    shape = np.full(space.size, cfg.alpha)
    for blocks in parts:
        for b in blocks:
            shape[list(b)] += reps
    return walk, (len(rankings) * reps, width), shape


def _sweep_draws_size(rankings, cfg, space):
    """Draws a sweep of an untied chain: one position sum per ranked
    position of each annotation, then the K weights' Gammas."""
    positions = sum(len(r.partition()) - 1 for r in rankings)
    return positions + space.size


def _is_tied(rankings):
    return any(len(b) > 1 for r in rankings for b in r.partition()[:-1])


def _reference_loop(rankings, cfg, space):
    """The sampler's conditionals, driven by a plain loop that makes each
    sweep's draw calls itself; returns its samples, normalized sweep by
    sweep, and its generator."""
    sampler = GibbsSampler(rankings, cfg, class_space=space)
    walk, arrival_shape, shape = _loop_draws(rankings, cfg, space)
    rng = sampler.rng
    kept = []
    for t in range(1, cfg.iterations + 1):
        sampler.sample_sigma(rng.random(walk))
        sampler.sample_tau(rng.standard_exponential(arrival_shape))
        sampler.sample_lambda(rng.standard_gamma(shape))
        if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0:
            lam = sampler.state.lam
            kept.append(lam / lam.sum())
    return np.array(kept).reshape(-1, space.size), rng


def _collapsed_loop(rankings, cfg, space):
    """The untied chain's collapsed sweep as a plain loop over sweeps, each
    making its one standard_gamma call, with U built position by position
    from the rankings; returns its samples, normalized sweep by sweep, and
    its generator."""
    k, reps = space.size, cfg.repetitions
    rows, shape = [], np.full(k, cfg.alpha)
    for r in rankings:
        *blocks, trailing = r.partition()
        ranked = [c for b in blocks for c in b]
        for position in range(len(ranked)):
            row = np.zeros(k)
            row[ranked[position:] + list(trailing)] = 1.0
            rows.append(row)
        shape[ranked] += reps
    unranked = np.array(rows).reshape(-1, k)
    sums = np.full(len(rows), float(reps))
    rng = np.random.default_rng(cfg.seed)
    lam = rng.gamma(cfg.alpha, 1.0 / cfg.beta, size=k)
    kept = []
    for t in range(1, cfg.iterations + 1):
        draws = rng.standard_gamma(np.concatenate((sums, shape)))
        z = draws[: len(rows)] / unranked.dot(lam)
        lam = draws[len(rows) :] / (z.dot(unranked) + cfg.beta)
        if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0:
            kept.append(lam / lam.sum())
    return np.array(kept).reshape(-1, k), rng


def _assert_runs_as_the_reference(rankings, cfg, space):
    """run() emits the samples of the reference loop, the conditionals' for
    a tied chain and the collapsed sweep's for an untied one, and leaves
    the generator in its state; returns the draw calls run() made."""
    got = GibbsSampler(rankings, cfg, class_space=space)
    got.rng = _CountingGenerator(got.rng)
    reference = _reference_loop if _is_tied(rankings) else _collapsed_loop
    samples, rng = reference(rankings, cfg, space)
    assert np.array_equal(got.run().samples, samples)
    assert got.rng.bit_generator.state == rng.bit_generator.state
    return got.rng.calls


def _chunked_calls(rankings, cfg, space):
    """Draw calls of an untied run: one a chunk of sweeps."""
    per_chunk = max(1, pl_gibbs._CHUNK_DRAWS // _sweep_draws_size(rankings, cfg, space))
    return -(-cfg.iterations // per_chunk)


@pytest.mark.parametrize("case", range(30))
def test_sampler_draws_as_the_reference_conditionals(case, monkeypatch):
    # K runs over 2..12
    rng = np.random.default_rng(1000 + case)
    k = 2 + (7 * case) % 11
    rankings, space = _panel(case, rng, k)
    cfg = GibbsConfig(
        alpha=(0.3, 1.0, 2.5)[case % 3],
        beta=(1.0, 0.4, 2.5)[case // 3 % 3],
        iterations=12,
        burn_in=case % 4,
        thinning=1 + case % 2,
        repetitions=DEFAULT_REPETITION_GRID[case % 5],
        seed=case,
    )
    if _is_tied(rankings):
        # _sweep_draws hands each conditional the draws of the plain calls,
        # and the conditionals move both chains alike, step by step
        got = GibbsSampler(rankings, cfg, class_space=space)
        ref = GibbsSampler(rankings, cfg, class_space=space)
        walk, arrival_shape, shape = _loop_draws(rankings, cfg, space)
        for uniforms, arrivals, gammas in got._sweep_draws(4):
            plain = (
                ref.rng.random(walk),
                ref.rng.standard_exponential(arrival_shape),
                ref.rng.standard_gamma(shape),
            )
            for name, draws, expected in zip(
                ("sample_sigma", "sample_tau", "sample_lambda"),
                (uniforms, arrivals, gammas),
                plain,
            ):
                assert np.array_equal(draws, expected)
                getattr(got, name)(draws)
                getattr(ref, name)(expected)
                for field in ("lam", "sigmas", "taus"):
                    assert np.array_equal(getattr(got.state, field), getattr(ref.state, field))
        assert got.rng.bit_generator.state == ref.rng.bit_generator.state
        assert _assert_runs_as_the_reference(rankings, cfg, space) == 3 * cfg.iterations
        return
    # An untied chain runs the collapsed sweep, one draw call a chunk of
    # sweeps; chunks of 1 to 5 sweeps, so most chains end on a partial one.
    assert _assert_runs_as_the_reference(rankings, cfg, space) == _chunked_calls(
        rankings, cfg, space
    )
    sweep_draws = _sweep_draws_size(rankings, cfg, space)
    monkeypatch.setattr(pl_gibbs, "_CHUNK_DRAWS", sweep_draws * (1 + case % 5))
    calls = _assert_runs_as_the_reference(rankings, cfg, space)
    assert calls == _chunked_calls(rankings, cfg, space) == -(-cfg.iterations // (1 + case % 5))


def _untied(k, annotations):
    space = ClassSpace(size=k)
    return [PartialRanking([[i % k], [(i + 1) % k]], space) for i in range(annotations)], space


# (rankings, space, draw calls a sweep, or None where run() draws the
# chain's stream in chunks)
_CHAINS = {
    "untied-K4": (*_untied(4, 2), None),
    "untied-K12": (*_untied(12, 3), None),
    "ranked-nothing": (
        [PartialRanking([[3], [1]], ClassSpace(size=10)), PartialRanking([], ClassSpace(size=10))],
        ClassSpace(size=10),
        None,
    ),
    "no-annotations": ([], ClassSpace(size=9), None),
    # Every tied walk's uniforms, arrivals, Gammas.
    "tied": (
        [PartialRanking([[0, 2], [1]], ClassSpace(size=5)), PartialRanking([[4]], ClassSpace(size=5))],
        ClassSpace(size=5),
        3,
    ),
    "ends-tied": (
        [PartialRanking([[1], [0, 2]], ClassSpace(size=5)), PartialRanking([[4]], ClassSpace(size=5))],
        ClassSpace(size=5),
        3,
    ),
    # Three ties over two annotations share the sweep's one uniform call.
    "tied-thrice": (
        [
            PartialRanking([[0, 2], [1], [3, 4], [5]], ClassSpace(size=10)),
            PartialRanking([[5, 1, 3], [0]], ClassSpace(size=10)),
        ],
        ClassSpace(size=10),
        3,
    ),
    # 2 annotations over 1,200 classes: 2 * 2 + 1,200 draws a sweep. At 10
    # repetitions the per-copy sweep drew 20 * 2 + 1,200 = 1,240, above a
    # cut of 1,200 that once sent such chains to per-sweep draws.
    "above-threshold": (*_untied(1200, 2), None),
}


@pytest.mark.parametrize("chunk_sweeps", [1, 4, None])
@pytest.mark.parametrize("thinning", [1, 2])
@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_run_draws_as_the_reference_loop(chain, thinning, chunk_sweeps, monkeypatch):
    rankings, space, sweep_calls = _CHAINS[chain]
    reps_grid = (10,) if chain == "above-threshold" else DEFAULT_REPETITION_GRID
    for reps in reps_grid:
        cfg = GibbsConfig(
            alpha=0.7, iterations=13, burn_in=3, thinning=thinning, repetitions=reps, seed=reps
        )
        assert _is_tied(rankings) == (sweep_calls is not None)
        if chunk_sweeps is not None:
            sweep_draws = _sweep_draws_size(rankings, cfg, space)
            monkeypatch.setattr(pl_gibbs, "_CHUNK_DRAWS", sweep_draws * chunk_sweeps)
        calls = _assert_runs_as_the_reference(rankings, cfg, space)
        if sweep_calls is None:
            assert calls == _chunked_calls(rankings, cfg, space)
        else:
            assert calls == sweep_calls * cfg.iterations


def test_every_zbar_the_sampler_forms_is_non_negative(monkeypatch):
    # One or two unranked weights in [1e-30, 1e-14] and a tie among the
    # ranked classes: zbar taken as the total less the mass ranked up to a
    # tied block rounds below zero on many of these cases, while adding up
    # the masses below the block cannot.
    zbars = []

    def recording(w, zbar):
        zbars.append(zbar)
        return _table_values(w, zbar)

    monkeypatch.setattr(pl_gibbs, "_table_values", recording)
    rng = np.random.default_rng(38)
    negative_differences = 0
    for case in range(2000):
        k = int(rng.integers(3, 13))
        space = ClassSpace(size=k)
        order = rng.permutation(k).tolist()
        unranked = min(int(rng.integers(1, 3)), k - 2)
        ranked = order[unranked:]
        lam = rng.uniform(0.0, 1.0, size=k)
        lam[order[:unranked]] = 10.0 ** rng.uniform(-30, -14, size=unranked)
        # a tie of 2 or more somewhere in the ranked order, at the top every
        # third case; single blocks elsewhere
        size = int(rng.integers(2, len(ranked) + 1))
        start = 0 if case % 3 == 0 else int(rng.integers(0, len(ranked) - size + 1))
        blocks = [[c] for c in ranked[:start]] + [ranked[start : start + size]]
        blocks += [[c] for c in ranked[start + size :]]
        end = start + size
        negative_differences += float(lam.sum() - lam[ranked[:end]].sum()) < 0
        sampler = GibbsSampler([PartialRanking(blocks, space)], GibbsConfig(seed=case))
        sampler.state.lam = lam
        uniforms, _, _ = next(sampler._sweep_draws(1))
        sampler.sample_sigma(uniforms)
    assert len(zbars) == 2000
    assert negative_differences > 0
    assert min(zbars) >= 0.0


@pytest.mark.parametrize("seed", range(8))
def test_numpy_draws_a_shape_one_gamma_as_its_exponential(seed):
    # At one repetition the collapsed chain draws the per-copy chain's stream
    # by this numpy rule: an array standard_gamma call whose shapes are 1.0
    # then the weights' shapes draws, in order, what a standard_exponential
    # call followed by scalar standard_gamma calls draws, and leaves the
    # generator in the same state.
    rng = np.random.default_rng(seed)
    positions, k, sweeps = int(rng.integers(0, 40)), int(rng.integers(2, 13)), 7
    # Shapes below, at and above 1 take numpy's three Gamma branches.
    shape = (0.3, 1.0, 2.5)[seed % 3] + rng.integers(0, 3, size=k)
    pattern = np.ones((sweeps, positions + k))
    pattern[:, positions:] = shape
    ref = np.random.default_rng(seed)
    expected = []
    for _ in range(sweeps):
        expected.append(ref.standard_exponential(positions))
        expected.append([ref.standard_gamma(a) for a in shape])
    expected = np.concatenate(expected).reshape(pattern.shape)
    for chunk in (sweeps, 1, 2, 3):
        got = np.random.default_rng(seed)
        draws = np.concatenate(
            [got.standard_gamma(pattern[s : s + chunk]) for s in range(0, sweeps, chunk)]
        )
        assert np.array_equal(draws, expected)
        assert got.bit_generator.state == ref.bit_generator.state
