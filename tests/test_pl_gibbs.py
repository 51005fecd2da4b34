from bisect import bisect_right
from itertools import accumulate, permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from plaus import pl_gibbs
from plaus.pl_gibbs import DEFAULT_REPETITION_GRID, GibbsConfig, GibbsSampler, gibbs_run
from plaus.pl_likelihood import MAX_BLOCK_SIZE, BlockTooLargeError, _table_values
from plaus.rankings import ClassSpace, PartialRanking
from plaus.sim_oracle import grid_posterior_oracle, random_partial_ranking


def make_sampler(blocks, k, **cfg):
    space = ClassSpace(size=k)
    rankings = [PartialRanking(b, space) for b in blocks]
    return GibbsSampler(rankings, GibbsConfig(**cfg))


def test_config_validation():
    for alpha in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha"):
            GibbsConfig(alpha=alpha)
    for iterations in (100, 0):
        with pytest.raises(ValueError, match="iterations must exceed burn_in"):
            GibbsConfig(iterations=iterations, burn_in=100)
    with pytest.raises(ValueError):
        GibbsConfig(thinning=0)
    # a zero thinning leaves no sweep past the burn-in, and is named first
    with pytest.raises(ValueError, match="thinning"):
        GibbsConfig(iterations=500, burn_in=500, thinning=0)
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


def _weight_update(sampler, z):
    """The weights' Gamma shapes and rates given latents ``z``: the update
    with unit draws leaves lambda at one over the rate."""
    sampler.state.z = np.array(z, dtype=float)
    sampler.sample_lambda(np.ones(sampler.num_classes))
    return sampler._shapes[len(z) :], 1.0 / sampler.state.lam


def _tie_orders(sampler, tie=0):
    """Each copy's ordering of a tie, read from its rows of U: a member's
    place is the number of the tie's later rows that leave it unranked.
    Checks first that the rows hold an ordering: the i-th leaves n - 1 - i
    members unranked, each one the row above left unranked."""
    rows, members, _ = sampler._ties[tie]
    left = sampler.state.unranked[rows][:, :, members]
    places = np.arange(members.size - 1, 0, -1)
    assert_array_equal(left.sum(axis=2), np.broadcast_to(places, rows.shape))
    assert (np.diff(left, axis=1) <= 0).all()
    return members[np.argsort(left.sum(axis=1), axis=1)]


def test_weight_update_for_a_ranked_class():
    # one annotator ranked class 0 first; its latent of 1.0 is the horizon
    sampler = make_sampler([[[0]]], k=2, seed=0)
    assert_array_equal(sampler.state.unranked, [[1.0, 1.0]])
    shape, rate = _weight_update(sampler, [1.0])
    assert_allclose(shape, [2.0, 1.0])
    assert_allclose(rate, [2.0, 2.0])


def test_weight_update_censors_the_unranked_class():
    # unranked class alive past the horizon 0.7 contributes Gamma(1, 1.7)
    sampler = make_sampler([[[0]]], k=2, seed=0)
    shape, rate = _weight_update(sampler, [0.7])
    assert_allclose(shape, [2.0, 1.0])
    assert_allclose(rate, [1.7, 1.7])


def test_weight_update_accumulates_over_annotations():
    sampler = make_sampler([[[0]], [[1], [0]]], k=3, seed=0)
    # the first annotation ranked one class, so it has one row; the second
    # leaves class 1 behind after its first position
    assert_array_equal(sampler.state.unranked, [[1, 1, 1], [1, 1, 1], [1, 0, 1]])
    # arrivals 0.5 (its horizon) and 0.2, 0.6 (horizon 0.6) as latents
    shape, rate = _weight_update(sampler, [0.5, 0.2, 0.4])
    # class 0 ranked by both; class 1 ranked only by the second annotator
    assert_allclose(shape, [3.0, 2.0, 1.0])
    assert_allclose(rate, [1.0 + 0.5 + 0.6, 1.0 + 0.5 + 0.2, 1.0 + 0.5 + 0.6])


def test_weight_update_matches_a_per_annotation_loop():
    # the rate sum over all rows at once equals the loop over annotations
    # and copies, an annotation that ranked nothing contributing zero
    sampler = make_sampler([[[2], [0, 1]], [], [[3]]], k=4, repetitions=3, seed=4)
    for _ in sampler._sweeps(5):
        pass
    z = sampler.state.z
    orders = _tie_orders(sampler)
    assert z.shape == (6,) and sampler.state.unranked.shape == (6, 4)
    assert_allclose(sampler._shapes[:6], [3, 3, 1, 1, 1, 3])
    expected = np.full(4, 1.0)
    # the first annotation: its shared rows at class 2 and at the tie's
    # first position, then one row a copy at the tie's second; class 3 is
    # its trailing block
    expected[[2, 0, 1, 3]] += z[0]
    expected[[0, 1, 3]] += z[1]
    for copy in range(3):
        expected[[orders[copy, 1], 3]] += z[2 + copy]
    # the third annotation's one row
    expected += z[5]
    _, rate = _weight_update(sampler, z)
    assert_allclose(rate, expected, rtol=1e-12)


def test_shapes_untouched_for_never_ranked_classes():
    sampler = make_sampler([[[0]]], k=3, alpha=2.0, seed=0)
    assert_allclose(sampler.ranked_counts, [1.0, 0.0, 0.0])
    # the one row's shape, then the weights'
    assert_allclose(sampler._shapes, [1.0, 3.0, 2.0, 2.0])


def test_repetitions_duplicate_annotations():
    base = make_sampler([[[0]], [[1]]], k=3, seed=0)
    doubled = make_sampler([[[0]], [[1]]], k=3, repetitions=2, seed=0)
    assert_allclose(doubled.ranked_counts, 2 * base.ranked_counts)
    # untied copies share their rows, whose latents sum theirs
    assert_array_equal(doubled.state.unranked, base.state.unranked)
    assert_allclose((base._shapes[:2], doubled._shapes[:2]), [[1, 1], [2, 2]])
    # a tie's later positions take one row a copy
    tied = make_sampler([[[0, 1]]], k=3, repetitions=2, seed=0)
    assert_array_equal(tied.state.unranked, [[1, 1, 1], [0, 1, 1], [0, 1, 1]])
    assert_allclose(tied._shapes[:3], [2, 1, 1])


def test_arrivals_increase_along_the_ordering():
    sampler = make_sampler([[[2], [0, 1]]], k=4, seed=5)
    for _ in sampler._sweeps(25):
        # the arrival times are the latents' running sums
        assert np.all(sampler.state.z > 0)
        (order,) = _tie_orders(sampler)
        assert sorted(order.tolist()) == [0, 1]
        # the ranked top stays on top, ahead of the tie
        assert_array_equal(sampler.state.unranked[:2], [[1, 1, 1, 1], [1, 1, 0, 1]])
        assert_array_equal(sampler.state.unranked[2], np.isin(range(4), [order[1], 3]))


def test_first_arrival_rate_is_total_mass():
    sampler = make_sampler([[[0]]], k=2, seed=8)
    lam = np.array([1.5, 2.5])
    sampler.state.lam = lam
    firsts = []
    for _ in range(4000):
        sampler.sample_tau(sampler.rng.standard_gamma(sampler._shapes[:1]))
        firsts.append(sampler.state.z[0])
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
    for _ in range(n):
        sampler.sample_sigma(sampler.rng.random(1))
        hits += _tie_orders(sampler)[0, 0] == 0
    se = np.sqrt(p_first * (1 - p_first) / n)
    assert abs(hits / n - p_first) < 4 * se


def test_copies_draw_their_block_orders_independently():
    # 400 copies of one tie share a subset table but not their draws
    sampler = make_sampler([[[0, 1]]], k=3, repetitions=400, seed=13)
    lam = np.array([1.0, 2.0, 0.5])
    sampler.state.lam = lam
    p_first = (1 / (0.5 + 2.0)) / (1 / (0.5 + 2.0) + 1 / (0.5 + 1.0))
    sampler.sample_sigma(sampler.rng.random(400))
    firsts = _tie_orders(sampler)[:, 0]
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
    sampler.sample_sigma(sampler.rng.random(2000 * 7))
    # the tie's first position is shared, each later one a row a copy
    assert sampler.state.unranked.shape == (1 + 2000 * 7, k)
    firsts = _tie_orders(sampler)[:, 0]
    freq = np.bincount(firsts, minlength=8) / 2000
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


def test_lambda_requires_the_latents_first():
    sampler = make_sampler([[[0, 1]]], k=3, seed=0)
    # U starts as an ordering, the tie's ids ascending, so the latents
    # need no ordering pass first
    assert_array_equal(_tie_orders(sampler), [[0, 1]])
    with pytest.raises(RuntimeError):
        sampler.sample_lambda(np.ones(3))
    sampler.sample_tau(np.ones(2))
    sampler.sample_lambda(np.ones(3))


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


def test_emitted_samples_are_normalized(derm_rankings):
    cfg = GibbsConfig(iterations=40, burn_in=10, thinning=3, repetitions=2, seed=1)
    out = gibbs_run(derm_rankings, cfg)
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
        self.lam = self.rng.gamma(config.alpha, 1.0, size=k)

    def sweep(self):
        cfg, lam = self.config, self.lam
        rate = np.full(self.num_classes, 1.0)
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
    # two ties in one annotation; ranked counts 7, 1 and 0
    "two-ties-ragged-K8": (8, [[[6, 1], [3], [0, 7, 4], [5]], [[2]], []]),
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
    per_copy, rng = _per_copy_loop(rankings, cfg, space)
    assert got.rng.bit_generator.state == rng.bit_generator.state
    assert_allclose(samples, per_copy, rtol=1e-12, atol=0)


def _per_copy_loop(rankings, cfg, space):
    """The per-copy chain of untied rankings at one repetition, as plain
    loops: each sweep draws every copy's interarrival exponentials in one
    call, then the weights' Gammas, and adds each copy's arrival time at a
    class's position, or its horizon where the class is in its trailing
    block, into the class's rate. Returns its samples, normalized sweep by
    sweep, and its generator."""
    k = space.size
    ranked = [[c for b in r.partition()[:-1] for c in b] for r in rankings]
    trailing = [list(r.partition()[-1]) for r in rankings]
    shape = np.full(k, cfg.alpha)
    for order in ranked:
        shape[order] += 1
    rng = np.random.default_rng(cfg.seed)
    lam = rng.gamma(cfg.alpha, 1.0, size=k)
    kept = []
    for t in range(1, cfg.iterations + 1):
        arrivals = rng.standard_exponential((len(ranked), max(map(len, ranked), default=0)))
        rate = np.full(k, 1.0)
        for order, rest, draws in zip(ranked, trailing, arrivals):
            tau = 0.0
            for j, c in enumerate(order):
                tau += draws[j] / lam[order[j:] + rest].sum()
                rate[c] += tau
            rate[rest] += tau
        lam = rng.standard_gamma(shape) / rate
        if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0:
            kept.append(lam / lam.sum())
    return np.array(kept).reshape(-1, k), rng


# (class count, annotations' blocks) with a tie, small enough for the exact
# grid posterior.
_GRID_CASES = {
    "one-tie": (3, [[[0, 1]]]),
    "tie-and-untied": (3, [[[1, 2], [0]], [[0], [2]]]),
}


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("case", sorted(_GRID_CASES))
def test_tied_chains_match_the_grid_oracle(case, reps):
    # Within criterion 03's tolerance of the exact posterior; the grid sees
    # each annotation once per copy. Its mean moves by under 1e-4 from
    # resolution 240 to 120 on these cases.
    k, blocks = _GRID_CASES[case]
    space = ClassSpace(size=k)
    rankings = [PartialRanking(b, space) for b in blocks]
    oracle = grid_posterior_oracle(rankings * reps, alpha=1.0, resolution=120)
    cfg = GibbsConfig(iterations=5500, burn_in=500, repetitions=reps, seed=30 + reps)
    got = gibbs_run(rankings, cfg).samples.mean(axis=0)
    assert np.abs(got - oracle.mean).max() < 0.02


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


class _PlainSweep:
    """The sweep as plain loops over the rankings: every copy's ties walked
    with the reference walk, then U rebuilt position by position from the
    copies' orderings, then z and the weights. A chunk of sweeps, as many
    as ``_CHUNK_DRAWS`` holds, makes one ``random`` call for their walk
    uniforms and one ``standard_gamma`` call for their Gammas: per sweep, a
    shape of ``repetitions`` for each shared row, 1 for each copy's row at
    a tie's later position, then the weights' shapes."""

    def __init__(self, rankings, cfg, space):
        k, reps = space.size, cfg.repetitions
        self.cfg, self.k = cfg, k
        self.annotations = []  # (non-trailing blocks, trailing block), ids ascending
        self.orders = []  # each copy's current ordering of each block
        shapes, weights = [], np.full(k, cfg.alpha)
        for r in rankings:
            *blocks, trailing = [sorted(b) for b in r.partition()]
            self.annotations.append((blocks, trailing))
            self.orders.append([list(blocks) for _ in range(reps)])
            for block in blocks:
                weights[block] += reps
                shapes += [reps] + [1] * (reps * (len(block) - 1))
        self.walk = sum(reps * (len(b) - 1) for blocks, _ in self.annotations for b in blocks)
        self.shape = np.array(shapes + weights.tolist(), dtype=float)
        self.sweep_draws = self.walk + self.shape.size
        self.rng = np.random.default_rng(cfg.seed)
        self.lam = self.rng.gamma(cfg.alpha, 1.0, size=k)

    def unranked(self):
        """U, row by row: per annotation and block, the block's first
        position, shared by the copies, then for a tie each copy's later
        positions. A row holds the classes ranked at its position or later,
        or in the trailing block."""
        rows = []
        for (blocks, trailing), copies in zip(self.annotations, self.orders):
            for b, block in enumerate(blocks):
                after = [c for later in blocks[b + 1 :] for c in later] + trailing
                rows.append(block + after)
                for copy in copies if len(block) > 1 else ():
                    rows += [copy[b][i:] + after for i in range(1, len(block))]
        u = np.zeros((len(rows), self.k))
        for row, classes in zip(u, rows):
            row[classes] = 1.0
        return u

    def walk_ties(self, uniforms):
        lam, end = self.lam, 0
        for (blocks, trailing), copies in zip(self.annotations, self.orders):
            for b, block in enumerate(blocks):
                if len(block) > 1:
                    after = [c for later in blocks[b + 1 :] for c in later] + trailing
                    values, _, _ = _table_values(lam[block], float(lam[after].sum()))
                    begin, end = end, end + len(copies) * (len(block) - 1)
                    walks = uniforms[begin:end].reshape(len(copies), len(block) - 1)
                    for copy, order in zip(
                        copies, _reference_block_orders(walks, values, np.array(block))
                    ):
                        copy[b] = order.tolist()

    def sweeps(self, sweeps):
        """Yield each sweep's (walk uniforms, Gammas, U, z, weights)."""
        per_chunk = max(1, pl_gibbs._CHUNK_DRAWS // self.sweep_draws)
        for start in range(0, sweeps, per_chunk):
            count = min(per_chunk, sweeps - start)
            walks = self.rng.random((count, self.walk))
            gammas = self.rng.standard_gamma(np.tile(self.shape, (count, 1)))
            for uniforms, draws in zip(walks, gammas):
                self.walk_ties(uniforms)
                u = self.unranked()
                z = draws[: len(u)] / u.dot(self.lam)
                self.lam = draws[len(u) :] / (z.dot(u) + 1.0)
                yield uniforms, draws, u, z, self.lam


def _assert_runs_as_the_reference(rankings, cfg, space):
    """run() emits the plain sweep's samples, normalized sweep by sweep,
    and leaves the generator in its state; returns the draw calls run()
    made."""
    got = GibbsSampler(rankings, cfg, class_space=space)
    got.rng = _CountingGenerator(got.rng)
    ref = _PlainSweep(rankings, cfg, space)
    kept = [
        lam / lam.sum()
        for t, (*_, lam) in enumerate(ref.sweeps(cfg.iterations), 1)
        if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0
    ]
    assert np.array_equal(got.run().samples, np.array(kept).reshape(-1, space.size))
    assert got.rng.bit_generator.state == ref.rng.bit_generator.state
    return got.rng.calls


def _chunked_calls(rankings, cfg, space):
    """Draw calls of a run: a random and a standard_gamma call a chunk of
    sweeps."""
    per_chunk = max(1, pl_gibbs._CHUNK_DRAWS // _PlainSweep(rankings, cfg, space).sweep_draws)
    return 2 * -(-cfg.iterations // per_chunk)


@pytest.mark.parametrize("case", range(30))
def test_sampler_draws_as_the_reference_conditionals(case, monkeypatch):
    # K runs over 2..12
    rng = np.random.default_rng(1000 + case)
    k = 2 + (7 * case) % 11
    rankings, space = _panel(case, rng, k)
    cfg = GibbsConfig(
        alpha=(0.3, 1.0, 2.5)[case % 3],
        iterations=12,
        burn_in=case % 4,
        thinning=1 + case % 2,
        repetitions=DEFAULT_REPETITION_GRID[case % 5],
        seed=case,
    )
    # Given the plain sweep's draws, the conditionals move U, z and the
    # weights as it does, sweep by sweep.
    got = GibbsSampler(rankings, cfg, class_space=space)
    ref = _PlainSweep(rankings, cfg, space)
    assert np.array_equal(got.state.unranked, ref.unranked())
    rows = len(got.state.unranked)
    for uniforms, draws, u, z, lam in ref.sweeps(cfg.iterations):
        got.sample_sigma(uniforms)
        got.sample_tau(draws[:rows])
        got.sample_lambda(draws[rows:])
        for field, expected in (("unranked", u), ("z", z), ("lam", lam)):
            assert np.array_equal(getattr(got.state, field), expected)
    # run() draws as the plain sweep at the default chunk and at chunks of
    # 1 to 5 sweeps, so most chains end on a partial one.
    assert _assert_runs_as_the_reference(rankings, cfg, space) == _chunked_calls(
        rankings, cfg, space
    )
    chunk = 1 + case % 5
    monkeypatch.setattr(pl_gibbs, "_CHUNK_DRAWS", ref.sweep_draws * chunk)
    calls = _assert_runs_as_the_reference(rankings, cfg, space)
    assert calls == _chunked_calls(rankings, cfg, space) == 2 * -(-cfg.iterations // chunk)


def _untied(k, annotations):
    space = ClassSpace(size=k)
    return [PartialRanking([[i % k], [(i + 1) % k]], space) for i in range(annotations)], space


_CHAINS = {
    "untied-K4": _untied(4, 2),
    "untied-K12": _untied(12, 3),
    "ranked-nothing": (
        [PartialRanking([[3], [1]], ClassSpace(size=10)), PartialRanking([], ClassSpace(size=10))],
        ClassSpace(size=10),
    ),
    "no-annotations": ([], ClassSpace(size=9)),
    "tied": (
        [PartialRanking([[0, 2], [1]], ClassSpace(size=5)), PartialRanking([[4]], ClassSpace(size=5))],
        ClassSpace(size=5),
    ),
    "ends-tied": (
        [PartialRanking([[1], [0, 2]], ClassSpace(size=5)), PartialRanking([[4]], ClassSpace(size=5))],
        ClassSpace(size=5),
    ),
    # Three ties over two annotations share each chunk's one random call.
    "tied-thrice": (
        [
            PartialRanking([[0, 2], [1], [3, 4], [5]], ClassSpace(size=10)),
            PartialRanking([[5, 1, 3], [0]], ClassSpace(size=10)),
        ],
        ClassSpace(size=10),
    ),
    # 2 annotations over 1,200 classes: 2 * 2 + 1,200 draws a sweep. At 10
    # repetitions the per-copy sweep drew 20 * 2 + 1,200 = 1,240, above a
    # cut of 1,200 that once sent such chains to per-sweep draws.
    "above-threshold": _untied(1200, 2),
}


@pytest.mark.parametrize("chunk_sweeps", [1, 4, None])
@pytest.mark.parametrize("thinning", [1, 2])
@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_run_draws_as_the_reference_loop(chain, thinning, chunk_sweeps, monkeypatch):
    rankings, space = _CHAINS[chain]
    reps_grid = (10,) if chain == "above-threshold" else DEFAULT_REPETITION_GRID
    for reps in reps_grid:
        cfg = GibbsConfig(
            alpha=0.7, iterations=13, burn_in=3, thinning=thinning, repetitions=reps, seed=reps
        )
        if chunk_sweeps is not None:
            sweep_draws = _PlainSweep(rankings, cfg, space).sweep_draws
            monkeypatch.setattr(pl_gibbs, "_CHUNK_DRAWS", sweep_draws * chunk_sweeps)
        calls = _assert_runs_as_the_reference(rankings, cfg, space)
        assert calls == _chunked_calls(rankings, cfg, space)


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
        sampler.sample_sigma(sampler.rng.random(size - 1))
    assert len(zbars) == 2000
    assert negative_differences > 0
    assert min(zbars) >= 0.0


@pytest.mark.parametrize("seed", range(8))
def test_numpy_draws_a_shape_one_gamma_as_its_exponential(seed):
    # At one repetition an untied chain draws the per-copy chain's stream by
    # this numpy rule: an array standard_gamma call whose shapes are 1.0
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


@pytest.mark.parametrize("seed", range(3))
def test_numpy_draws_nothing_on_an_empty_call(seed):
    # An untied chain's random call asks for no walk uniforms each chunk; it
    # keeps the stream it drew without that call by this numpy rule: a
    # size-0 random or standard_gamma call leaves the generator as it was.
    rng = np.random.default_rng(seed)
    rng.random(seed)
    rng.standard_gamma(0.5)
    state = rng.bit_generator.state
    for draw in (rng.random, lambda size: rng.standard_gamma(np.ones(size))):
        for size in (0, (0,), (6, 0), (0, 4)):
            assert draw(size).size == 0
            assert rng.bit_generator.state == state
