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


def test_retained_count_arithmetic():
    assert GibbsConfig(iterations=2000, burn_in=500).num_retained == 1500
    assert GibbsConfig(iterations=505, burn_in=500, thinning=2).num_retained == 3
    assert GibbsConfig(iterations=506, burn_in=500, thinning=2).num_retained == 3


def test_default_grid():
    assert DEFAULT_REPETITION_GRID == (1, 2, 3, 5, 10)


def test_weight_update_for_a_ranked_class():
    # one annotator ranked class 0 first; its arrival of 1.0 is the horizon
    sampler = make_sampler([[[0]]], k=2, seed=0)
    sampler.state.sigmas = np.array([[0, 1]])
    sampler.state.taus = np.array([[1.0, 1.5]])
    shape, rate = sampler._posterior_gamma_params()
    assert_allclose(shape, [2.0, 1.0])
    assert_allclose(rate, [2.0, 2.0])


def test_weight_update_censors_the_unranked_class():
    # unranked class alive past the horizon 0.7 contributes Gamma(1, 1.7)
    sampler = make_sampler([[[0]]], k=2, seed=0)
    sampler.state.sigmas = np.array([[0, 1]])
    sampler.state.taus = np.array([[0.7, 0.9]])
    shape, rate = sampler._posterior_gamma_params()
    assert_allclose(shape, [2.0, 1.0])
    assert_allclose(rate, [1.7, 1.7])


def test_weight_update_accumulates_over_annotations():
    sampler = make_sampler([[[0]], [[1], [0]]], k=3, seed=0)
    sampler.state.sigmas = np.array([[0, 1, 2], [1, 0, 2]])
    sampler.state.taus = np.array([[0.5, 0.8, 1.1], [0.6, 0.2, 0.9]])
    shape, rate = sampler._posterior_gamma_params()
    # class 0 ranked by both; class 1 ranked only by the second annotator
    assert_allclose(shape, [3.0, 2.0, 1.0])
    # first annotation horizon 0.5, second 0.6
    assert_allclose(rate, [1.0 + 0.5 + 0.6, 1.0 + 0.5 + 0.2, 1.0 + 0.5 + 0.6])


def test_weight_update_matches_a_per_annotation_loop():
    # the rate sum over all copies at once equals the loop over annotations,
    # an annotation that ranked nothing contributing zero
    sampler = make_sampler([[[2], [0, 1]], [], [[3]]], k=4, repetitions=3, seed=4)
    for keys, uniforms, arrivals, gammas in sampler._sweep_draws(5):
        sampler.sample_sigma(keys, uniforms)
        sampler.sample_tau(arrivals)
        sampler.sample_lambda(gammas)
    keys, uniforms, arrivals, _ = next(sampler._sweep_draws(1))
    sampler.sample_sigma(keys, uniforms)
    sampler.sample_tau(arrivals)
    _, rate = sampler._posterior_gamma_params()
    expected = np.full(4, 1.0)
    assert sampler.num_ranked.tolist() == [3, 3, 3, 0, 0, 0, 1, 1, 1]
    for ranked, sigma, tau in zip(sampler.num_ranked, sampler.state.sigmas, sampler.state.taus):
        if ranked:
            expected += np.minimum(tau, tau[sigma[ranked - 1]])
    assert_allclose(rate, expected, rtol=1e-12)


def test_shapes_untouched_for_never_ranked_classes():
    sampler = make_sampler([[[0]]], k=3, alpha=2.0, seed=0)
    assert_allclose(sampler.ranked_counts, [1.0, 0.0, 0.0])
    keys, uniforms, arrivals, _ = next(sampler._sweep_draws(1))
    sampler.sample_sigma(keys, uniforms)
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
    for keys, uniforms, arrivals, gammas in sampler._sweep_draws(25):
        sampler.sample_sigma(keys, uniforms)
        sampler.sample_tau(arrivals)
        (sigma,) = sampler.state.sigmas
        (tau,) = sampler.state.taus
        assert np.all(np.diff(tau[sigma]) > 0)
        assert sigma[0] == 2  # the ranked top stays on top
        sampler.sample_lambda(gammas)


def test_first_arrival_rate_is_total_mass():
    sampler = make_sampler([[[0]]], k=2, seed=8)
    lam = np.array([1.5, 2.5])
    sampler.state.lam = lam
    firsts = []
    for keys, uniforms, arrivals, _ in sampler._sweep_draws(4000):
        sampler.sample_sigma(keys, uniforms)
        sampler.sample_tau(arrivals)
        firsts.append(min(sampler.state.taus[0]))
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
    for keys, uniforms, _, _ in sampler._sweep_draws(n):
        sampler.sample_sigma(keys, uniforms)
        hits += sampler.state.sigmas[0][0] == 0
    se = np.sqrt(p_first * (1 - p_first) / n)
    assert abs(hits / n - p_first) < 4 * se


def test_copies_draw_their_block_orders_independently():
    # 400 copies of one tie share a subset table but not their draws
    sampler = make_sampler([[[0, 1]]], k=3, repetitions=400, seed=13)
    lam = np.array([1.0, 2.0, 0.5])
    sampler.state.lam = lam
    p_first = (1 / (0.5 + 2.0)) / (1 / (0.5 + 2.0) + 1 / (0.5 + 1.0))
    keys, uniforms, _, _ = next(sampler._sweep_draws(1))
    sampler.sample_sigma(keys, uniforms)
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
    keys, uniforms, _, _ = next(sampler._sweep_draws(1))
    sampler.sample_sigma(keys, uniforms)
    sigmas = sampler.state.sigmas
    assert sigmas.shape == (2000, k)
    assert (np.sort(sigmas[:, :8], axis=1) == members).all()
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
    keys, uniforms, arrivals, gammas = next(sampler._sweep_draws(1))
    with pytest.raises(RuntimeError):
        sampler.sample_tau(arrivals)
    sampler.sample_sigma(keys, uniforms)
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


class _ReferenceSampler(GibbsSampler):
    """The three conditionals and the run loop as one plain array call each,
    with per-sweep normalization and the reference block walk: the sampler
    must draw as this does."""

    def __init__(self, rankings, config, class_space=None):
        super().__init__(rankings, config, class_space)
        k, reps = self.num_classes, self.config.repetitions
        free = np.zeros((len(rankings), k), dtype=bool)
        for g, ranking in enumerate(rankings):
            free[g, list(ranking.partition()[-1])] = True
        self.ref_free = np.repeat(free, reps, axis=0)
        self.ref_rows = np.arange(self.num_rows)

    def sample_sigma(self):
        if not self.num_rows:
            return
        lam = self.state.lam
        arrivals = self.rng.standard_exponential(self.ref_free.shape)
        arrivals /= lam
        sigmas = np.where(self.ref_free, arrivals, self._head_keys).argsort(1)
        total = lam.sum()
        for rows, members, start, above in self._ties:
            values, _, _ = _table_values(lam[members], float(total - lam[above].sum()))
            uniforms = self.rng.random((rows.stop - rows.start, members.size - 1))
            sigmas[rows, start : start + members.size] = _reference_block_orders(
                uniforms, values, members
            )
        self.state.sigmas = sigmas

    def sample_tau(self):
        if not self.num_rows:
            return
        sigmas = self.state.sigmas
        rates = self.state.lam[sigmas][:, ::-1].cumsum(1)[:, ::-1]
        arrivals = self.rng.standard_exponential(sigmas.shape)
        arrivals /= rates
        taus = np.empty(sigmas.shape)
        taus.flat[sigmas + self.ref_rows[:, None] * self.num_classes] = arrivals.cumsum(1)
        self.state.taus = taus

    def sample_lambda(self):
        shape = self.config.alpha + self.ranked_counts
        if self.num_rows:
            sigmas, taus = self.state.sigmas, self.state.taus
            last = sigmas[self.ref_rows, self.num_ranked - 1]
            horizon = taus[self.ref_rows, last] * (self.num_ranked > 0)
            rate = self.config.beta + np.minimum(taus, horizon[:, None]).sum(0)
        else:
            rate = np.full(self.num_classes, self.config.beta)
        self.state.lam = self.rng.standard_gamma(shape) * (1.0 / rate)

    def run(self):
        cfg = self.config
        kept = []
        for t in range(1, cfg.iterations + 1):
            self.sample_sigma()
            self.sample_tau()
            self.sample_lambda()
            if t > cfg.burn_in and (t - cfg.burn_in - 1) % cfg.thinning == 0:
                lam = self.state.lam
                kept.append(lam / lam.sum())
        return np.array(kept)


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


def _assert_runs_as_the_reference(rankings, cfg, space):
    """run() emits the reference loop's samples and leaves the generator in
    its state; returns the draw calls run() made."""
    got = GibbsSampler(rankings, cfg, class_space=space)
    got.rng = _CountingGenerator(got.rng)
    ref = _ReferenceSampler(rankings, cfg, class_space=space)
    assert np.array_equal(got.run().samples, ref.run())
    assert got.rng.bit_generator.state == ref.rng.bit_generator.state
    return got.rng.calls


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
    got = GibbsSampler(rankings, cfg, class_space=space)
    ref = _ReferenceSampler(rankings, cfg, class_space=space)
    for keys, uniforms, arrivals, gammas in got._sweep_draws(4):
        for name, draws in (
            ("sample_sigma", (keys, uniforms)),
            ("sample_tau", (arrivals,)),
            ("sample_lambda", (gammas,)),
        ):
            getattr(got, name)(*draws)
            getattr(ref, name)()
            for field in ("lam", "sigmas", "taus"):
                assert np.array_equal(getattr(got.state, field), getattr(ref.state, field))
    assert got.rng.bit_generator.state == ref.rng.bit_generator.state
    assert np.array_equal(
        gibbs_run(rankings, cfg, class_space=space).samples,
        _ReferenceSampler(rankings, cfg, class_space=space).run(),
    )
    # Chunks of 1 to 5 sweeps, so most chains end on a partial chunk.
    sweep_draws = (2 * len(rankings) * cfg.repetitions + 1) * k
    monkeypatch.setattr(pl_gibbs, "_CHUNK_DRAWS", sweep_draws * (1 + case % 5))
    _assert_runs_as_the_reference(rankings, cfg, space)


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
    # Race keys, every tied walk's uniforms, arrivals, Gammas.
    "tied": (
        [PartialRanking([[0, 2], [1]], ClassSpace(size=5)), PartialRanking([[4]], ClassSpace(size=5))],
        ClassSpace(size=5),
        4,
    ),
    "ends-tied": (
        [PartialRanking([[1], [0, 2]], ClassSpace(size=5)), PartialRanking([[4]], ClassSpace(size=5))],
        ClassSpace(size=5),
        4,
    ),
    # Three ties over two annotations share the sweep's one uniform call.
    "tied-thrice": (
        [
            PartialRanking([[0, 2], [1], [3, 4], [5]], ClassSpace(size=10)),
            PartialRanking([[5, 1, 3], [0]], ClassSpace(size=10)),
        ],
        ClassSpace(size=10),
        4,
    ),
    # 6 annotations x 10 repetitions: (2 * 60 + 1) * 12 = 1452 draws a sweep,
    # with no uniform call.
    "above-threshold": (*_untied(12, 6), 3),
}


@pytest.mark.parametrize("chunk_sweeps", [1, 4, None])
@pytest.mark.parametrize("thinning", [1, 2])
@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_run_draws_as_the_reference_loop(chain, thinning, chunk_sweeps, monkeypatch):
    rankings, space, sweep_calls = _CHAINS[chain]
    reps_grid = (10,) if chain == "above-threshold" else DEFAULT_REPETITION_GRID
    for reps in reps_grid:
        sweep_draws = (2 * len(rankings) * reps + 1) * space.size
        if chunk_sweeps is not None:
            monkeypatch.setattr(pl_gibbs, "_CHUNK_DRAWS", sweep_draws * chunk_sweeps)
        cfg = GibbsConfig(
            alpha=0.7, iterations=13, burn_in=3, thinning=thinning, repetitions=reps, seed=reps
        )
        calls = _assert_runs_as_the_reference(rankings, cfg, space)
        if sweep_calls is None:
            per_chunk = max(1, pl_gibbs._CHUNK_DRAWS // sweep_draws)
            assert calls == -(-cfg.iterations // per_chunk)
        else:
            assert calls == sweep_calls * cfg.iterations


@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_horizon_reads_a_fixed_cell_only_where_every_row_ends_on_one_class(chain):
    # a row that ranked nothing, or whose last ranked block is tied, has no
    # fixed horizon class; the runs above check both reads against the
    # reference's read through the orderings
    rankings, space, _ = _CHAINS[chain]
    sampler = GibbsSampler(rankings, GibbsConfig(repetitions=3, seed=0), class_space=space)
    fixed = chain not in ("ranked-nothing", "ends-tied")
    assert (sampler._horizon_flat is not None) == fixed
    if fixed:
        for keys, uniforms, arrivals, gammas in sampler._sweep_draws(3):
            sampler.sample_sigma(keys, uniforms)
            sampler.sample_tau(arrivals)
            rows = np.arange(sampler.num_rows)
            last = sampler.state.sigmas[rows, sampler.num_ranked - 1]
            taus = sampler.state.taus
            assert_array_equal(taus.take(sampler._horizon_flat), taus[rows, last])
            sampler.sample_lambda(gammas)


@pytest.mark.parametrize("seed", range(8))
def test_numpy_draws_a_shape_one_gamma_as_its_exponential(seed):
    # The chunked stream of GibbsSampler.run relies on this numpy rule: an
    # array standard_gamma call whose shapes are 1.0 then the weights' shapes
    # draws, in order, what standard_exponential calls followed by scalar
    # standard_gamma calls draw, and leaves the generator in the same state.
    rng = np.random.default_rng(seed)
    rows, k, sweeps = int(rng.integers(1, 8)), int(rng.integers(2, 13)), 7
    # Shapes below, at and above 1 take numpy's three Gamma branches.
    shape = (0.3, 1.0, 2.5)[seed % 3] + rng.integers(0, 3, size=k)
    pattern = np.ones((sweeps, 2 * rows + 1, k))
    pattern[:, -1] = shape
    ref = np.random.default_rng(seed)
    expected = []
    for _ in range(sweeps):
        expected.append(ref.standard_exponential((rows, k)))
        expected.append(ref.standard_exponential((rows, k)))
        expected.append([[ref.standard_gamma(a) for a in shape]])
    expected = np.concatenate(expected).reshape(pattern.shape)
    for chunk in (sweeps, 1, 2, 3):
        got = np.random.default_rng(seed)
        draws = np.concatenate(
            [got.standard_gamma(pattern[s : s + chunk]) for s in range(0, sweeps, chunk)]
        )
        assert np.array_equal(draws, expected)
        assert got.bit_generator.state == ref.bit_generator.state
