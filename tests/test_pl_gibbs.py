from bisect import bisect_right
from itertools import accumulate, permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from plaus.pl_gibbs import DEFAULT_REPETITION_GRID, GibbsConfig, GibbsSampler, gibbs_run
from plaus.pl_likelihood import MAX_BLOCK_SIZE, BlockTooLargeError, _table_values
from plaus.rankings import ClassSpace, PartialRanking


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
    for _ in range(5):
        sampler.sample_sigma()
        sampler.sample_tau()
        sampler.sample_lambda()
    sampler.sample_sigma()
    sampler.sample_tau()
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
    sampler.sample_sigma()
    sampler.sample_tau()
    shape, _ = sampler._posterior_gamma_params()
    assert_allclose(shape, [3.0, 2.0, 2.0])


def test_repetitions_duplicate_annotations():
    base = make_sampler([[[0]], [[1]]], k=3, seed=0)
    doubled = make_sampler([[[0]], [[1]]], k=3, repetitions=2, seed=0)
    assert (base.num_rows, doubled.num_rows) == (2, 4)
    assert_allclose(doubled.ranked_counts, 2 * base.ranked_counts)


def test_arrivals_increase_along_the_ordering():
    sampler = make_sampler([[[2], [0, 1]]], k=4, seed=5)
    for _ in range(25):
        sampler.sample_sigma()
        sampler.sample_tau()
        (sigma,) = sampler.state.sigmas
        (tau,) = sampler.state.taus
        arrivals = tau[sigma]
        assert np.all(np.diff(arrivals) > 0)
        assert sigma[0] == 2  # the ranked top stays on top
        sampler.sample_lambda()


def test_first_arrival_rate_is_total_mass():
    sampler = make_sampler([[[0]]], k=2, seed=8)
    lam = np.array([1.5, 2.5])
    sampler.state.lam = lam
    firsts = []
    for _ in range(4000):
        sampler.sample_sigma()
        sampler.sample_tau()
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
    for _ in range(n):
        sampler.sample_sigma()
        hits += sampler.state.sigmas[0][0] == 0
    se = np.sqrt(p_first * (1 - p_first) / n)
    assert abs(hits / n - p_first) < 4 * se


def test_copies_draw_their_block_orders_independently():
    # 400 copies of one tie share a subset table but not their draws
    sampler = make_sampler([[[0, 1]]], k=3, repetitions=400, seed=13)
    lam = np.array([1.0, 2.0, 0.5])
    sampler.state.lam = lam
    p_first = (1 / (0.5 + 2.0)) / (1 / (0.5 + 2.0) + 1 / (0.5 + 1.0))
    sampler.sample_sigma()
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
    sampler.sample_sigma()
    sigmas = sampler.state.sigmas
    assert sigmas.shape == (2000, k)
    assert (np.sort(sigmas[:, :8], axis=1) == members).all()
    freq = np.bincount(sigmas[:, 0], minlength=8) / 2000
    se = np.sqrt(p_first * (1 - p_first) / 2000)
    assert (np.abs(freq - p_first) < 4 * se).all()


def _reference_block_orders(rng, values, members, copies):
    # the walk over a tolist() of every entry, rescanning the remaining bits
    # from all n singles at each step: the sampler must pick as it does
    n = members.size
    values = values.tolist()
    singles = [1 << i for i in range(n)]
    picks = []
    for draws in rng.random((copies, n - 1)).tolist():
        mask = (1 << n) - 1
        for u in draws:
            bits = [bit for bit in singles if mask & bit]
            cum = list(accumulate(values[mask ^ bit] for bit in bits))
            bit = bits[min(bisect_right(cum, u * cum[-1]), len(bits) - 1)]
            picks.append(bit.bit_length() - 1)
            mask ^= bit
        picks.append(mask.bit_length() - 1)
    return members[np.reshape(picks, (copies, n))]


@pytest.mark.parametrize("n", range(2, 13))
def test_block_walk_matches_the_reference_walk(n):
    sampler = make_sampler([[[0, 1]]], k=3)
    rng = np.random.default_rng(n)
    members = rng.permutation(n + 3)[:n]
    values, _ = _table_values(rng.uniform(0.1, 5.0, size=n), 1.5)
    for copies in (1, 3, 21):
        for seed in range(3):
            sampler.rng = np.random.default_rng(seed)
            got = sampler._draw_block_orders(values, members, copies)
            expected = _reference_block_orders(
                np.random.default_rng(seed), values, members, copies
            )
            assert_array_equal(got, expected)


class _FixedDraws:
    """Stands in for a Generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def test_block_walk_takes_the_last_bit_when_the_draw_rounds_up():
    # subnormal entries make u * total round up to the total, past every
    # cumulative value; the walk must clamp to the last remaining bit
    top = 1 - 2**-53
    values = np.full(1 << 5, 5e-324)
    assert top * (3 * 5e-324) == 3 * 5e-324
    members = np.array([7, 3, 9, 1, 4])
    sampler = make_sampler([[[0, 1]]], k=3)
    sampler.rng = _FixedDraws(top)
    got = sampler._draw_block_orders(values, members, 2)
    assert_array_equal(got, [members[::-1]] * 2)
    assert_array_equal(got, _reference_block_orders(_FixedDraws(top), values, members, 2))


def test_block_walk_moves_a_draw_on_a_boundary_to_the_next_class():
    # equal entries put 0.5 * total exactly on the first cumulative value;
    # the draw lies in [cum[0], cum[1]), so the second class goes first
    sampler = make_sampler([[[0, 1]]], k=3)
    sampler.rng = _FixedDraws(0.5)
    assert_array_equal(sampler._draw_block_orders(np.ones(4), np.array([5, 6]), 1), [[6, 5]])


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
    with pytest.raises(RuntimeError):
        sampler.sample_tau()
    sampler.sample_sigma()
    sampler.sample_tau()
    with pytest.raises(RuntimeError):
        make_sampler([[[0]]], k=2, seed=0).sample_lambda()


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
