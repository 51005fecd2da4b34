from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plaus import sim_oracle
from plaus.pl_gibbs import GibbsConfig
from plaus.rankings import ClassSpace, CombinatorialCapError, PartialRanking
from plaus.sim_oracle import (
    GridPosterior,
    SimSpec,
    brute_force_partial_prob,
    gibbs_grid_gap,
    grid_posterior_oracle,
    point_mass_reduction_gap,
    recursion_enumeration_gap,
    simulate_annotations,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(true_lambda=(0.5, -0.1), num_annotators=1, block_sizes=(1,))
    with pytest.raises(ValueError):
        SimSpec(true_lambda=(0.5, 0.5), num_annotators=0, block_sizes=(1,))
    with pytest.raises(ValueError):
        SimSpec(true_lambda=(0.5, 0.5), num_annotators=1, block_sizes=(1, 2))
    with pytest.raises(ValueError):
        SimSpec(true_lambda=(0.5, 0.5), num_annotators=1, block_sizes=(1,), sharpness=0.0)


def test_simulation_is_deterministic():
    spec = SimSpec(true_lambda=(0.5, 0.3, 0.2), num_annotators=4, block_sizes=(1, 1), seed=9)
    first = simulate_annotations(spec)
    second = simulate_annotations(spec)
    assert [r.blocks for r in first] == [r.blocks for r in second]


def test_block_policy_is_respected():
    spec = SimSpec(
        true_lambda=(0.4, 0.3, 0.2, 0.1), num_annotators=5, block_sizes=(1, 2), seed=0
    )
    for ranking in simulate_annotations(spec):
        assert [len(b) for b in ranking.blocks] == [1, 2]
        assert len(ranking.unranked) == 1


def test_top_choice_frequencies_track_the_weights():
    lam = np.array([0.5, 0.3, 0.2])
    spec = SimSpec(true_lambda=tuple(lam), num_annotators=6000, block_sizes=(1,), seed=4)
    tops = [next(iter(r.blocks[0])) for r in simulate_annotations(spec)]
    freq = np.bincount(tops, minlength=3) / len(tops)
    se = np.sqrt(lam * (1 - lam) / len(tops))
    assert np.all(np.abs(freq - lam) < 4 * se)


def test_sharpness_concentrates_the_top_choice():
    base = SimSpec(true_lambda=(0.5, 0.3, 0.2), num_annotators=4000, block_sizes=(1,), seed=5)
    sharp = SimSpec(
        true_lambda=(0.5, 0.3, 0.2),
        num_annotators=4000,
        block_sizes=(1,),
        sharpness=3.0,
        seed=5,
    )
    rate = lambda spec: np.mean(
        [next(iter(r.blocks[0])) == 0 for r in simulate_annotations(spec)]
    )
    assert rate(sharp) > rate(base) + 0.1


def test_brute_force_closed_form():
    lam = np.array([2.0, 1.0, 0.5])
    r = PartialRanking([[0], [1]], ClassSpace(size=3))
    expected = (2.0 / 3.5) * (1.0 / 1.5)
    assert_allclose(brute_force_partial_prob(lam, r), expected, atol=1e-14)


def test_brute_force_is_exact_with_a_tiny_trailing_mass():
    # each step's residual adds up the weights still unchosen; subtracting
    # each pick from the total loses the trailing 3.75e-22 and was 9.8e-14 off
    lam = [0.908, 1.77e-4, 0.172, 3.75e-22]
    r = PartialRanking([[2], [0, 1]], ClassSpace(size=4))
    w = [Fraction(x) for x in lam]
    exact = Fraction(0)
    for tied in permutations([0, 1]):
        order = [2, *tied, 3]
        term = Fraction(1)
        for i, c in enumerate(order[:-1]):
            term *= w[c] / sum(w[d] for d in order[i:])
        exact += term
    got = Fraction(brute_force_partial_prob(lam, r))
    assert abs(got - exact) <= Fraction(1, 10**14) * exact


def test_brute_force_no_blocks_is_one():
    assert brute_force_partial_prob(np.ones(3), PartialRanking([], ClassSpace(size=3))) == 1.0


def test_brute_force_cap():
    r = PartialRanking([list(range(11))], ClassSpace(size=12))
    with pytest.raises(CombinatorialCapError):
        brute_force_partial_prob(np.ones(12), r)


def test_grid_two_class_analytic_moments():
    # posterior density of the winner's share is 2x: mean 2/3, variance 1/18
    space = ClassSpace(size=2)
    oracle = grid_posterior_oracle([PartialRanking([[0], [1]], space)], resolution=2000)
    assert isinstance(oracle, GridPosterior)
    assert_allclose(oracle.mean, [2 / 3, 1 / 3], atol=1e-3)
    assert_allclose(oracle.variance, [1 / 18, 1 / 18], atol=1e-3)
    assert oracle.num_nodes == 2000


def test_grid_prior_only_is_centered():
    space = ClassSpace(size=2)
    oracle = grid_posterior_oracle([PartialRanking([], space)], resolution=500)
    assert_allclose(oracle.mean, [0.5, 0.5], atol=1e-9)


def test_grid_three_class_analytic_means():
    # {0} > {1} with a third class unranked: means (1/2, 1/3, 1/6)
    space = ClassSpace(size=3)
    oracle = grid_posterior_oracle([PartialRanking([[0], [1]], space)], resolution=120)
    assert_allclose(oracle.mean, [0.5, 1 / 3, 1 / 6], atol=2e-3)


def test_grid_resolution_convergence():
    space = ClassSpace(size=3)
    rankings = [PartialRanking([[1], [2]], space), PartialRanking([[1]], space)]
    coarse = grid_posterior_oracle(rankings, resolution=60)
    fine = grid_posterior_oracle(rankings, resolution=120)
    assert np.max(np.abs(coarse.mean - fine.mean)) < 2e-3


def test_grid_respects_the_prior_concentration():
    space = ClassSpace(size=2)
    flat = grid_posterior_oracle([PartialRanking([], space)], alpha=1.0, resolution=800)
    peaked = grid_posterior_oracle([PartialRanking([], space)], alpha=20.0, resolution=800)
    assert peaked.variance[0] < flat.variance[0]
    assert_allclose(peaked.mean, [0.5, 0.5], atol=1e-6)


def test_grid_limits():
    with pytest.raises(ValueError):
        grid_posterior_oracle([])
    space4 = ClassSpace(size=4)
    with pytest.raises(ValueError):
        grid_posterior_oracle([PartialRanking([[0]], space4)])
    space2 = ClassSpace(size=2)
    with pytest.raises(ValueError):
        grid_posterior_oracle([PartialRanking([[0]], space2)], resolution=1)
    with pytest.raises(ValueError):
        grid_posterior_oracle([PartialRanking([[0]], space2)], alpha=0.0)


# Each shared check passes on the real code and fails on a planted fault in
# the fast code it checks.

PAIR = [PartialRanking([[0], [1]], ClassSpace(size=2))]
PAIR_CHAIN = GibbsConfig(iterations=4500, burn_in=500, seed=1)


def test_recursion_enumeration_gap_catches_a_shifted_likelihood(monkeypatch):
    assert recursion_enumeration_gap(0, 80) < 1e-10
    real = sim_oracle.pl_partial_ranking_log_prob
    monkeypatch.setattr(
        sim_oracle, "pl_partial_ranking_log_prob", lambda lam, r: real(lam, r) + 1e-9
    )
    assert recursion_enumeration_gap(0, 80) > 1e-10


def test_gibbs_grid_gap_catches_a_chain_on_the_wrong_ranking(monkeypatch):
    assert gibbs_grid_gap(PAIR, PAIR_CHAIN, 1500) < 0.025
    real = sim_oracle.gibbs_run
    reversed_pair = [PartialRanking([[1], [0]], ClassSpace(size=2))]
    monkeypatch.setattr(sim_oracle, "gibbs_run", lambda r, config: real(reversed_pair, config))
    assert gibbs_grid_gap(PAIR, PAIR_CHAIN, 1500) > 0.025


def test_point_mass_reduction_gap_catches_a_flipped_metric(monkeypatch):
    assert point_mass_reduction_gap(0, 20) < 1e-12
    real = sim_oracle.ua_topk_accuracy
    monkeypatch.setattr(
        sim_oracle, "ua_topk_accuracy", lambda s, pred, k: 1.0 - real(s, pred, k)
    )
    assert point_mass_reduction_gap(0, 20) > 1e-12
