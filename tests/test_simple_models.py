import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special, stats

from plaus.metrics import certainty_label
from plaus.simple_models import (
    NormalScoreModel,
    dirichlet_from_counts,
    _normal_cdf,
    score_threshold_certainty,
)


def test_counts_posterior_moments():
    out = dirichlet_from_counts([3.0, 1.0], gamma=1.0, num_samples=40_000, seed=0)
    conc = np.array([3.01, 1.01])
    mean = conc / conc.sum()
    var = mean * (1 - mean) / (conc.sum() + 1)
    gap = np.abs(out.samples.mean(axis=0) - mean)
    assert np.all(gap <= 4 * np.sqrt(var / 40_000))


def test_lopsided_counts_are_nearly_certain():
    out = dirichlet_from_counts([50.0, 0.0, 0.0], num_samples=2000, seed=1)
    assert certainty_label(out, 0) > 0.99


def test_gamma_concentrates_on_the_vote_shares():
    loose = dirichlet_from_counts([2.0, 1.0], gamma=1.0, num_samples=4000, seed=2)
    tight = dirichlet_from_counts([2.0, 1.0], gamma=500.0, num_samples=4000, seed=2)
    assert tight.samples[:, 0].var() < loose.samples[:, 0].var()
    assert abs(tight.samples[:, 0].mean() - 2.0 / 3.0) < 0.01


def test_counts_validation():
    with pytest.raises(ValueError):
        dirichlet_from_counts([1.0])
    with pytest.raises(ValueError):
        dirichlet_from_counts([1.0, -1.0])
    with pytest.raises(ValueError):
        dirichlet_from_counts([1.0, 1.0], gamma=0.0)
    with pytest.raises(ValueError):
        dirichlet_from_counts([1.0, 1.0], prior_alpha=0.0)
    with pytest.raises(ValueError):
        dirichlet_from_counts([1.0, 1.0], num_samples=0)


def test_prior_from_scores_moment_matches():
    model = NormalScoreModel.from_scores([1.0, 2.0, 3.0])
    assert model.mu0 == 2.0
    assert model.nu == 1.0
    assert model.a == 2.0
    assert_allclose(model.b, 2.0 / 3.0)
    # a single score cannot estimate spread; fall back to unit variance
    assert NormalScoreModel.from_scores([4.2]).b == 1.0


def test_constant_scores_keep_the_prior_proper():
    model = NormalScoreModel.from_scores([2.0, 2.0, 2.0])
    assert model.b > 0


def test_posterior_update_hand_numbers():
    prior = NormalScoreModel(mu0=0.0, nu=1.0, a=2.0, b=1.0)
    post = prior.posterior([2.0])
    assert post.nu == 2.0
    assert post.mu0 == 1.0
    assert post.a == 2.5
    assert_allclose(post.b, 2.0)  # b + nu*n*(mean - mu0)^2 / (2*nu_n)
    assert prior.posterior([]) is prior


def test_certainty_matches_the_predictive_distribution():
    scores = [5.8, 6.1, 6.4]
    threshold = 7.0
    prior = NormalScoreModel.from_scores(scores)
    post = prior.posterior(scores)
    # integrating the normal outcome over the posterior gives a Student-t
    df = 2 * post.a
    scale = np.sqrt(post.b * (post.nu + 1) / (post.a * post.nu))
    p_below = stats.t.cdf((threshold - post.mu0) / scale, df=df)
    expected = max(p_below, 1 - p_below)
    got = score_threshold_certainty(scores, threshold, num_samples=40_000, seed=3)
    assert abs(got - expected) < 0.01


def test_certainty_is_at_least_one_half():
    # symmetric scores straddling the cut carry no information
    value = score_threshold_certainty([-1.0, 1.0], 0.0, num_samples=4000, seed=4)
    assert 0.5 <= value < 0.6
    sure = score_threshold_certainty([10.0, 10.2, 9.9], 0.0, num_samples=4000, seed=4)
    assert sure > 0.99


def test_shift_invariance():
    scores = np.array([3.1, 4.0, 2.2, 3.7])
    base = score_threshold_certainty(scores, 3.5, num_samples=2000, seed=5)
    moved = score_threshold_certainty(scores + 250.0, 253.5, num_samples=2000, seed=5)
    assert_allclose(moved, base, atol=1e-9)


def test_certainty_runs_without_scipy(monkeypatch):
    # numpy is the only runtime dependency; scipy serves the tests alone
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    value = score_threshold_certainty([5.8, 6.1, 6.4], 7.0, num_samples=2000, seed=6)
    assert 0.5 <= value <= 1.0


def test_normal_cdf_matches_scipy_erf():
    # math.erf is the C library's, scipy.special.erf its own; both are
    # within a few units in the last place of the exact value
    z = np.concatenate([np.linspace(-40.0, 40.0, 4001), np.random.default_rng(7).normal(0, 3, 4000)])
    expected = 0.5 * (1.0 + special.erf(z / math.sqrt(2.0)))
    assert_allclose(_normal_cdf(z), expected, rtol=0, atol=4 * np.finfo(float).eps)


def test_certainty_validation():
    with pytest.raises(ValueError):
        score_threshold_certainty([], 0.0)
    with pytest.raises(ValueError):
        score_threshold_certainty([1.0], 0.0, num_samples=0)


def test_parameter_samples_are_deterministic():
    model = NormalScoreModel(mu0=1.0, nu=2.0, a=3.0, b=4.0)
    mu_a, var_a = model.sample_parameters(50, seed=6)
    mu_b, var_b = model.sample_parameters(50, seed=6)
    assert_array_equal(mu_a, mu_b)
    assert_array_equal(var_a, var_b)
    assert np.all(var_a > 0)
