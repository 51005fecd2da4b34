import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from plaus.irn import irn_aggregate
from plaus.prirn import DEFAULT_GAMMA_GRID, PrIrnModel
from plaus.rankings import ClassSpace, PartialRanking


def two_vote_rankings():
    space = ClassSpace(size=2)
    return [PartialRanking([[0]], space), PartialRanking([[1]], space)]


def test_default_grid_is_increasing():
    assert list(DEFAULT_GAMMA_GRID) == sorted(DEFAULT_GAMMA_GRID)
    assert all(g > 0 for g in DEFAULT_GAMMA_GRID)


def test_fit_centers_on_the_point_estimate(derm_rankings):
    model = PrIrnModel.fit(derm_rankings, gamma=30.0)
    assert_allclose(model.point_estimate, irn_aggregate(derm_rankings))
    assert model.gamma == 30.0
    assert_array_equal(model.support, np.arange(8))


def test_gamma_must_be_positive(derm_rankings):
    with pytest.raises(ValueError):
        PrIrnModel.fit(derm_rankings, gamma=0.0)


def test_zero_mass_classes_stay_exactly_zero():
    space = ClassSpace(size=4)
    rankings = [PartialRanking([[0], [2]], space)]
    samples = PrIrnModel.fit(rankings, gamma=15.0).sample(500, seed=3).samples
    assert_array_equal(samples[:, 1], 0.0)
    assert_array_equal(samples[:, 3], 0.0)
    assert np.all(samples[:, 0] > 0)


def test_singleton_support_is_a_point_mass():
    space = ClassSpace(size=3)
    samples = PrIrnModel.fit([PartialRanking([[2]], space)], gamma=10.0).sample(
        50, seed=0
    )
    assert_array_equal(samples.samples, np.tile([0.0, 0.0, 1.0], (50, 1)))


def test_gamma_two_even_split_is_uniform_on_the_simplex():
    # concentration (1, 1): each coordinate is Beta(1, 1)
    samples = PrIrnModel.fit(two_vote_rankings(), gamma=2.0).sample(40_000, seed=7)
    first = samples.samples[:, 0]
    assert abs(first.mean() - 0.5) < 0.01
    assert abs(first.var() - 1.0 / 12.0) < 0.005


def test_mean_approaches_point_estimate(derm_rankings):
    model = PrIrnModel.fit(derm_rankings, gamma=50.0)
    samples = model.sample(4000, seed=11).samples
    lam_hat = model.point_estimate
    se = np.sqrt(lam_hat * (1 - lam_hat) / (model.gamma + 1) / 4000)
    assert np.all(np.abs(samples.mean(axis=0) - lam_hat) < 3 * se + 1e-9)


def test_variance_shrinks_along_the_grid(derm_rankings):
    loose = PrIrnModel.fit(derm_rankings, gamma=10.0).sample(4000, seed=1)
    tight = PrIrnModel.fit(derm_rankings, gamma=100.0).sample(4000, seed=1)
    assert np.all(tight.samples.var(axis=0) <= loose.samples.var(axis=0) + 1e-12)


def test_huge_gamma_degenerates_to_the_estimate(derm_rankings):
    model = PrIrnModel.fit(derm_rankings, gamma=1e6)
    samples = model.sample(200, seed=2).samples
    assert np.max(np.abs(samples - model.point_estimate)) < 0.01


def test_sampling_is_deterministic_given_seed(derm_rankings):
    model = PrIrnModel.fit(derm_rankings, gamma=20.0)
    assert_array_equal(
        model.sample(100, seed=9).samples, model.sample(100, seed=9).samples
    )


def test_sample_shape(derm_rankings):
    samples = PrIrnModel.fit(derm_rankings, gamma=20.0).sample(10, seed=4)
    assert samples.samples.shape == (10, 8)

