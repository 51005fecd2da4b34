import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import weighted_rankings
from plaus.pl_likelihood import (
    MAX_BLOCK_SIZE,
    BlockTooLargeError,
    NonPositiveWeightError,
    _table_values_layered,
    _subset_layout,
    _table_values_small,
    pl_full_ranking_log_prob,
    pl_log_likelihood,
    pl_partial_ranking_log_prob,
    subset_recursion,
)
from plaus.rankings import ClassSpace, PartialRanking
from plaus.sim_oracle import brute_force_partial_prob


def test_subset_table_hand_values():
    # weights (2, 1, 3) in the block, weight 4 below it; R by direct algebra
    table = subset_recursion([0, 1, 2], zbar=4.0, lam=np.array([2.0, 1.0, 3.0, 4.0]))
    expected = {
        0b001: Fraction(1, 6),
        0b010: Fraction(1, 5),
        0b100: Fraction(1, 7),
        0b011: Fraction(11, 210),
        0b101: Fraction(13, 378),
        0b110: Fraction(3, 70),
        0b111: Fraction(7, 540),
    }
    for mask, value in expected.items():
        assert_allclose(table.log_value(mask), math.log(float(value)), atol=1e-12)
    assert table.full_mask == 0b111


def test_three_way_tie_hand_probability():
    lam = np.array([2.0, 1.0, 3.0, 4.0])
    r = PartialRanking([[0, 1, 2]], ClassSpace(size=4))
    assert_allclose(
        math.exp(pl_partial_ranking_log_prob(lam, r)), float(Fraction(7, 90)), atol=1e-14
    )


def test_full_ranking_hand_probability():
    # (3/6) * (2/3) * 1
    lp = pl_full_ranking_log_prob(np.array([1.0, 2.0, 3.0]), [2, 1, 0])
    assert_allclose(math.exp(lp), 1.0 / 3.0, atol=1e-14)


def test_full_ranking_requires_a_permutation():
    with pytest.raises(ValueError):
        pl_full_ranking_log_prob(np.array([1.0, 2.0]), [0, 0])


def test_singleton_chain_equals_full_ranking():
    lam = np.array([0.3, 1.1, 2.4])
    partial = PartialRanking([[2], [1], [0]], ClassSpace(size=3))
    assert_allclose(
        pl_partial_ranking_log_prob(lam, partial),
        pl_full_ranking_log_prob(lam, [2, 1, 0]),
        atol=1e-12,
    )


def test_no_blocks_has_probability_one():
    lam = np.array([1.0, 2.0])
    assert pl_partial_ranking_log_prob(lam, PartialRanking([], ClassSpace(size=2))) == 0.0


@given(weighted_rankings(max_classes=6, max_block=3))
def test_recursion_matches_enumeration(case):
    lam, ranking = case
    dp = math.exp(pl_partial_ranking_log_prob(lam, ranking))
    assert_allclose(dp, brute_force_partial_prob(lam, ranking), atol=1e-10)


@given(
    weighted_rankings(max_classes=6, max_block=3),
    st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
)
def test_scale_invariance(case, scale):
    lam, ranking = case
    base = pl_partial_ranking_log_prob(lam, ranking)
    scaled = pl_partial_ranking_log_prob(lam * scale, ranking)
    assert_allclose(scaled, base, atol=1e-9)


def test_single_block_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.1, 3.0, size=5)
    space = ClassSpace(size=5)
    total = sum(
        math.exp(pl_partial_ranking_log_prob(lam, PartialRanking([[j]], space)))
        for j in range(5)
    )
    assert_allclose(total, 1.0, atol=1e-12)


def test_two_block_chains_sum_to_one():
    rng = np.random.default_rng(1)
    lam = rng.uniform(0.1, 3.0, size=4)
    space = ClassSpace(size=4)
    total = sum(
        math.exp(pl_partial_ranking_log_prob(lam, PartialRanking([[i], [j]], space)))
        for i in range(4)
        for j in range(4)
        if i != j
    )
    assert_allclose(total, 1.0, atol=1e-12)


def test_extreme_scales_survive_both_paths():
    rng = np.random.default_rng(2)
    lam = rng.uniform(0.5, 2.0, size=10)
    # the plain-float walk serves up to six tied classes, the gather kernel more
    for tied in (5, 8):
        r = PartialRanking([list(range(tied))], ClassSpace(size=10))
        assert_allclose(
            pl_partial_ranking_log_prob(lam * 1e-140, r),
            pl_partial_ranking_log_prob(lam, r),
            atol=1e-6,
        )
        assert_allclose(
            pl_partial_ranking_log_prob(lam * 1e140, r),
            pl_partial_ranking_log_prob(lam, r),
            atol=1e-6,
        )
    lam = rng.uniform(0.5, 2.0, size=14)
    r = PartialRanking([list(range(12))], ClassSpace(size=14))
    assert_allclose(
        pl_partial_ranking_log_prob(lam * 1e140, r),
        pl_partial_ranking_log_prob(lam, r),
        atol=1e-6,
    )


@pytest.mark.parametrize("n", [3, 7, 10, 11, 13])
def test_small_and_layered_tables_agree(n):
    # the plain-float walk serves n <= 6 and the gather kernel n > 6; on the
    # same weights both must tabulate the same recursion
    rng = np.random.default_rng(n)
    w = rng.uniform(0.1, 5.0, size=n)
    for zbar in (0.0, 2.5):
        small, small_scale = _table_values_small([float(x) for x in w], zbar)
        layered, layered_scale = _table_values_layered(w, zbar)
        assert_allclose(layered, small, rtol=1e-12)
        assert layered_scale == small_scale
    # weights this small push every layer below the rescale threshold
    tiny = w * 1e-140
    small, small_scale = _table_values_small([float(x) for x in tiny], 0.0)
    layered, layered_scale = _table_values_layered(tiny, 0.0)
    assert small_scale != 0.0
    assert_allclose(layered, small, rtol=1e-12)
    assert layered_scale == small_scale


@pytest.mark.parametrize("n", range(1, 9))
def test_subset_layout_lists_each_layer_and_its_one_bit_removals(n):
    layout = _subset_layout(n)
    assert len(layout) == n
    for layer, (masks, preds) in enumerate(layout, start=1):
        expected = [m for m in range(1 << n) if m.bit_count() == layer]
        assert masks.tolist() == expected
        assert preds.shape == (layer, len(expected))
        for col, mask in enumerate(expected):
            bits = [1 << i for i in range(n) if mask >> i & 1]
            assert preds[:, col].tolist() == [mask ^ bit for bit in bits]


def test_block_size_cap():
    k = MAX_BLOCK_SIZE + 2
    lam = np.ones(k)
    oversized = PartialRanking([list(range(MAX_BLOCK_SIZE + 1))], ClassSpace(size=k))
    with pytest.raises(BlockTooLargeError):
        pl_partial_ranking_log_prob(lam, oversized)
    # a trailing block of any size is free
    trailing = PartialRanking([[0]], ClassSpace(size=k))
    assert np.isfinite(pl_partial_ranking_log_prob(lam, trailing))


def test_weight_validation():
    r = PartialRanking([[0]], ClassSpace(size=2))
    for bad in ([0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(NonPositiveWeightError):
            pl_partial_ranking_log_prob(np.array(bad), r)
    with pytest.raises(ValueError):
        pl_partial_ranking_log_prob(np.ones(3), r)


def test_repetitions_multiply_the_log_likelihood(derm_rankings):
    lam = np.arange(1.0, 9.0)
    single = pl_log_likelihood(lam, derm_rankings)
    assert_allclose(pl_log_likelihood(lam, derm_rankings, repetitions=3), 3 * single)
    with pytest.raises(ValueError):
        pl_log_likelihood(lam, derm_rankings, repetitions=0)
    with pytest.raises(ValueError):
        pl_log_likelihood(lam, derm_rankings, repetitions=2.5)
