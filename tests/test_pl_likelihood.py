import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import weighted_rankings
from plaus import pl_likelihood
from plaus.pl_likelihood import (
    _RESCALE_HI,
    _RESCALE_LO,
    _UNCHECKED_MAX_MASS,
    _UNCHECKED_MIN_WEIGHT,
    MAX_BLOCK_SIZE,
    BlockTooLargeError,
    NonPositiveWeightError,
    _table_buffers,
    _table_values,
    _table_values_layered,
    _table_values_small,
    pl_full_ranking_log_prob,
    pl_log_likelihood,
    pl_partial_ranking_log_prob,
    subset_recursion,
)
from plaus.rankings import ClassSpace, PartialRanking, enumerate_compatible_permutations
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


def _exact_partial_prob(lam, ranking) -> Fraction:
    # every compatible full ordering's probability, in rationals; a float
    # converts to a Fraction exactly
    weights = [Fraction(float(w)) for w in lam]
    total = Fraction(0)
    for sigma in enumerate_compatible_permutations(ranking):
        rest = sum(weights[c] for c in sigma)
        term = Fraction(1)
        for c in sigma:
            term *= weights[c] / rest
            rest -= weights[c]
        total += term
    return total


# Relative error bound of the DP for weights in [0.05, 5], K <= 5 and tied
# blocks of at most 3, in units of u = 2^-53, to first order:
# - Up to the logs every quantity is a sum, product or quotient of positive
#   floats, so it carries relative error at most N u over a path of N
#   roundings. zbar takes at most K - 1 = 4 additions; a layer-L entry adds
#   L - 1 totals, L weights to zbar and divides once. A 3-class block's R
#   therefore ends 6, 14 and 24 roundings deep: at most 24 u per block and
#   5 * 24 = 120 u over the blocks.
# - Denominators lie in [0.05, 25] and R(block) sums n! products of n
#   reciprocals, so |log R| <= n log 25 + log n!; with |log w| <= log 20,
#   the at most 2K = 10 logs summed have absolute values adding to at most
#   5 log 25 + log 3! + 5 log 20 < 33.
# - Each log rounds to within 2 u of its value, 66 u in all, and summing ten
#   terms adds at most 10 u * 33 = 330 u.
# - exp turns the log's absolute error into a relative one, plus u of its
#   own. The total, about 517 u, rounds up to 2^10 u.
_EXACT_RTOL = 2.0**10 * 2.0**-53


@example(
    (
        np.array([0.13117623367200737, 0.05914475088811405, 0.684952666426423, 1.1e-28]),
        PartialRanking([[0], [1, 2]], ClassSpace(size=4)),
    )
)
@given(weighted_rankings(max_classes=5, max_block=3))
def test_recursion_matches_an_exact_rational_sum(case):
    # the trailing 1e-28 weight enters only zbar, where subtracting masses
    # from a total would leave rounding error of its own size
    lam, ranking = case
    exact = _exact_partial_prob(lam, ranking)
    dp = Fraction(math.exp(pl_partial_ranking_log_prob(lam, ranking)))
    assert abs(dp - exact) <= Fraction(_EXACT_RTOL) * exact


def test_a_tiny_unranked_mass_keeps_every_zbar_non_negative():
    # taking the blocks' masses off the total one after another leaves the
    # unranked 2.6e-28 as a rounding error below zero
    lam = [0.13117623367200737, 0.05914475088811405, 0.684952666426423, 2.5817106281586813e-28]
    ranking = PartialRanking([[0], [1, 2]], ClassSpace(size=4))
    assert_allclose(brute_force_partial_prob(lam, ranking), 0.14986882505163412, rtol=1e-14)
    assert_allclose(
        math.exp(pl_partial_ranking_log_prob(lam, ranking)),
        brute_force_partial_prob(lam, ranking),
        rtol=1e-12,
    )


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
    # the plain-float walk serves in-range blocks of up to five tied classes;
    # these scales leave that range, so every table here is the layered one
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


@pytest.mark.parametrize("n", [3, 6, 7, 10, 11, 13])
def test_small_and_layered_tables_agree(n):
    # the plain-float walk serves in-range blocks of n <= 5 and the layered
    # kernel every other; on the same weights both perform the same
    # operations in the same order, so their tables are equal bit for bit
    rng = np.random.default_rng(n)
    w = rng.uniform(0.1, 5.0, size=n)
    for zbar in (0.0, 2.5):
        small, small_totals, small_scale = _table_values_small([float(x) for x in w], zbar)
        layered, layered_totals, layered_scale = _table_values_layered(w, zbar)
        assert np.array_equal(layered, small)
        assert np.array_equal(layered_totals, small_totals)
        assert layered_scale == small_scale == 0.0


_UNCHECKED_WEIGHTS = st.floats(_UNCHECKED_MIN_WEIGHT, _UNCHECKED_MAX_MASS / 2)


@given(
    st.lists(_UNCHECKED_WEIGHTS, min_size=1, max_size=8),
    st.one_of(st.just(0.0), _UNCHECKED_WEIGHTS),
)
def test_both_kernels_build_the_same_table_in_the_unchecked_range(weights, zbar):
    small, small_totals, small_scale = _table_values_small(weights, zbar)
    layered, layered_totals, layered_scale = _table_values_layered(np.array(weights), zbar)
    assert np.array_equal(small, layered)
    assert np.array_equal(small_totals, layered_totals)
    assert small_scale == layered_scale == 0.0


@pytest.mark.parametrize("n", range(2, 6))
def test_small_blocks_out_of_range_take_the_rescaling_layered_kernel(n):
    # the plain-float walk never rescales; a small block whose weights leave
    # the unchecked range gets the layered kernel's rescaled table
    w = np.random.default_rng(n).uniform(0.1, 5.0, size=n)
    for scale in (1e-140, 1e140):
        values, totals, log_scale = _table_values(w * scale, 0.0)
        expected, expected_totals, expected_scale = _reference_layered(w * scale, 0.0)
        assert log_scale != 0.0
        assert np.array_equal(values, expected)
        assert np.array_equal(totals, expected_totals)
        assert log_scale == expected_scale


@pytest.mark.parametrize("n", range(1, 9))
def test_only_in_range_blocks_of_up_to_five_take_the_plain_kernel(n, monkeypatch):
    calls = []

    def recording(w, zbar):
        calls.append(len(w))
        return _table_values_small(w, zbar)

    monkeypatch.setattr(pl_likelihood, "_table_values_small", recording)
    w = np.random.default_rng(n).uniform(1.0, 2.0, size=n)
    zbar = 0.5e12
    low = w / w.min() * _UNCHECKED_MIN_WEIGHT
    high = w / w.max() * (_UNCHECKED_MAX_MASS - zbar)
    for weights, below, plain in (
        (low, 0.0, True),
        (high, zbar, True),
        (low / 10, 0.0, False),
        (high * 10, zbar, False),
    ):
        calls.clear()
        _table_values(weights, below)
        assert calls == ([n] if plain and n <= 5 else [])


@pytest.mark.parametrize("n", range(1, 14))
def test_each_total_is_the_in_order_sum_of_its_one_bit_removals(n):
    # the block walk reads a step's total from the table in place of adding
    # the candidates up itself, so on an unscaled table every total must be
    # their sum in ascending bit order, bit for bit, from either kernel
    w = np.random.default_rng(n).uniform(0.1, 5.0, size=n)
    kernels = [_table_values_layered]
    if n <= 8:
        kernels.append(lambda w, zbar: _table_values_small([float(x) for x in w], zbar))
    for kernel in kernels:
        for zbar in (0.0, 2.5):
            values, totals, log_scale = kernel(w, zbar)
            assert log_scale == 0.0 and totals[0] == 0.0
            for mask in range(1, 1 << n):
                bits = [1 << i for i in range(n) if mask >> i & 1]
                assert totals[mask] == sum(values[mask ^ bit] for bit in bits)


@pytest.mark.parametrize("n", range(1, 9))
def test_subset_layout_lists_each_layer_and_its_one_bit_removals(n):
    layout = _table_buffers(n)
    assert len(layout.layers) == n
    # positions run through the masks by popcount, each layer ascending
    expected_order = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    assert layout.order.tolist() == expected_order
    assert layout.order[layout.position].tolist() == list(range(1 << n))
    next_start = 1
    for layer, (start, stop, preds, *_) in enumerate(layout.layers, start=1):
        expected = [m for m in range(1 << n) if m.bit_count() == layer]
        assert (start, stop) == (next_start, next_start + len(expected))
        assert layout.order[start:stop].tolist() == expected
        assert preds.shape == (layer, len(expected))
        for col, mask in enumerate(expected):
            bits = [1 << i for i in range(n) if mask >> i & 1]
            assert layout.order[preds[:, col]].tolist() == [mask ^ bit for bit in bits]
        next_start = stop
    assert next_start == 1 << n


def _in_order_rows(gathered):
    numer = gathered[0]
    for row in gathered[1:]:
        numer += row
    return numer


def _mask_layers(n):
    # per popcount layer: its masks ascending, and the (L, C) int32 array of
    # their one-bit removals in ascending bit order, as masks
    all_masks = np.arange(1 << n)
    popcounts = sum((all_masks >> i) & 1 for i in range(n))
    layers = []
    for layer in range(1, n + 1):
        masks = all_masks[popcounts == layer]
        rest = masks.copy()
        preds = np.empty((layer, masks.size), dtype=np.int32)
        for j in range(layer):
            low = rest & -rest
            preds[j] = masks ^ low
            rest ^= low
        layers.append((masks, preds))
    return layers


def _reference_layered(w, zbar, layer_sum=_in_order_rows):
    # the recursion in mask order, a layer at a time, each layer summed row
    # by row in ascending bit order and always checked against the rescale
    # range: the kernel must match it bit for bit
    n = len(w)
    denom = np.zeros(1 << n)
    for i in range(n):
        np.add(denom[: 1 << i], w[i], out=denom[1 << i : 2 << i])
    denom += zbar
    values = np.zeros(1 << n)
    values[0] = 1.0
    totals = np.zeros(1 << n)
    log_scale = 0.0
    for masks, preds in _mask_layers(n):
        numer = layer_sum(values[preds])
        totals[masks] = numer
        numer /= denom[masks]
        values[masks] = numer
        peak = float(numer.max())
        if peak != 0.0 and not (_RESCALE_LO < peak < _RESCALE_HI):
            with np.errstate(over="ignore"):
                values /= peak
                totals /= peak
            log_scale += float(np.log(peak))
    return values, totals, log_scale


@pytest.mark.parametrize("n", range(7, 17))
def test_layered_table_is_bit_identical_to_a_row_by_row_sum(n):
    w = np.random.default_rng(n).uniform(0.1, 5.0, size=n)
    for zbar in (0.0, 2.5):
        for scale in (1.0, 1e-140, 1e140):
            values, totals, log_scale = _table_values_layered(w * scale, zbar)
            expected, expected_totals, expected_scale = _reference_layered(w * scale, zbar)
            assert np.array_equal(values, expected)
            assert np.array_equal(totals, expected_totals)
            assert log_scale == expected_scale


def test_reused_buffers_give_the_tables_of_fresh_ones():
    # every call of a block size shares one set of buffers, also after a
    # call that rescaled its layers, the empty set's entry among them; each
    # call returns fresh tables, which later calls leave as they were
    assert _table_buffers(9) is _table_buffers(9)
    rng = np.random.default_rng(9)
    tables = []
    for scale in (1.0, 1e-140, 1.0, 1e140, 1.0):
        w = rng.uniform(0.1, 5.0, size=9) * scale
        got = _table_values_layered(w, 0.0)
        assert (got[2] != 0.0) == (scale != 1.0)
        tables.append((got, _reference_layered(w, 0.0)))
    for (values, totals, log_scale), expected in tables:
        assert np.array_equal(values, expected[0])
        assert np.array_equal(totals, expected[1])
        assert log_scale == expected[2]


def test_a_bare_sum_on_the_full_mask_layer_changes_the_table():
    # numpy sums the one-column layer's contiguous run pairwise, not in order;
    # at n = 16 and this seed that moves the last bits of the full-mask entry
    w = np.random.default_rng(2).uniform(0.1, 5.0, size=16)
    expected, expected_totals, _ = _reference_layered(w, 2.5)
    bare, _, _ = _reference_layered(w, 2.5, layer_sum=lambda gathered: gathered.sum(axis=0))
    assert not np.array_equal(bare, expected)
    assert np.array_equal(bare[:-1], expected[:-1])
    values, totals, _ = _table_values_layered(w, 2.5)
    assert np.array_equal(values, expected)
    assert np.array_equal(totals, expected_totals)


@pytest.mark.parametrize("n, dtype", [(7, np.intp), (16, np.intp), (17, np.int32)])
def test_subset_layout_indexes_with_intp_up_to_sixteen_classes(n, dtype):
    layout = _table_buffers(n)
    assert all(preds.dtype == dtype for _, _, preds, *_ in layout.layers)
    assert layout.order.dtype == dtype and layout.position.dtype == dtype


@pytest.mark.parametrize("n", [7, 12, 20])
def test_range_guard_boundaries_match_the_checked_kernel(n):
    # inside the guard (min w >= 1e-12 and zbar + max w <= 1e12) the kernel
    # skips the per-layer peak check, and at its boundary must still equal
    # the always-checked reference bit for bit; a tenfold step outside it,
    # where the check runs, the reference rescales at n = 20
    w = np.random.default_rng(n).uniform(1.0, 2.0, size=n)
    low = w / w.min() * 1e-12
    zbar = 0.5e12
    high = w / w.max() * (1e12 - zbar)
    assert low.min() == 1e-12 and zbar + high.max() == 1e12
    for weights, below in ((low, 0.0), (high, zbar), (low / 10, 0.0), (high * 10, zbar)):
        values, totals, log_scale = _table_values_layered(weights, below)
        expected, expected_totals, expected_scale = _reference_layered(weights, below)
        assert np.array_equal(values, expected)
        assert np.array_equal(totals, expected_totals)
        assert log_scale == expected_scale
    if n == 20:
        assert _reference_layered(low / 10, 0.0)[2] != 0.0
        assert _reference_layered(high * 10, zbar)[2] != 0.0


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
    # True once passed as one repetition
    with pytest.raises(ValueError):
        pl_log_likelihood(lam, derm_rankings, repetitions=True)
