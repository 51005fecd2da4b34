import itertools

import numpy as np
import pytest
from hypothesis import given
from numpy.testing import assert_array_equal

from conftest import partial_rankings
from plaus.rankings import (
    ClassIdOutOfRangeError,
    ClassSpace,
    CombinatorialCapError,
    DuplicateClassAcrossBlocksError,
    EmptyBlockError,
    PartialRanking,
    count_compatible_permutations,
    enumerate_compatible_permutations,
    permutation_matrix,
    to_block_matrix,
    to_soft_permutation,
)


def test_class_space_validates_size():
    with pytest.raises(ValueError):
        ClassSpace(size=0)
    with pytest.raises(ValueError):
        ClassSpace(size=3, names=("a", "b"))


def test_class_space_risk_validation():
    with pytest.raises(ValueError):
        ClassSpace(size=2, risk={0: 5})
    with pytest.raises(ClassIdOutOfRangeError):
        ClassSpace(size=2, risk={7: 1})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"size": True},
        {"size": 2.0},
        {"size": 2, "risk": {True: 1}},
        {"size": 2, "risk": {1.0: 1}},
        {"size": 2, "risk": {1: True}},
        {"size": 2, "risk": {1: 1.0}},
    ],
)
def test_class_space_refuses_booleans_and_floats(kwargs):
    # bool is an int, so True would pass as size 1, class 1 or level 1
    with pytest.raises(ValueError):
        ClassSpace(**kwargs)
    space = ClassSpace(size=3, risk={np.int64(1): np.int64(2)})
    assert space.risk_levels[0].tolist() == [0.0, 2.0, 0.0]


def test_a_named_space_takes_its_risk_map_by_name():
    space = ClassSpace(size=3, names=("a", "b", "c"), risk={"c": 2, 0: 1})
    assert space.risk == {2: 2, 0: 1}
    assert space.risk_levels[0].tolist() == [1.0, 0.0, 2.0]
    with pytest.raises(KeyError, match="'d'"):
        ClassSpace(size=3, names=("a", "b", "c"), risk={"d": 0})
    with pytest.raises(KeyError, match="'0'"):
        ClassSpace(size=3, risk={"0": 0})
    with pytest.raises(ValueError, match="two levels"):
        ClassSpace(size=3, names=("a", "b", "c"), risk={"a": 0, 0: 1})


def test_class_space_name_lookup():
    space = ClassSpace(size=2, names=("cat", "dog"))
    assert space.id_of("cat") == 0
    with pytest.raises(KeyError):
        space.id_of("ferret")
    with pytest.raises(KeyError):
        ClassSpace(size=2).id_of("0")
    # a repeated name would have no one id
    with pytest.raises(ValueError, match="^class names must be unique$"):
        ClassSpace(size=2, names=("cat", "cat"))


def test_empty_block_rejected():
    with pytest.raises(EmptyBlockError):
        PartialRanking([[0], []], ClassSpace(size=3))


def test_duplicate_class_rejected():
    with pytest.raises(DuplicateClassAcrossBlocksError):
        PartialRanking([[0, 1], [1]], ClassSpace(size=3))


def test_out_of_range_and_non_integer_ids_rejected():
    space = ClassSpace(size=3)
    with pytest.raises(ClassIdOutOfRangeError):
        PartialRanking([[3]], space)
    with pytest.raises(ClassIdOutOfRangeError):
        PartialRanking([[-1]], space)
    with pytest.raises(ClassIdOutOfRangeError):
        PartialRanking([[True]], space)
    with pytest.raises(ClassIdOutOfRangeError):
        PartialRanking([["0"]], space)


def test_partition_appends_unranked_only_when_nonempty():
    space3 = ClassSpace(size=3)
    assert PartialRanking([[0], [1]], space3).partition() == (
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    )
    space2 = ClassSpace(size=2)
    full = PartialRanking([[0], [1]], space2)
    assert full.partition() == (frozenset({0}), frozenset({1}))


def test_ranked_and_unranked_properties():
    r = PartialRanking([[2, 0]], ClassSpace(size=4))
    assert r.ranked == {0, 2}
    assert r.unranked == {1, 3}
    empty = PartialRanking([], ClassSpace(size=4))
    assert empty.ranked == frozenset()
    assert empty.unranked == {0, 1, 2, 3}
    assert empty.partition() == (frozenset({0, 1, 2, 3}),)


def test_count_includes_unranked_block():
    # one ranked singleton, three unranked: 1! * 3!
    r = PartialRanking([[0]], ClassSpace(size=4))
    assert count_compatible_permutations(r) == 6


@given(partial_rankings(max_classes=6))
def test_enumeration_matches_count_and_block_order(ranking):
    perms = list(enumerate_compatible_permutations(ranking))
    assert len(perms) == count_compatible_permutations(ranking)
    assert len(set(perms)) == len(perms)
    cum = np.cumsum([len(b) for b in ranking.partition()])
    for sigma in perms:
        start = 0
        for block, stop in zip(ranking.partition(), cum):
            assert set(sigma[start:stop]) == set(block)
            start = stop


@given(partial_rankings(max_classes=6, max_block=3))
def test_enumeration_order_is_the_product_of_block_permutations(ranking):
    parts = [sorted(b) for b in ranking.partition()]
    expected = [
        tuple(itertools.chain.from_iterable(pieces))
        for pieces in itertools.product(*(itertools.permutations(p) for p in parts))
    ]
    assert list(enumerate_compatible_permutations(ranking)) == expected


def test_enumeration_cap():
    # 11! compatible orderings of a single unranked block exceed the cap
    r = PartialRanking([], ClassSpace(size=11))
    with pytest.raises(CombinatorialCapError):
        list(enumerate_compatible_permutations(r))
    lifted = enumerate_compatible_permutations(r, cap=50_000_000)
    assert len(list(itertools.islice(lifted, 3))) == 3
    # a cap equal to the count admits every ordering; one less refuses them
    r = PartialRanking([[0, 1, 2]], ClassSpace(size=5))
    assert len(set(enumerate_compatible_permutations(r, cap=12))) == 12
    with pytest.raises(CombinatorialCapError):
        next(enumerate_compatible_permutations(r, cap=11))


def test_worked_block_matrices():
    # {0,4} > {1,2} > {3} over five classes
    r = PartialRanking([[0, 4], [1, 2], [3]], ClassSpace(size=5))
    bm = to_block_matrix(r)
    assert_array_equal(
        bm.membership,
        [[1, 0, 0, 0, 1], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0]],
    )
    assert_array_equal(
        bm.structure,
        [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]],
    )
    assert_array_equal(bm.cum_sizes, [2, 4, 5])
    assert bm.membership.shape == (3, 5)


def test_trailing_block_becomes_explicit_row():
    r = PartialRanking([[1]], ClassSpace(size=3))
    bm = to_block_matrix(r)
    assert_array_equal(bm.membership, [[0, 1, 0], [1, 0, 1]])


def test_permutation_matrix_entries():
    p = permutation_matrix([2, 0, 1])
    assert_array_equal(p, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])


@given(partial_rankings(max_classes=6))
def test_membership_factors_through_any_compatible_permutation(ranking):
    bm = to_block_matrix(ranking)
    for sigma in enumerate_compatible_permutations(ranking):
        assert_array_equal(bm.membership, bm.structure @ permutation_matrix(sigma))


def test_soft_permutation_frozen_rows():
    # {3} > {0,2} > {1} over four classes
    r = PartialRanking([[3], [2, 0], [1]], ClassSpace(size=4))
    assert_array_equal(
        to_soft_permutation(r),
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ],
    )


@given(partial_rankings(max_classes=5))
def test_soft_permutation_is_mean_of_hard_ones(ranking):
    perms = list(enumerate_compatible_permutations(ranking))
    mean = np.mean([permutation_matrix(s) for s in perms], axis=0)
    np.testing.assert_allclose(to_soft_permutation(ranking), mean, atol=1e-12)


@given(partial_rankings())
def test_soft_permutation_doubly_stochastic(ranking):
    soft = to_soft_permutation(ranking)
    np.testing.assert_allclose(soft.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(soft.sum(axis=1), 1.0, atol=1e-12)
