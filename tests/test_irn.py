from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from numpy.testing import assert_allclose

from conftest import partial_rankings
from plaus.irn import AllZeroMassError, irn_aggregate, irn_single
from plaus.rankings import ClassSpace, PartialRanking


def test_two_annotator_hand_value():
    # {A} > {B} plus a lone vote for {B}: unnormalized (1, 1.5), so (0.4, 0.6)
    space = ClassSpace(size=3)
    rankings = [PartialRanking([[0], [1]], space), PartialRanking([[1]], space)]
    assert_allclose(sum(irn_single(r) for r in rankings), [1.0, 1.5, 0.0])
    assert_allclose(irn_aggregate(rankings), [0.4, 0.6, 0.0])


def test_single_ranking_block_weights():
    r = PartialRanking([[0], [1, 2], [3]], ClassSpace(size=5))
    assert_allclose(irn_single(r), [1.0, 0.25, 0.25, 1 / 3, 0.0])


def test_last_explicit_block_gets_nothing_when_all_ranked():
    r = PartialRanking([[0], [1]], ClassSpace(size=2))
    assert_allclose(irn_single(r), [1.0, 0.0])


def test_empty_ranking_scores_zero():
    r = PartialRanking([], ClassSpace(size=3))
    assert_allclose(irn_single(r), 0.0)


@given(partial_rankings())
def test_total_mass_is_harmonic_in_block_count(ranking):
    expected = sum(1.0 / i for i in range(1, ranking.num_blocks()))
    assert_allclose(irn_single(ranking).sum(), expected, atol=1e-12)


@given(partial_rankings())
def test_relabeling_classes_permutes_scores(ranking):
    k = ranking.class_space.size
    perm = np.roll(np.arange(k), 1)
    relabeled = PartialRanking(
        [[int(perm[c]) for c in block] for block in ranking.blocks],
        ranking.class_space,
    )
    assert_allclose(irn_single(relabeled)[perm], irn_single(ranking), atol=1e-15)


def test_annotator_order_does_not_matter():
    space = ClassSpace(size=4)
    rankings = [
        PartialRanking([[0], [1]], space),
        PartialRanking([[2, 3]], space),
        PartialRanking([[1]], space),
    ]
    forward = irn_aggregate(rankings)
    backward = irn_aggregate(rankings[::-1])
    assert_allclose(forward, backward)


def test_no_rankings_raises():
    with pytest.raises(AllZeroMassError):
        irn_aggregate([])


def test_all_unranked_raises():
    space = ClassSpace(size=3)
    with pytest.raises(AllZeroMassError):
        irn_aggregate([PartialRanking([], space), PartialRanking([], space)])


def test_mismatched_spaces_raise():
    with pytest.raises(ValueError):
        irn_aggregate(
            [
                PartialRanking([[0]], ClassSpace(size=2)),
                PartialRanking([[0]], ClassSpace(size=3)),
            ]
        )


def test_derm_case_frozen_vector(derm_rankings):
    scores = irn_aggregate(derm_rankings)
    expected = [
        Fraction(6, 52),
        Fraction(17, 52),
        Fraction(14, 52),
        Fraction(6, 52),
        Fraction(3, 52),
        Fraction(3, 52),
        Fraction(1, 52),
        Fraction(2, 52),
    ]
    assert_allclose(scores, [float(f) for f in expected], atol=1e-12)
    assert np.argmax(scores) == 1  # Hemangioma
