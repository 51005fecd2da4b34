import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import partial_rankings
from plaus.metrics import (
    _BLOCK_ENTRIES,
    MissingRiskMappingError,
    _overlap_curve,
    _risk_inputs,
    _risk_pass,
    _top_indices,
    PredictionSet,
    annotation_certainty_hits,
    annotation_certainty_topj,
    average_overlap,
    case_metrics,
    loo_agreement,
    mean_average_overlap,
    overlap,
    risk_metrics,
    summarize_metric,
    ua_average_overlap,
    ua_set_accuracy,
    ua_set_hits,
    ua_topk_accuracy,
    ua_topk_hits,
)
from plaus.rankings import ClassSpace, PartialRanking, enumerate_compatible_permutations
from plaus.samples import PosteriorSamples


def test_prediction_set_validation():
    with pytest.raises(ValueError):
        PredictionSet((1, 1, 2))
    with pytest.raises(ValueError):
        PredictionSet(())
    pred = PredictionSet((2, 0))
    assert pred.top(1) == (2,)
    with pytest.raises(ValueError):
        pred.top(3)


@pytest.mark.parametrize("ids", [(1.7, 0), (True, 0), ("1", 0), (1, None)])
def test_prediction_set_refuses_non_integer_ids(ids):
    # int() would have read 1.7, True and "1" as class 1
    with pytest.raises(ValueError, match="not an integer"):
        PredictionSet(ids)
    ranked = PredictionSet((np.int64(1), 0)).ranked_classes
    assert ranked == (1, 0) and all(type(c) is int for c in ranked)


def test_argmax_ties_break_to_the_lower_id():
    assert ua_topk_accuracy(np.array([[0.5, 0.5]]), PredictionSet((0,)), 1) == 1.0
    assert_array_equal(_top_indices(np.array([[0.25, 0.5, 0.25]]), 3), [[1, 0, 2]])


def test_topj_certainty_modal_set():
    samples = np.array(
        [
            [0.5, 0.3, 0.2],
            [0.3, 0.5, 0.2],  # top-2 set {0,1} again, different order
            [0.2, 0.3, 0.5],
        ]
    )
    assert_allclose(annotation_certainty_topj(samples, 2), 2 / 3)
    assert_allclose(annotation_certainty_topj(samples, 3), 1.0)
    with pytest.raises(ValueError):
        annotation_certainty_topj(samples, 4)
    for j, hits in ((1, [1.0, 0.0, 0.0]), (2, [1.0, 1.0, 0.0]), (3, [1.0, 1.0, 1.0])):
        per_sample = annotation_certainty_hits(samples, j)
        assert_array_equal(per_sample, hits)
        assert per_sample.mean() == annotation_certainty_topj(samples, j)


def _unique_modal_hits(samples, j):
    # the modal top-j set through np.unique, which sorts sets lexicographically
    sets = np.sort(np.argsort(-samples, axis=1, kind="stable")[:, :j], axis=1)
    uniq, counts = np.unique(sets, axis=0, return_counts=True)
    return np.all(sets == uniq[counts.argmax()], axis=1).astype(float)


def _lexsort_modal_hits(samples, j, order):
    # sort the sets lexicographically and count runs of equal ones; the first
    # longest run is the lowest modal set
    sets = np.sort(order[:, :j], axis=1)
    ranked = sets[np.lexsort(sets.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, len(ranked)])
    return np.all(sets == ranked[starts[counts.argmax()]], axis=1).astype(float)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("m", [1, 2, 7, 200])
def test_modal_set_hits_match_the_unique_reference(seed, m):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 13))
    # a sparse Dirichlet makes repeated top sets, hence runs and near-ties
    samples = rng.dirichlet(np.full(k, 0.2), size=m)
    order = np.argsort(-samples, axis=1, kind="stable")
    for j in range(1, min(k, 6) + 1):
        hits = annotation_certainty_hits(samples, j)
        assert_array_equal(hits, _unique_modal_hits(samples, j))
        assert_array_equal(hits, _lexsort_modal_hits(samples, j, order))


@pytest.mark.parametrize("seed", range(3))
def test_modal_set_codes_stay_ordered_past_int64(seed):
    # with 2000 classes, five base-2000 digits fill int64, so deeper sets
    # switch to dense ranks; mass on a few classes repeats sets, and the
    # zero columns make exact ties that go to the lower id
    rng = np.random.default_rng(seed)
    m, k = 300, 2000
    samples = np.zeros((m, k))
    hot = rng.choice(k, size=9, replace=False)
    samples[:, hot] = rng.dirichlet(np.full(9, 0.3), size=m)
    order = _top_indices(samples, 8)
    for j in range(1, 9):
        assert_array_equal(
            annotation_certainty_hits(samples, j, order=order),
            _lexsort_modal_hits(samples, j, order),
        )
    # two 7-sets, three samples each: the lexicographically lower one must
    # win, which a code that wrapped around int64 would get wrong about half
    # the time
    weights = [0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05]
    for _ in range(20):
        sets = [rng.choice(k, size=7, replace=False) for _ in range(2)]
        tied = np.zeros((6, k))
        for row in range(6):
            tied[row, sets[row % 2]] = weights
        order = _top_indices(tied, 7)
        assert_array_equal(
            annotation_certainty_hits(tied, 7, order=order), _lexsort_modal_hits(tied, 7, order)
        )


def test_modal_set_tie_goes_to_the_lowest_set():
    # top-2 sets {1, 2} and {0, 3} twice each, {0, 1} once: {0, 3} is lower
    samples = np.array(
        [
            [0.1, 0.4, 0.3, 0.2],
            [0.4, 0.1, 0.2, 0.3],
            [0.1, 0.3, 0.4, 0.2],
            [0.3, 0.1, 0.2, 0.4],
            [0.4, 0.3, 0.2, 0.1],
        ]
    )
    expected = [0.0, 1.0, 0.0, 1.0, 0.0]
    assert_array_equal(annotation_certainty_hits(samples, 2), expected)
    assert_array_equal(annotation_certainty_hits(samples[::-1], 2), expected[::-1])
    assert_array_equal(_unique_modal_hits(samples, 2), expected)


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 12))
def test_top_indices_equal_the_stable_argsort_prefix(seed, m, k):
    # few distinct values make exact ties common; zero columns and one-hot
    # rows are the PrIRN and point-mass shapes
    rng = np.random.default_rng(seed)
    arr = rng.choice([0.0, 0.1, 0.25, 0.5], size=(m, k))
    arr[:, rng.random(k) < 0.3] = 0.0
    one_hot = rng.random(m) < 0.2
    arr[one_hot] = np.eye(k)[rng.integers(0, k, size=one_hot.sum())]
    for depth in range(1, k + 1):
        expected = np.argsort(-arr, axis=1, kind="stable")[:, :depth]
        assert_array_equal(_top_indices(arr, depth), expected)


@pytest.mark.parametrize("seed", range(3))
def test_top_indices_equal_the_stable_argsort_across_row_blocks(seed):
    # K = 10,000 puts three rows in a selection block, so 20 rows span seven
    # blocks, the last one short (narrow matrices, one block each, are the
    # test above). Few distinct values and zero columns tie in every row.
    rng = np.random.default_rng(seed)
    m, k = 20, 10_000
    assert m > 2 * (_BLOCK_ENTRIES // k) and m % (_BLOCK_ENTRIES // k)
    arr = rng.choice([0.0, 0.1, 0.25, 0.5], size=(m, k))
    arr[:, rng.random(k) < 0.2] = 0.0
    expected = np.argsort(-arr, axis=1, kind="stable")
    for depth in (1, 2, 5, 33, k - 1, k):
        assert_array_equal(_top_indices(arr, depth), expected[:, :depth])


def test_kernels_slice_a_shared_order():
    rng = np.random.default_rng(3)
    samples = rng.dirichlet(np.full(6, 0.3), size=50)
    pred = PredictionSet((4, 1, 0, 2))
    order = _top_indices(samples, 4)
    for kernel, args in (
        *((annotation_certainty_hits, (k,)) for k in (1, 2, 3)),
        *((ua_topk_hits, (pred, k)) for k in (1, 2, 3)),
        *((ua_set_hits, (pred, k)) for k in (1, 2, 3)),
        (_overlap_curve, (pred, 4)),
    ):
        assert_array_equal(kernel(samples, *args, order=order), kernel(samples, *args))
    with pytest.raises(ValueError):
        ua_set_hits(samples, pred, 3, order=order[:, :2])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("depth", [4, 8, 10])
def test_case_metrics_equal_each_kernel_called_alone(seed, depth):
    # three distinct values over twelve classes make exact ties in every
    # row; the cutoffs reach from one class to ten
    rng = np.random.default_rng(seed)
    k = 12
    raw = rng.choice([0.1, 0.25, 0.5], size=(60, k))
    samples = PosteriorSamples(raw / raw.sum(axis=1, keepdims=True))
    pred = PredictionSet(tuple(rng.permutation(k)[:depth].tolist()))
    space = ClassSpace(size=k, risk={c: int(rng.integers(0, 3)) for c in range(k)})
    k_grid = (1, 3, depth)
    scalars, vectors = case_metrics(samples, space, pred, k_grid, depth)

    alone = {
        f"annotation_certainty_top{j}": annotation_certainty_hits(samples, j) for j in (1, 2, 3)
    }
    for cutoff in k_grid:
        alone[f"ua_top{cutoff}_accuracy"] = ua_topk_hits(samples, pred, cutoff)
        alone[f"ua_set{cutoff}_accuracy"] = ua_set_hits(samples, pred, cutoff)
    alone["ua_average_overlap"] = _overlap_curve(samples, pred, depth)
    risk = risk_metrics(samples, space, pred)
    del risk["top_risk_level"], risk["predicted_risk_level"]
    assert sorted(vectors) == sorted([*alone, "risk_certainty", "expected_risk_mean"])
    assert sorted(scalars) == sorted([*alone, *risk])
    for name, values in alone.items():
        assert_array_equal(vectors[name], values if values.ndim == 1 else values.mean(axis=0))
        assert scalars[name] == float(values.mean())
    for name, value in risk.items():
        assert scalars[name] == value
    assert vectors["risk_certainty"].mean() == risk["risk_certainty"]
    assert_array_equal(vectors["expected_risk_mean"], _risk_pass(samples, space)[2])


def test_case_metrics_leave_out_cutoffs_deeper_than_the_prediction_or_space():
    samples = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
    space = ClassSpace(size=3)
    certainty = [f"annotation_certainty_top{j}" for j in (1, 2, 3)]
    top = ["ua_set1_accuracy", "ua_set2_accuracy", "ua_top1_accuracy", "ua_top2_accuracy"]
    # a two-class prediction: k = 5 and the overlap to depth 4 are left out
    scalars, vectors = case_metrics(samples, space, PredictionSet((2, 0)), (1, 2, 5), 4)
    assert sorted(scalars) == sorted(vectors) == certainty + top
    scalars, _ = case_metrics(samples, space, PredictionSet((2, 0, 1)), (2,), 3)
    assert sorted(scalars) == [*certainty, "ua_average_overlap", *top[1::2]]
    # a two-class space: top-j certainty stops at j = 2, and so does any
    # prediction on it, so k = 3 is left out
    pair = ClassSpace(size=2)
    two = samples[:, :2] / samples[:, :2].sum(axis=1, keepdims=True)
    scalars, _ = case_metrics(two, pair, PredictionSet((1, 0)), (1, 3), 2)
    assert sorted(scalars) == [*certainty[:2], "ua_average_overlap", *top[::2]]
    assert sorted(case_metrics(samples, space, None, (1,), 1)[0]) == certainty


def test_case_metrics_check_a_bare_matrix_once(monkeypatch):
    # every kernel once wrapped the matrix in a new PosteriorSamples of its own
    checks = []
    post_init = PosteriorSamples.__post_init__
    monkeypatch.setattr(
        PosteriorSamples, "__post_init__", lambda self: checks.append(1) or post_init(self)
    )
    rng = np.random.default_rng(0)
    matrix = rng.dirichlet(np.ones(6), size=100)
    space = ClassSpace(size=6, risk=dict(enumerate([0, 1, 2, 0, 1, 2])))
    pred = PredictionSet((0, 1, 2))
    got = case_metrics(matrix, space, pred, (1, 2, 3), 3)
    assert len(checks) == 1
    wrapped = PosteriorSamples(matrix)
    checks.clear()
    expected = case_metrics(wrapped, space, pred, (1, 2, 3), 3)
    assert len(checks) == 0
    assert got[0] == expected[0]
    for name, values in expected[1].items():
        assert_array_equal(got[1][name], values)


_INVALID_MATRICES = {
    "nan": ([[0.5, np.nan, 0.5], [0.2, 0.3, 0.5]], "samples must be finite"),
    "negative": ([[0.6, -0.1, 0.5], [0.2, 0.3, 0.5]], "samples must be non-negative"),
    "off-simplex": ([[0.5, 0.3, 0.2 + 1e-6], [0.2, 0.3, 0.5]], "sample rows must sum to 1"),
}
_SAMPLE_SCORERS = {
    "annotation_certainty_topj": lambda samples: annotation_certainty_topj(samples, 1),
    "ua_topk_accuracy": lambda samples: ua_topk_accuracy(samples, PredictionSet((0, 1)), 1),
    "risk_metrics": lambda samples: risk_metrics(
        samples, ClassSpace(size=3, risk={0: 0, 1: 1, 2: 2})
    ),
    "case_metrics": lambda samples: case_metrics(
        samples, ClassSpace(size=3, risk={0: 0, 1: 1, 2: 2}), PredictionSet((0, 1)), (1, 2), 2
    ),
}


@pytest.mark.parametrize("scorer", sorted(_SAMPLE_SCORERS))
@pytest.mark.parametrize("matrix", sorted(_INVALID_MATRICES))
def test_metrics_refuse_a_matrix_posterior_samples_refuses(scorer, matrix):
    # every kernel assumes finite, non-negative rows that sum to one, so a
    # bare matrix meets the same checks as a PosteriorSamples, with its message
    rows, message = _INVALID_MATRICES[matrix]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}") as refused:
        PosteriorSamples(np.array(rows))
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        _SAMPLE_SCORERS[scorer](np.array(rows))
    valid = np.array(rows)
    valid[0] = [0.5, 0.3, 0.2]
    _SAMPLE_SCORERS[scorer](valid)


def test_posterior_samples_reject_non_finite_entries():
    # every comparison with NaN is False, so the sign and sum checks let it by
    with pytest.raises(ValueError, match="finite"):
        PosteriorSamples(np.array([[np.nan, 0.5, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        PosteriorSamples(np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[np.nan, 0.5, 0.5]], "samples must be finite"),
        ([[np.inf, 0.0, 0.0]], "samples must be finite"),
        ([[0.5, 0.5, 0.0], [-np.inf, 1.0, 0.0]], "samples must be finite"),
        ([[np.inf, -np.inf, 1.0]], "samples must be finite"),
        ([[0.5, 0.5, 0.0], [1.5, -0.5, np.inf]], "samples must be finite"),
        ([[0.5, 0.5, 0.0], [1.1, -0.1, 0.0]], "samples must be non-negative"),
        ([[-0.0, 0.5, 0.5], [0.2, 0.2, 0.2]], r"sample rows must sum to 1 \(worst deviation 0.4\)"),
    ],
)
def test_posterior_samples_name_the_first_check_that_fails(rows, message):
    # checks run in order: finite, non-negative, on the simplex
    with pytest.raises(ValueError, match=f"^{message}$"):
        PosteriorSamples(np.array(rows))


def test_posterior_samples_hold_rows_to_the_simplex():
    rows = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    with pytest.raises(ValueError, match="sum to 1"):
        PosteriorSamples(rows * np.array([[1.0], [1.01]]))
    with pytest.raises(ValueError, match="non-negative"):
        PosteriorSamples(np.array([[1.1, -0.1]]))
    near = rows.copy()
    near[0, 0] += 5e-10
    assert PosteriorSamples(near).samples.shape == (2, 3)


def test_ua_topk_against_hand_counts():
    samples = np.array([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.2, 0.1, 0.7]])
    pred = PredictionSet((0, 1))
    assert_array_equal(ua_topk_hits(samples, pred, 1), [1.0, 0.0, 0.0])
    assert_allclose(ua_topk_accuracy(samples, pred, 2), 2 / 3)
    # an empty top-0 set holds no sample's best class
    assert_array_equal(ua_topk_hits(samples, pred, 0), [0.0, 0.0, 0.0])
    assert ua_topk_accuracy(samples, pred, 0) == 0.0


def test_ua_set_matches_unordered_sets():
    samples = np.array([[0.5, 0.4, 0.1], [0.4, 0.5, 0.1], [0.1, 0.4, 0.5]])
    pred = PredictionSet((1, 0))
    assert_array_equal(ua_set_hits(samples, pred, 2), [1.0, 1.0, 0.0])
    assert_allclose(ua_set_accuracy(samples, pred, 2), 2 / 3)


@pytest.mark.parametrize("seed", range(12))
def test_ua_set_hits_match_the_row_sort(seed):
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(1, 60)), int(rng.integers(1, 12))
    # Coarse weights, so rows hold ties.
    samples = rng.integers(1, 4, size=(m, k)).astype(float)
    samples /= samples.sum(axis=1, keepdims=True)
    pred = PredictionSet(tuple(rng.permutation(k)))
    order = np.argsort(-samples, axis=1, kind="stable")
    for depth in range(k + 1):
        target = np.sort(pred.top(depth))
        expected = np.all(np.sort(order[:, :depth], axis=1) == target, axis=1).astype(float)
        assert_array_equal(ua_set_hits(samples, pred, depth), expected)
        assert_array_equal(ua_set_hits(samples, pred, depth, order=order), expected)


@given(st.integers(0, 2**32 - 1))
def test_set_accuracy_never_beats_topk(seed):
    rng = np.random.default_rng(seed)
    samples = rng.dirichlet(np.ones(4), size=30)
    pred = PredictionSet(tuple(rng.permutation(4)[:3]))
    for k in (1, 2, 3):
        set_hits = ua_set_hits(samples, pred, k)
        top_hits = ua_topk_hits(samples, pred, k)
        assert np.all(set_hits <= top_hits)


@given(st.integers(0, 2**32 - 1))
def test_topk_accuracy_is_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    samples = rng.dirichlet(np.ones(5), size=40)
    pred = PredictionSet(tuple(rng.permutation(5)))
    accs = [ua_topk_accuracy(samples, pred, k) for k in range(1, 6)]
    assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))
    assert accs[-1] == 1.0


def _isin_overlap_curve(samples, prediction, depth):
    order = np.argsort(-samples, axis=1, kind="stable")
    out = np.empty((depth, samples.shape[0]))
    for k in range(1, depth + 1):
        candidate = np.asarray(prediction.top(k), dtype=np.int64)
        out[k - 1] = np.isin(order[:, :k], candidate).sum(axis=1) / k
    return out


@pytest.mark.parametrize("seed", range(4))
def test_overlap_curve_matches_the_per_cutoff_isin_loop(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 12))
    samples = rng.dirichlet(np.full(k, 0.3), size=60)
    samples[:5] = np.eye(k)[rng.integers(0, k, size=5)]  # ties among zeros
    ranked = rng.permutation(k)
    cases = [PredictionSet(tuple(ranked[:length])) for length in range(1, k + 1)]
    for prediction in cases:
        for depth in range(1, len(prediction.ranked_classes) + 1):
            curve = _overlap_curve(samples, prediction, depth)
            assert curve.flags.c_contiguous
            assert_array_equal(curve, _isin_overlap_curve(samples, prediction, depth))


_SCORERS = {
    "case_metrics": lambda samples, prediction: case_metrics(
        samples, ClassSpace(size=samples.shape[1]), prediction, (1, 2), 2
    ),
    "ua_topk_hits": lambda samples, prediction: ua_topk_hits(samples, prediction, 1),
    "ua_topk_accuracy": lambda samples, prediction: ua_topk_accuracy(samples, prediction, 1),
    "ua_set_hits": lambda samples, prediction: ua_set_hits(samples, prediction, 1),
    "ua_set_accuracy": lambda samples, prediction: ua_set_accuracy(samples, prediction, 1),
    "ua_average_overlap": lambda samples, prediction: ua_average_overlap(samples, prediction, 2),
}


@pytest.mark.parametrize("scorer", sorted(_SCORERS))
def test_a_prediction_outside_the_class_space_is_refused(scorer):
    # no sample can rank class 2 or -1 of a two-class space, so scoring such
    # a prediction would only deflate the metric; ids past the cutoffs the
    # kernel reads are refused too
    samples = np.array([[0.7, 0.3], [0.4, 0.6]])
    score = _SCORERS[scorer]
    for ids in ((1, 0, 2), (2,), (0, -1), (1, 0, 5)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
            score(samples, PredictionSet(ids))
    score(samples, PredictionSet((1, 0)))


def test_overlap_basics():
    assert overlap([1, 2], [2, 3]) == 0.5
    assert overlap([1], [1]) == 1.0
    with pytest.raises(ValueError):
        overlap([], [1])


def test_average_overlap_hand_value():
    # prefixes of (0,1,2) vs (1,0,2): 0, 1, 1
    assert_allclose(average_overlap([0, 1, 2], [1, 0, 2], 3), 2 / 3)
    with pytest.raises(ValueError):
        average_overlap([0, 1], [1, 0], 3)


def test_point_mass_reduces_to_classical_metrics():
    lam = np.array([0.1, 0.5, 0.15, 0.25])
    point = PosteriorSamples.point_mass(lam)
    pred = PredictionSet((1, 3, 0))
    order = np.argsort(-lam, kind="stable")
    assert ua_topk_accuracy(point, pred, 1) == 1.0
    assert ua_set_accuracy(point, pred, 2) == float(
        set(pred.top(2)) == set(order[:2].tolist())
    )
    classical = np.mean(
        [overlap(pred.top(k), order[:k]) for k in (1, 2, 3)]
    )
    assert_allclose(ua_average_overlap(point, pred, 3), classical, atol=1e-12)


def test_ua_average_overlap_between_zero_and_one():
    rng = np.random.default_rng(3)
    samples = rng.dirichlet(np.ones(5), size=100)
    pred = PredictionSet((4, 2, 0))
    value = ua_average_overlap(samples, pred, 3)
    assert 0.0 < value <= 1.0
    with pytest.raises(ValueError):
        ua_average_overlap(samples, pred, 0)


@given(partial_rankings(max_classes=8))
def test_mean_average_overlap_self_similarity_is_one(ranking):
    k = ranking.class_space.size
    for depth in (1, max(1, k // 2), k):
        assert_allclose(mean_average_overlap(ranking, ranking, depth), 1.0, atol=1e-12)


@given(partial_rankings(max_classes=6), st.integers(0, 2**32 - 1))
def test_mean_average_overlap_is_symmetric(ranking_a, seed):
    k = ranking_a.class_space.size
    rng = np.random.default_rng(seed)
    order = rng.permutation(k)
    ranking_b = PartialRanking([[int(c)] for c in order[: k // 2]], ranking_a.class_space)
    ab = mean_average_overlap(ranking_a, ranking_b, k)
    ba = mean_average_overlap(ranking_b, ranking_a, k)
    assert_allclose(ab, ba, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_full_rankings_recover_classical_average_overlap(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    space = ClassSpace(size=k)
    sigma_a = rng.permutation(k)
    sigma_b = rng.permutation(k)
    a = PartialRanking([[int(c)] for c in sigma_a], space)
    b = PartialRanking([[int(c)] for c in sigma_b], space)
    depth = int(rng.integers(1, k + 1))
    assert_allclose(
        mean_average_overlap(a, b, depth),
        average_overlap(sigma_a, sigma_b, depth),
        atol=1e-12,
    )


@given(partial_rankings(max_classes=4), st.integers(0, 2**32 - 1))
def test_mean_average_overlap_matches_enumeration(ranking_a, seed):
    # the soft-matrix trace equals averaging classical overlap over all
    # pairs of compatible orderings, up to the self-similarity normalizer
    rng = np.random.default_rng(seed)
    k = ranking_a.class_space.size
    order = rng.permutation(k)
    ranked = int(rng.integers(0, k + 1))
    blocks, start = [], 0
    while start < ranked:
        size = int(rng.integers(1, ranked - start + 1))
        blocks.append([int(c) for c in order[start : start + size]])
        start += size
    ranking_b = PartialRanking(blocks, ranking_a.class_space)
    depth = k

    def raw(x, y):
        perms_x = list(enumerate_compatible_permutations(x))
        perms_y = list(enumerate_compatible_permutations(y))
        return np.mean(
            [
                average_overlap(sx, sy, depth)
                for sx in perms_x
                for sy in perms_y
            ]
        )

    expected = raw(ranking_a, ranking_b) / np.sqrt(
        raw(ranking_a, ranking_a) * raw(ranking_b, ranking_b)
    )
    assert_allclose(mean_average_overlap(ranking_a, ranking_b, depth), expected, atol=1e-12)


def test_mean_average_overlap_validation():
    a = PartialRanking([[0]], ClassSpace(size=2))
    b = PartialRanking([[0]], ClassSpace(size=3))
    with pytest.raises(ValueError):
        mean_average_overlap(a, b, 1)
    with pytest.raises(ValueError):
        mean_average_overlap(a, a, 3)


def frozen_risk_case():
    # classes 0 and 2 are low risk, class 1 high; the top class is always 1
    # but pooled low mass wins in three of five samples
    samples = np.array(
        [
            [0.3, 0.4, 0.3],
            [0.3, 0.4, 0.3],
            [0.3, 0.4, 0.3],
            [0.1, 0.6, 0.3],
            [0.1, 0.6, 0.3],
        ]
    )
    space = ClassSpace(size=3, risk={0: 0, 1: 2, 2: 0})
    return samples, space


def test_risk_metrics_frozen_case():
    samples, space = frozen_risk_case()
    out = risk_metrics(samples, space)
    assert out["risk_certainty"] == 0.6
    assert out["top_risk_level"] == 0
    assert_allclose(out["expected_risk_mean"], 0.96)
    assert_allclose(out["expected_risk_min"], 0.8)
    assert_allclose(out["expected_risk_max"], 1.2)
    _, vectors = case_metrics(samples, space, None, (), 1)
    hits = vectors["risk_certainty"]
    assert_array_equal(hits, [1.0, 1.0, 1.0, 0.0, 0.0])
    assert hits.mean() == out["risk_certainty"]
    expected = vectors["expected_risk_mean"]
    assert_allclose(expected, [0.8, 0.8, 0.8, 1.2, 1.2])
    assert expected.mean() == out["expected_risk_mean"]
    assert expected.min() == out["expected_risk_min"]
    assert expected.max() == out["expected_risk_max"]


def test_exact_pooled_risk_ties_go_to_the_lower_level():
    # sample 0 pools 0.375 on both low and high risk; sample 1 favours high.
    # The top levels (0, 2) then tie for the mode, which goes to low as well.
    samples = np.array([[0.375, 0.25, 0.125, 0.25], [0.5, 0.25, 0.125, 0.125]])
    space = ClassSpace(size=4, risk={0: 2, 1: 0, 2: 0, 3: 1})
    assert_array_equal(case_metrics(samples, space, None, (), 1)[1]["risk_certainty"], [1.0, 0.0])
    out = risk_metrics(samples, space, PredictionSet((0,)))
    assert out["top_risk_level"] == 0
    assert out["ua_risk_match"] == 0.5


def _ordered_risk_levels(arr, risk):
    # the definition: a level's mass is the sum over its columns as numpy
    # sums a boolean column copy (in column order for two or more rows,
    # pairwise for one), ties to the lower level
    pooled = np.stack([arr[:, risk == level].sum(axis=1) for level in range(3)], axis=1)
    return pooled.argmax(axis=1)


def _planted_risk_rows(rng, m, n=12):
    # levels 0 and 1 hold the same n values, level 1 in reverse column
    # order, so their in-order sums tie exactly or sit an ulp or so apart;
    # a bumped last value moves level 1 up by about an ulp more; level 2
    # holds small filler
    values = rng.random((m, n)) * rng.choice([1.0, 1e-3], size=(m, n))
    arr = np.concatenate([values, values[:, ::-1], rng.random((m, 8)) * 1e-3], axis=1)
    bumped = rng.random(m) < 0.3
    arr[bumped, 2 * n - 1] = np.nextafter(arr[bumped, 2 * n - 1], 1.0)
    risk = np.array([0] * n + [1] * n + [2] * 8)
    space = ClassSpace(size=arr.shape[1], risk={c: int(r) for c, r in enumerate(risk)})
    return arr, risk, space


@pytest.mark.parametrize("seed", range(3))
def test_risk_pass_levels_equal_the_ordered_sums(seed):
    # _risk_pass pools each level once, in whatever order its product adds
    # terms. K terms summed in any order land within gamma_K A of their exact
    # sum, where gamma_K = K u / (1 - K u), u is the unit roundoff and A the
    # sum of the terms, so two orders can move the gap between two levels by
    # at most 2 gamma_K A. Where the ordered sums' two largest masses lie
    # more than 4 gamma_K A apart (twice that, for the rounding of A itself),
    # both orders pick the same level. The planted near ties fall inside
    # that margin, and Dirichlet rows mostly outside it.
    rng = np.random.default_rng(seed)
    arr, risk, space = _planted_risk_rows(rng, 400)
    spread = rng.dirichlet(np.full(arr.shape[1], 0.5), size=400)
    normalized = np.concatenate([arr / arr.sum(axis=1, keepdims=True), spread])
    pooled = np.stack([normalized[:, risk == lv].sum(axis=1) for lv in range(3)], axis=1)
    gaps = np.abs(pooled[:, 0] - pooled[:, 1])
    assert (gaps == 0).any() and ((gaps > 0) & (gaps <= 2 * np.spacing(pooled[:, 0]))).any()
    k, u = arr.shape[1], np.finfo(float).eps / 2
    gamma_k = k * u / (1 - k * u)
    top_two = np.sort(pooled, axis=1)[:, 1:]
    decided = top_two[:, 1] - top_two[:, 0] > 4 * gamma_k * pooled.sum(axis=1)
    assert 0 < decided.sum() < decided.size

    # a matrix that no PosteriorSamples would hold is refused, not scored
    raw = arr * 1e3
    raw[0, 0], raw[1, 30], raw[2, 0], raw[3, [1, 13]] = np.nan, np.inf, -np.inf, (np.inf, -np.inf)
    with pytest.raises(ValueError, match="^samples must be finite$"):
        _risk_pass(raw, space)
    clear = np.zeros((5, arr.shape[1]))
    clear[:, -1] = 1.0
    for wrap in (lambda a: PosteriorSamples(a), np.asarray):
        levels, modal, expected_risk = _risk_pass(wrap(normalized), space)
        # levels weighted by their pooled masses: the same terms, in
        # another order, as the samples weighted by their classes' levels
        assert_allclose(expected_risk, normalized @ risk.astype(float), rtol=0, atol=8 * gamma_k)
        assert_array_equal(levels[decided], _ordered_risk_levels(normalized, risk)[decided])
        assert modal == np.bincount(levels, minlength=3).argmax()
        # a sample's level does not depend on the samples scored with it
        for row in range(0, len(normalized), 20):
            alone = normalized[row : row + 1]
            among = np.concatenate([clear, alone, clear])
            assert _risk_pass(wrap(alone), space)[0][0] == levels[row]
            assert _risk_pass(wrap(among), space)[0][5] == levels[row]


def test_pooled_risk_certainty_can_undercut_label_certainty():
    # pooling mass across levels before the argmax is a design choice with
    # a real consequence: the certainty of the top risk level may fall
    # below the certainty of the top label itself
    samples, space = frozen_risk_case()
    assert np.mean(samples.argmax(axis=1) == 1) == 1.0
    assert risk_metrics(samples, space)["risk_certainty"] == 0.6


@given(st.integers(0, 2**32 - 1))
def test_coarsened_risk_certainty_never_undercuts(seed):
    # mapping the argmax class through any level map can only merge
    # outcomes, so the modal frequency cannot drop
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    samples = rng.dirichlet(np.ones(k), size=50)
    levels = rng.integers(0, 3, size=k)
    top = samples.argmax(axis=1)
    label_certainty = np.bincount(top, minlength=k).max() / 50
    coarse_certainty = np.bincount(levels[top], minlength=3).max() / 50
    assert coarse_certainty >= label_certainty - 1e-12


def test_risk_metrics_with_prediction():
    samples, space = frozen_risk_case()
    out = risk_metrics(samples, space, PredictionSet((1, 0)))
    assert out["predicted_risk_level"] == 2
    assert out["ua_risk_match"] == 0.4


def test_risk_metrics_require_full_coverage():
    samples = np.array([[0.5, 0.5]])
    with pytest.raises(MissingRiskMappingError):
        risk_metrics(samples, ClassSpace(size=2, risk={0: 1}))
    with pytest.raises(MissingRiskMappingError):
        risk_metrics(samples, ClassSpace(size=2))


def test_risk_inputs_match_the_per_class_loop():
    samples = np.full((2, 5), 0.2)
    full = ClassSpace(size=5, risk={4: 2, 0: 1, 2: 0, 1: 2, 3: 0})
    arr, risk = _risk_inputs(samples, full)
    assert arr is samples
    assert_array_equal(risk, np.array([full.risk[c] for c in range(5)], dtype=float))
    assert risk.dtype == float and not risk.flags.writeable
    assert full.risk_levels is full.risk_levels  # built once per space
    partial = ClassSpace(size=5, risk={3: 1, 0: 2})
    missing = [c for c in range(5) if c not in partial.risk]
    message = f"no risk level for classes {missing}"
    with pytest.raises(MissingRiskMappingError, match=f"^{re.escape(message)}$"):
        _risk_inputs(samples, partial)
    with pytest.raises(MissingRiskMappingError, match="^class space carries no risk levels$"):
        _risk_inputs(samples, ClassSpace(size=5))
    with pytest.raises(ValueError, match="sample width"):
        _risk_inputs(samples, ClassSpace(size=4, risk=dict.fromkeys(range(4), 0)))


def test_loo_agreement_hand_case():
    space = ClassSpace(size=3)
    rankings = [
        PartialRanking([[0], [1]], space),
        PartialRanking([[1]], space),
    ]
    # holding out the first: the rest points at class 1, which they ranked;
    # holding out the second: the rest points at class 0, which they did not
    assert loo_agreement(rankings) == 0.5


def test_loo_silent_annotator_never_agrees():
    space = ClassSpace(size=2)
    rankings = [PartialRanking([[0]], space), PartialRanking([], space)]
    assert loo_agreement(rankings) == 0.0


def test_loo_fully_ranked_annotator_excludes_last_block():
    space = ClassSpace(size=2)
    rankings = [
        PartialRanking([[1], [0]], space),  # ranked block is just {1}
        PartialRanking([[0]], space),
    ]
    # consensus of the other annotator is class 0, outside {1}
    assert loo_agreement(rankings) == 0.0


def test_loo_needs_two_annotators():
    with pytest.raises(ValueError):
        loo_agreement([PartialRanking([[0]], ClassSpace(size=2))])


def test_summarize_metric_shapes_and_moments():
    values = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    report = summarize_metric("demo", values, bins=4)
    assert_allclose(report.per_case, [0.75, 0.5])
    assert_allclose(report.mean, 0.625)
    # per-sample dataset means are (0.5, 0, 1, 1)
    assert_allclose(report.sample_sd, np.std([0.5, 0.0, 1.0, 1.0]))
    assert report.histogram_counts.sum() == 4
    assert_allclose(report.histogram_edges, [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("bins", [1, 3, 7, 20, 50])
def test_summarize_metric_histogram_matches_numpy(bins):
    # 0, 1, every edge and its neighbours either side, and values outside
    # [0, 1], which the histogram drops
    edges = np.linspace(0.0, 1.0, bins + 1)
    probes = np.concatenate(
        [edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0), [-0.5, 1.5, 2.0, -0.0]]
    )
    rng = np.random.default_rng(bins)
    values = np.concatenate([probes, rng.random(200)])[None, :]
    report = summarize_metric("m", values, bins=bins)
    counts, np_edges = np.histogram(values[0], bins=bins, range=(0.0, 1.0))
    assert_array_equal(report.histogram_counts, counts)
    assert report.histogram_counts.dtype == counts.dtype
    assert_array_equal(report.histogram_edges, np_edges)
    # each report owns writable edges, as np.histogram hands them out
    other = summarize_metric("m", values, bins=bins)
    report.histogram_edges[:] *= 100.0
    assert_array_equal(other.histogram_edges, np_edges)


@pytest.mark.parametrize("bins", [1, 3, 20])
def test_expected_risk_histogram_spans_every_risk_level(bins):
    # expected risk levels are binned on [0, 2]; a value above 2 by at most
    # the samples' row-sum tolerance of 1e-9 (relative) counts as 2, and
    # anything further out is dropped
    edges = np.linspace(0.0, 2.0, bins + 1)
    near_two = [np.nextafter(2.0, 3.0), 2.0 * (1 + 1e-9)]
    probes = np.concatenate(
        [edges, np.nextafter(edges[1:], -1.0), np.nextafter(edges[:-1], 3.0), near_two]
    )
    outside = [-0.5, -np.nextafter(0.0, 1.0), 2.0 * (1 + 2e-9), 2.5]
    rng = np.random.default_rng(bins)
    inside = np.concatenate([probes, 2.0 * rng.random(200)])
    values = np.concatenate([inside, outside])[None, :]
    report = summarize_metric("expected_risk_mean", values, bins=bins)
    counts, np_edges = np.histogram(np.minimum(inside, 2.0), bins=bins, range=(0.0, 2.0))
    assert_array_equal(report.histogram_counts, counts)
    assert report.histogram_counts.sum() == inside.size
    assert_array_equal(report.histogram_edges, np_edges)
    assert report.histogram_edges[-1] == 2.0


def test_summarize_metric_constant_values_have_zero_sd():
    report = summarize_metric("flat", np.full((1, 10), 0.3))
    assert report.sample_sd <= 1e-12
    assert report.mean == pytest.approx(0.3)


def test_summarize_metric_validation():
    with pytest.raises(ValueError):
        summarize_metric("bad", np.zeros(4))
