"""Certainty summaries and uncertainty-adjusted evaluation metrics.

All metrics here are Monte Carlo expectations over plausibility samples:
each sample proposes a full ordering of the classes (by sorting its
plausibilities, ties to the lower id) and classical quantities such as top-k
accuracy or prefix overlap are averaged across samples. Feeding a point-mass
posterior therefore reproduces the classical metric exactly, which is the
reduction the test suite pins down. Every function here that takes samples
takes a :class:`PosteriorSamples`, or an (M, K) matrix that would make one:
finite, non-negative rows that sum to one within 1e-9. Any other matrix is
refused with the ValueError that :class:`PosteriorSamples` raises.

Rank similarity between two partial rankings is computed from their soft
permutation matrices: average overlap of prefixes extends to tied and
truncated rankings through the trace form, normalized so a ranking compared
with itself scores one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .irn import AllZeroMassError, irn_aggregate
from .rankings import ClassSpace, PartialRanking, _all_ints, to_soft_permutation
from .samples import _SIMPLEX_ATOL, PosteriorSamples

__all__ = [
    "MissingRiskMappingError",
    "PredictionSet",
    "certainty_label",
    "annotation_certainty_hits",
    "annotation_certainty_topj",
    "ua_topk_hits",
    "ua_topk_accuracy",
    "ua_set_hits",
    "ua_set_accuracy",
    "overlap",
    "ua_average_overlap",
    "average_overlap",
    "mean_average_overlap",
    "risk_metrics",
    "case_metrics",
    "loo_agreement",
    "MetricReport",
    "summarize_metric",
]


class MissingRiskMappingError(ValueError):
    """The class space lacks a risk level for some class."""


@dataclass(frozen=True)
class PredictionSet:
    """A model's output for one case: class ids, most plausible first.

    Args:
        ranked_classes: distinct class ids, best first. May be shorter than
            the class space; metrics only look at the prefix they need.
        case_id: optional identifier for report rows.
    """

    ranked_classes: tuple[int, ...]
    case_id: str | None = None

    def __post_init__(self) -> None:
        # int() would truncate 1.7 and read True or "1" as class 1.
        if not _all_ints(*self.ranked_classes):
            raise ValueError(f"{self.ranked_classes} holds a class id that is not an integer")
        ids = tuple(int(c) for c in self.ranked_classes)
        if len(set(ids)) != len(ids):
            raise ValueError("ranked_classes must be distinct")
        if not ids:
            raise ValueError("ranked_classes must be non-empty")
        object.__setattr__(self, "ranked_classes", ids)

    def top(self, k: int) -> tuple[int, ...]:
        if k > len(self.ranked_classes):
            raise ValueError(
                f"prediction lists {len(self.ranked_classes)} classes, need {k}"
            )
        return self.ranked_classes[:k]


def _check_prediction(prediction: PredictionSet, num_classes: int) -> None:
    """Refuse a prediction naming a class outside ``[0, num_classes)``,
    which no sample could match."""
    ids = prediction.ranked_classes
    if min(ids) < 0 or max(ids) >= num_classes:
        raise ValueError(f"prediction class ids {ids} must lie in [0, {num_classes})")


def _sample_matrix(samples) -> np.ndarray:
    """The (M, K) matrix of ``samples``. Any other matrix is checked by
    building a :class:`PosteriorSamples` of it, which raises its ValueError,
    so every kernel may assume finite, non-negative rows that sum to one."""
    if not isinstance(samples, PosteriorSamples):
        samples = PosteriorSamples(samples)
    return samples.samples


# Rows of a selection block hold about this many entries, so a block stays
# in cache across its k argmax passes.
_BLOCK_ENTRIES = 2**15

_INT64_MAX = int(np.iinfo(np.int64).max)


def _top_indices(arr: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k largest entries, ties to the lower id.

    Equals ``np.argsort(-arr, axis=1, kind="stable")[:, :k]`` for finite
    rows and k up to their width. Each block of rows is copied once and
    takes k argmax passes, each masking its picks with -inf; argmax returns
    the first maximum, so ties go to the lower id.
    """
    m, width = arr.shape
    step = max(1, _BLOCK_ENTRIES // width)
    order = np.empty((m, k), dtype=np.intp)
    for start in range(0, m, step):
        work = arr[start : start + step].astype(float, order="C")
        flat, offsets = work.reshape(-1), np.arange(0, work.size, width)
        for i in range(k):
            order[start : start + step, i] = best = work.argmax(axis=1)
            flat[offsets + best] = -np.inf
    return order


def _top_columns(arr: np.ndarray, k: int, order: np.ndarray | None) -> np.ndarray:
    """The first k columns of a shared ``order``, or a fresh selection."""
    if order is None:
        return _top_indices(arr, k)
    if order.shape[1] < k:
        raise ValueError(f"order holds {order.shape[1]} classes per sample, need {k}")
    return order[:, :k]


def certainty_label(samples, label: int) -> float:
    """Fraction of samples whose most plausible class is ``label``."""
    arr = _sample_matrix(samples)
    if not (0 <= label < arr.shape[1]):
        raise ValueError(f"label {label} outside [0, {arr.shape[1]})")
    return float(np.mean(_top_indices(arr, 1)[:, 0] == label))


def annotation_certainty_hits(samples, j: int, *, order=None) -> np.ndarray:
    """Per-sample indicator that the sample's top-j set is the modal one.

    The top-j set of a sample is unordered; only sets actually realized in
    the samples compete, and ties between equally frequent sets go to the
    lexicographically lowest.

    This and the other top-k kernels accept ``order``, the samples'
    ``_top_indices`` to some depth of at least k, so that one selection
    serves every kernel of a posterior; without it they select their own.
    """
    arr = _sample_matrix(samples)
    m, k = arr.shape
    if not (1 <= j <= k):
        raise ValueError(f"j must lie in [1, {k}]")
    sets = np.sort(_top_columns(arr, j, order), axis=1)
    # Base-k digits of the sorted set, so codes order as the sets do
    # lexicographically. Before a digit could overflow int64, the codes are
    # replaced by their dense ranks, which keeps that order.
    code = np.zeros(m, dtype=np.int64)
    bound = 1
    for column in sets.T:
        if bound > _INT64_MAX // k:
            _, code = np.unique(code, return_inverse=True)
            bound = m
        code = code * k + column
        bound *= k
    codes, counts = np.unique(code, return_counts=True)
    return (code == codes[counts.argmax()]).astype(float)


def annotation_certainty_topj(samples, j: int) -> float:
    """Frequency of the modal top-j set (for j = 1, the certainty of the most
    likely label): mean of :func:`annotation_certainty_hits`."""
    return float(np.mean(annotation_certainty_hits(samples, j)))


def ua_topk_hits(samples, prediction: PredictionSet, k: int, *, order=None) -> np.ndarray:
    """Per-sample indicator that the sample's best class is in the top-k set.

    This and the other ``ua_*`` functions refuse, with ValueError, a
    prediction naming a class outside the samples' class space.
    """
    arr = _sample_matrix(samples)
    _check_prediction(prediction, arr.shape[1])
    best = _top_columns(arr, 1, order)[:, 0]
    hits = np.zeros(best.shape, dtype=bool)
    for candidate in prediction.top(k):
        hits |= best == candidate
    return hits.astype(float)


def ua_topk_accuracy(samples, prediction: PredictionSet, k: int) -> float:
    """Uncertainty-adjusted top-k accuracy: mean of :func:`ua_topk_hits`."""
    return float(np.mean(ua_topk_hits(samples, prediction, k)))


def ua_set_hits(samples, prediction: PredictionSet, k: int, *, order=None) -> np.ndarray:
    """Per-sample indicator that the sample's top-k set equals the predicted one."""
    arr = _sample_matrix(samples)
    _check_prediction(prediction, arr.shape[1])
    target = np.sort(np.asarray(prediction.top(k), dtype=np.int64))
    sets = np.sort(_top_columns(arr, k, order), axis=1)
    return np.all(sets == target, axis=1).astype(float)


def ua_set_accuracy(samples, prediction: PredictionSet, k: int) -> float:
    """Uncertainty-adjusted set accuracy: mean of :func:`ua_set_hits`."""
    return float(np.mean(ua_set_hits(samples, prediction, k)))


def overlap(candidate, reference) -> float:
    """|intersection| / |candidate|."""
    cand = set(candidate)
    if not cand:
        raise ValueError("candidate set must be non-empty")
    return len(cand & set(reference)) / len(cand)


def _overlap_curve(
    samples, prediction: PredictionSet, depth: int, *, order=None
) -> np.ndarray:
    """(depth, M) per-sample overlaps of predicted and sampled top-k sets.

    Row k - 1 counts the sample's first k classes that the prediction ranks
    among its first k, divided by k. A sample's class at position i counts
    from cutoff max(i, its predicted position) + 1 on, so one count of those
    cutoffs per sample, summed cumulatively, serves every k. Its callers
    have checked that the prediction's ids lie in the class space.
    """
    arr = _sample_matrix(samples)
    order = _top_columns(arr, depth, order)
    m, k = arr.shape
    position = np.full(k, depth)
    position[list(prediction.top(depth))] = np.arange(depth)
    first = np.maximum(position[order], np.arange(depth))
    first += np.arange(0, m * (depth + 1), depth + 1)[:, None]
    counts = np.bincount(first.ravel(), minlength=m * (depth + 1)).reshape(m, depth + 1)
    # Means over this array add in memory order, so it stays (depth, M) C-order.
    out = np.empty((depth, m))
    np.divide(counts.cumsum(axis=1)[:, :depth].T, np.arange(1, depth + 1)[:, None], out=out)
    return out


def ua_average_overlap(samples, prediction: PredictionSet, depth: int) -> float:
    """Expected prefix overlap between prediction and samples, averaged to ``depth``.

    For each cutoff k up to ``depth``, the overlap of the predicted top-k set
    with each sample's top-k set is averaged over samples; the metric is the
    mean over cutoffs.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    arr = _sample_matrix(samples)
    _check_prediction(prediction, arr.shape[1])
    return float(np.mean(_overlap_curve(arr, prediction, depth)))


def average_overlap(sigma, sigma_prime, depth: int) -> float:
    """Classical average overlap of two full rankings' prefixes up to ``depth``."""
    sigma = list(sigma)
    sigma_prime = list(sigma_prime)
    if depth < 1 or depth > min(len(sigma), len(sigma_prime)):
        raise ValueError("depth outside the rankings' length")
    return float(
        np.mean([overlap(sigma[:k], sigma_prime[:k]) for k in range(1, depth + 1)])
    )


def _prefix_weight(k: int, depth: int) -> np.ndarray:
    """Diagonal weights 1/(i*depth) for the first ``depth`` positions, else 0."""
    d = np.zeros(k)
    d[:depth] = 1.0 / (np.arange(1, depth + 1) * depth)
    return d


def _unnormalized_ao(soft_a: np.ndarray, soft_b: np.ndarray, depth: int) -> float:
    k = soft_a.shape[0]
    tri = np.tri(k)
    weighted = _prefix_weight(k, depth)[:, None] * (tri @ soft_a)
    return float(np.sum((tri @ soft_b) * weighted))


def mean_average_overlap(
    ranking_a: PartialRanking, ranking_b: PartialRanking, depth: int
) -> float:
    """Average overlap generalized to partial rankings with ties.

    Both rankings are completed with their unranked blocks and turned into
    soft permutation matrices; prefix membership becomes a cumulative matrix
    product and the overlap a weighted trace, averaged over all pairs of
    compatible orderings. Normalized by the geometric mean of each ranking's
    self-similarity, so ``mean_average_overlap(b, b, depth) == 1``.
    """
    if ranking_a.class_space.size != ranking_b.class_space.size:
        raise ValueError("rankings must share one class space")
    k = ranking_a.class_space.size
    if depth < 1 or depth > k:
        raise ValueError(f"depth must lie in [1, {k}]")
    soft_a = to_soft_permutation(ranking_a)
    soft_b = to_soft_permutation(ranking_b)
    cross = _unnormalized_ao(soft_a, soft_b, depth)
    self_a = _unnormalized_ao(soft_a, soft_a, depth)
    self_b = _unnormalized_ao(soft_b, soft_b, depth)
    return cross / np.sqrt(self_a * self_b)


def _risk_inputs(samples, class_space: ClassSpace):
    """The (M, K) sample matrix and the (K,) risk level vector."""
    arr = _sample_matrix(samples)
    if class_space.risk_levels is None:
        raise MissingRiskMappingError("class space carries no risk levels")
    risk, missing = class_space.risk_levels
    if missing:
        raise MissingRiskMappingError(f"no risk level for classes {list(missing)}")
    if arr.shape[1] != class_space.size:
        raise ValueError("sample width does not match the class space")
    return arr, risk


# Unit roundoff of float64.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _ordered_level_sums(arr: np.ndarray, risk: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(rows), 3) per-level masses of the given rows, bit for bit as
    ``arr[:, risk == level].sum(axis=1)`` computes them for all of ``arr``.

    For two or more rows that boolean copy is F-ordered, so numpy adds each
    row's columns one at a time in column order; ``accumulate`` keeps that
    order for any subset of rows. A one-row matrix is contiguous, and numpy
    sums it pairwise.
    """
    sub = arr[rows]
    out = np.zeros((rows.size, 3))
    for level in range(3):
        cols = sub[:, risk == level]
        if arr.shape[0] == 1:
            out[:, level] = cols.sum(axis=1)
        elif cols.shape[1]:
            out[:, level] = np.add.accumulate(cols, axis=1)[:, -1]
    return out


def _risk_pass(samples, class_space: ClassSpace):
    """Per-sample top risk level (0 low, 1 medium, 2 high), its modal value
    and the per-sample expected risk, from one check of the risk map.

    A sample's expected risk is clamped to 2, the top level: a sample's
    entries sum to one only within the samples' row-sum tolerance, so the
    weighted levels could pass 2 by rounding. They cannot fall below 0.

    A sample's top level is the argmax of its mass pooled by level; both
    argmaxes break ties to the lower level, and a level's mass is defined
    as the in-order sum over its columns (:func:`_ordered_level_sums`).

    The levels are pooled here with one product against the (3, K) level
    indicator, which adds the same terms in another order. Summed in any
    order, K terms land within gamma_K A of their exact sum, where
    gamma_K = K u / (1 - K u), u is the unit roundoff and A the sum of the
    terms' absolute values. The gap between two levels can therefore differ
    between the two orders by at most 2 gamma_K A, and where a row's two
    largest pooled masses lie more than 4 gamma_K A apart (the factor two
    absorbs the rounding of A itself), both orders pick the same level.
    Every other row is decided again from the ordered sums. The samples'
    entries are finite and non-negative, so A is the sum of the pooled
    masses.
    """
    arr, risk = _risk_inputs(samples, class_space)
    k = arr.shape[1]
    # (3, M) pooled masses. einsum, not a BLAS product, which would touch a
    # second thread's buffers: about 2 MB more peak memory at (1000, 400).
    pooled = np.einsum("mk,lk->ml", arr, (np.arange(3)[:, None] == risk).astype(float)).T
    low, high = np.minimum(pooled[0], pooled[1]), np.maximum(pooled[0], pooled[1])
    gap = np.maximum(high, pooled[2]) - np.maximum(low, np.minimum(high, pooled[2]))
    gamma = k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)
    rows = np.flatnonzero(gap <= 4 * gamma * pooled.sum(axis=0))
    levels = pooled.argmax(axis=0)
    if rows.size:
        levels[rows] = _ordered_level_sums(arr, risk, rows).argmax(axis=1)
    expected = np.minimum(arr @ risk, 2.0)
    return levels, int(np.bincount(levels, minlength=3).argmax()), expected


def _risk_values(samples, class_space: ClassSpace, prediction: PredictionSet | None):
    """The modal top risk level, the per-sample ``risk_certainty`` hits and
    expected risk (``expected_risk_mean``), and every risk summary as a
    scalar, all from one :func:`_risk_pass`."""
    levels, modal, expected = _risk_pass(samples, class_space)
    vectors = {"risk_certainty": (levels == modal).astype(float), "expected_risk_mean": expected}
    scalars = {name: float(v.mean()) for name, v in vectors.items()}
    scalars["expected_risk_min"] = float(expected.min())
    scalars["expected_risk_max"] = float(expected.max())
    if prediction is not None:
        scalars["ua_risk_match"] = float(np.mean(levels == class_space.risk[prediction.top(1)[0]]))
    return modal, vectors, scalars


def risk_metrics(
    samples,
    class_space: ClassSpace,
    prediction: PredictionSet | None = None,
) -> dict:
    """Risk-level summaries of a posterior.

    Reported are the certainty of the top risk level (how often a sample's
    top level is the modal ``top_risk_level``) and the mean, minimum and
    maximum across samples of the expected risk level. When a prediction is
    given, ``ua_risk_match`` adds how often the sample's top risk level
    equals ``predicted_risk_level``, that of the predicted top class.

    Raises:
        MissingRiskMappingError: some class has no risk level.
    """
    modal, _, out = _risk_values(samples, class_space, prediction)
    out["top_risk_level"] = modal
    if prediction is not None:
        out["predicted_risk_level"] = int(class_space.risk[prediction.top(1)[0]])
    return out


def case_metrics(
    samples, class_space: ClassSpace, prediction: PredictionSet | None, k_grid, overlap_depth: int
) -> tuple[dict, dict]:
    """Every metric of one posterior, as (scalars, per-sample vectors) by name.

    The command line reports these for each case and reliability: the
    certainty of the modal top-j set for j up to 3; given a prediction, the
    top-k and set accuracy for each k of ``k_grid`` and the average overlap
    to ``overlap_depth``, leaving out cutoffs deeper than the prediction or
    the class space; and given risk levels, the summaries of
    :func:`risk_metrics` but its two levels.

    Every kernel returns per-sample values: (M,), or (depth, M) for the
    overlap curve. A metric's value is their mean and its per-sample vector
    their mean over the leading axis. The top-k kernels all slice one
    selection of each sample's top classes, made to the deepest k they need,
    and the risk metrics all read one pooling of the samples by risk level.
    A prediction naming a class outside ``class_space`` raises ValueError.
    """
    if not isinstance(samples, PosteriorSamples):
        samples = PosteriorSamples(samples)  # checked here once, not by every kernel
    top_j = min(3, class_space.size)
    usable = 0
    if prediction is not None:
        _check_prediction(prediction, class_space.size)
        usable = len(prediction.ranked_classes)
    k_grid = [k for k in k_grid if k <= usable]
    depth = overlap_depth if overlap_depth <= usable else 0
    order = _top_indices(samples.samples, max(top_j, depth, *k_grid))

    kernels = [
        (f"annotation_certainty_top{j}", annotation_certainty_hits, (j,))
        for j in range(1, top_j + 1)
    ]
    for k in k_grid:
        kernels.append((f"ua_top{k}_accuracy", ua_topk_hits, (prediction, k)))
        kernels.append((f"ua_set{k}_accuracy", ua_set_hits, (prediction, k)))
    if depth:
        kernels.append(("ua_average_overlap", _overlap_curve, (prediction, depth)))
    values = {name: kernel(samples, *args, order=order) for name, kernel, args in kernels}

    scalars = {name: float(v.mean()) for name, v in values.items()}
    vectors = {name: v if v.ndim == 1 else v.mean(axis=0) for name, v in values.items()}
    if class_space.risk is not None:
        _, risk_vectors, risk_scalars = _risk_values(samples, class_space, prediction)
        scalars.update(risk_scalars)
        vectors.update(risk_vectors)
    return scalars, vectors


def loo_agreement(rankings) -> float:
    """Leave-one-out agreement among annotators.

    For each annotator, the remaining annotations are aggregated by inverse
    rank normalization and the held-out annotator counts as agreeing when
    that aggregate's top class is one they ranked (their unranked block does
    not count). Annotators who ranked nothing never agree, and a fold whose
    remaining annotators ranked nothing contributes zero.
    """
    rankings = list(rankings)
    if len(rankings) < 2:
        raise ValueError("leave-one-out needs at least two annotators")
    hits = 0
    for r, held_out in enumerate(rankings):
        rest = rankings[:r] + rankings[r + 1 :]
        try:
            top = int(np.argmax(irn_aggregate(rest)))
        except AllZeroMassError:
            continue
        # Same trailing-block convention as the aggregation itself: the last
        # block of the completed partition never counts as ranked.
        agree_set = frozenset().union(*held_out.partition()[:-1])
        if top in agree_set:
            hits += 1
    return hits / len(rankings)


@dataclass(frozen=True, eq=False)
class MetricReport:
    """One metric summarized over a dataset. Which cases, model, reliability
    and seed it covers is the caller's to record.

    Attributes:
        metric: metric name.
        per_case: Monte Carlo mean per case, in the caller's case order.
        mean: dataset mean of the per-case values.
        sample_sd: standard deviation across samples of the dataset mean,
            i.e. the metric is averaged over cases within each sample index
            first and the spread of those M values is reported.
        histogram_counts: histogram of the M per-sample dataset means.
        histogram_edges: bin edges on [0, 1], or on [0, 2] for
            ``expected_risk_mean``, whose values are risk levels; its
            values above 2 by at most the samples' row-sum tolerance
            count in the last bin.
    """

    metric: str
    per_case: np.ndarray
    mean: float
    sample_sd: float
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray


# A metric's histogram range where it is not [0, 1]: (upper edge, largest
# value counted, in the last bin). A sample's expected risk level weights
# levels up to 2 by plausibilities that sum to one within the samples'
# tolerance, so a caller's own values may pass 2 by as much (those of
# _risk_pass are clamped to 2).
_HISTOGRAM_RANGE = {"expected_risk_mean": (2.0, 2.0 * (1.0 + _SIMPLEX_ATOL))}


@lru_cache(maxsize=None)
def _histogram_edges(bins: int, upper: float) -> np.ndarray:
    """Read-only bin edges on [0, upper], as ``np.histogram`` makes them.

    A value v in [0, upper] falls in bin i when edges[i] <= v < edges[i + 1],
    and upper falls in the last bin; ``np.histogram`` places values the same
    way and drops the rest. The number of interior edges at or below v is
    that i. Callers that hand the edges out copy them.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    edges = np.linspace(0.0, upper, bins + 1)
    edges.flags.writeable = False
    return edges


def summarize_metric(metric: str, per_sample_values: np.ndarray, bins: int = 20) -> MetricReport:
    """Fold per-case, per-sample metric values into a report.

    Args:
        metric: metric name.
        per_sample_values: (N, M) array, one row per case; every case must
            carry the same number of samples so the per-sample dataset mean
            is defined.
        bins: histogram bins on [0, 1], or on [0, 2] for
            ``expected_risk_mean``.
    """
    values = np.asarray(per_sample_values, dtype=float)
    if values.ndim != 2:
        raise ValueError("per_sample_values must be (num_cases, num_samples)")
    per_case = values.mean(axis=1)
    dataset_per_sample = values.mean(axis=0)
    upper, last = _HISTOGRAM_RANGE.get(metric, (1.0, 1.0))
    edges = _histogram_edges(operator.index(bins), upper)
    inside = dataset_per_sample[(dataset_per_sample >= 0.0) & (dataset_per_sample <= last)]
    bin_of = np.searchsorted(edges[1:-1], inside, side="right")
    counts = np.bincount(bin_of, minlength=edges.size - 1)
    return MetricReport(
        metric=metric,
        per_case=per_case,
        mean=float(per_case.mean()),
        sample_sd=float(dataset_per_sample.std(ddof=0)),
        histogram_counts=counts,
        histogram_edges=edges.copy(),
    )
