"""Certainty summaries and uncertainty-adjusted evaluation metrics.

All metrics here are Monte Carlo expectations over plausibility samples:
each sample proposes a full ordering of the classes (by sorting its
plausibilities, ties to the lower id) and classical quantities such as top-k
accuracy or prefix overlap are averaged across samples. Feeding a point-mass
posterior therefore reproduces the classical metric exactly, which is the
reduction the test suite pins down.

Rank similarity between two partial rankings is computed from their soft
permutation matrices: average overlap of prefixes extends to tied and
truncated rankings through the trace form, normalized so a ranking compared
with itself scores one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .irn import AllZeroMassError, irn_aggregate
from .rankings import ClassSpace, PartialRanking, to_soft_permutation
from .samples import PosteriorSamples

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
    "risk_level_hits",
    "expected_risk",
    "risk_metrics",
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


def _sample_matrix(samples) -> np.ndarray:
    if isinstance(samples, PosteriorSamples):
        return samples.samples
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected an (M, K) sample array")
    return arr


# Deepest selection done by repeated argmax; deeper ones sort the whole row.
_SELECT_MAX_DEPTH = 8


def _top_indices(arr: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k largest entries, ties to the lower id.

    Equals ``np.argsort(-arr, axis=1, kind="stable")[:, :k]``. Up to
    ``_SELECT_MAX_DEPTH`` it takes k argmax passes, each masking its pick with
    -inf; argmax returns the first maximum, so ties go to the lower id. Rows
    that would pick a -inf or NaN entry fall back to the sort.
    """
    if k > _SELECT_MAX_DEPTH:
        return np.argsort(-arr, axis=1, kind="stable")[:, :k]
    work = arr.astype(float)
    rows = np.arange(work.shape[0])
    order = np.empty((work.shape[0], k), dtype=np.intp)
    picked = np.empty((work.shape[0], k))
    for i in range(k):
        order[:, i] = work.argmax(axis=1)
        picked[:, i] = work[rows, order[:, i]]
        work[rows, order[:, i]] = -np.inf
    if not np.all(picked > -np.inf):
        return np.argsort(-arr, axis=1, kind="stable")[:, :k]
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
    return float(np.mean(arr.argmax(axis=1) == label))


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
    if not (1 <= j <= arr.shape[1]):
        raise ValueError(f"j must lie in [1, {arr.shape[1]}]")
    sets = np.sort(_top_columns(arr, j, order), axis=1)
    # Sort the sets lexicographically and count runs of equal ones; the first
    # longest run is the lowest modal set.
    ranked = sets[np.lexsort(sets.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, len(ranked)])
    return np.all(sets == ranked[starts[counts.argmax()]], axis=1).astype(float)


def annotation_certainty_topj(samples, j: int) -> float:
    """Frequency of the modal top-j set (for j = 1, the certainty of the most
    likely label): mean of :func:`annotation_certainty_hits`."""
    return float(np.mean(annotation_certainty_hits(samples, j)))


def ua_topk_hits(samples, prediction: PredictionSet, k: int, *, order=None) -> np.ndarray:
    """Per-sample indicator that the sample's best class is in the top-k set."""
    arr = _sample_matrix(samples)
    candidate = np.asarray(prediction.top(k), dtype=np.int64)
    best = arr.argmax(axis=1) if order is None else order[:, 0]
    return np.isin(best, candidate).astype(float)


def ua_topk_accuracy(samples, prediction: PredictionSet, k: int) -> float:
    """Uncertainty-adjusted top-k accuracy: mean of :func:`ua_topk_hits`."""
    return float(np.mean(ua_topk_hits(samples, prediction, k)))


def ua_set_hits(samples, prediction: PredictionSet, k: int, *, order=None) -> np.ndarray:
    """Per-sample indicator that the sample's top-k set equals the predicted one."""
    arr = _sample_matrix(samples)
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
    """(depth, M) per-sample overlaps of predicted and sampled top-k sets."""
    arr = _sample_matrix(samples)
    order = _top_columns(arr, depth, order)
    out = np.empty((depth, arr.shape[0]))
    for k in range(1, depth + 1):
        candidate = np.asarray(prediction.top(k), dtype=np.int64)
        out[k - 1] = np.isin(order[:, :k], candidate).sum(axis=1) / k
    return out


def ua_average_overlap(samples, prediction: PredictionSet, depth: int) -> float:
    """Expected prefix overlap between prediction and samples, averaged to ``depth``.

    For each cutoff k up to ``depth``, the overlap of the predicted top-k set
    with each sample's top-k set is averaged over samples; the metric is the
    mean over cutoffs.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return float(np.mean(_overlap_curve(samples, prediction, depth)))


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
    if class_space.risk is None:
        raise MissingRiskMappingError("class space carries no risk levels")
    missing = [c for c in range(class_space.size) if c not in class_space.risk]
    if missing:
        raise MissingRiskMappingError(f"no risk level for classes {missing}")
    if arr.shape[1] != class_space.size:
        raise ValueError("sample width does not match the class space")
    return arr, np.array([class_space.risk[c] for c in range(arr.shape[1])], dtype=float)


def _risk_pass(samples, class_space: ClassSpace):
    """Per-sample top risk level (0 low, 1 medium, 2 high), its modal value
    and the per-sample expected risk, from one check of the risk map.

    A sample's top level is the argmax of its mass pooled by level; both
    argmaxes break ties to the lower level. Each level's mass is a row sum
    over that level's columns: a product with a one-hot level matrix rounds
    differently and can break or flip an exact tie between pooled masses.
    """
    arr, risk = _risk_inputs(samples, class_space)
    pooled = np.stack([arr[:, risk == lv].sum(axis=1) for lv in range(3)], axis=1)
    levels = pooled.argmax(axis=1)
    return levels, int(np.bincount(levels, minlength=3).argmax()), arr @ risk


def risk_level_hits(samples, class_space: ClassSpace) -> np.ndarray:
    """Per-sample indicator that the sample's top risk level is the modal one."""
    levels, modal, _ = _risk_pass(samples, class_space)
    return (levels == modal).astype(float)


def expected_risk(samples, class_space: ClassSpace) -> np.ndarray:
    """Per-sample expected risk level under the sample's plausibilities."""
    arr, risk = _risk_inputs(samples, class_space)
    return arr @ risk


def risk_metrics(
    samples,
    class_space: ClassSpace,
    prediction: PredictionSet | None = None,
) -> dict:
    """Risk-level summaries of a posterior.

    Reported are the certainty of the top risk level (the mean of
    :func:`risk_level_hits`) and the mean, minimum and maximum of
    :func:`expected_risk` across samples. When a prediction is given,
    ``ua_risk_match`` adds how often the sample's top risk level equals the
    risk level of the predicted top class.

    Raises:
        MissingRiskMappingError: some class has no risk level.
    """
    levels, modal, expected = _risk_pass(samples, class_space)
    out = {
        "risk_certainty": float(np.mean(levels == modal)),
        "top_risk_level": modal,
        "expected_risk_mean": float(expected.mean()),
        "expected_risk_min": float(expected.min()),
        "expected_risk_max": float(expected.max()),
    }
    if prediction is not None:
        predicted_level = int(class_space.risk[prediction.top(1)[0]])
        out["predicted_risk_level"] = predicted_level
        out["ua_risk_match"] = float(np.mean(levels == predicted_level))
    return out


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
            top = int(np.argmax(irn_aggregate(rest).normalized))
        except AllZeroMassError:
            continue
        # Same trailing-block convention as the aggregation itself: the last
        # block of the completed partition never counts as ranked.
        agree_set = frozenset().union(*held_out.partition()[:-1]) if len(held_out.partition()) > 1 else frozenset()
        if top in agree_set:
            hits += 1
    return hits / len(rankings)


@dataclass(frozen=True, eq=False)
class MetricReport:
    """One metric summarized over a dataset.

    Attributes:
        metric: metric name.
        case_ids: cases in report order.
        per_case: Monte Carlo mean per case, aligned with ``case_ids``.
        mean: dataset mean of the per-case values.
        sample_sd: standard deviation across samples of the dataset mean,
            i.e. the metric is averaged over cases within each sample index
            first and the spread of those M values is reported.
        histogram_counts: histogram of the M per-sample dataset means.
        histogram_edges: bin edges on [0, 1].
        provenance: model tag, reliability, seed and friends.
    """

    metric: str
    case_ids: tuple[str, ...]
    per_case: np.ndarray
    mean: float
    sample_sd: float
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    provenance: dict


def summarize_metric(
    metric: str,
    case_ids,
    per_sample_values: np.ndarray,
    bins: int = 20,
    provenance: dict | None = None,
) -> MetricReport:
    """Fold per-case, per-sample metric values into a report.

    Args:
        metric: metric name.
        case_ids: length-N identifiers.
        per_sample_values: (N, M) array; every case must carry the same
            number of samples so the per-sample dataset mean is defined.
        bins: histogram bins on [0, 1].
        provenance: carried through untouched.
    """
    values = np.asarray(per_sample_values, dtype=float)
    case_ids = tuple(str(c) for c in case_ids)
    if values.ndim != 2 or values.shape[0] != len(case_ids):
        raise ValueError("per_sample_values must be (num_cases, num_samples)")
    per_case = values.mean(axis=1)
    dataset_per_sample = values.mean(axis=0)
    counts, edges = np.histogram(dataset_per_sample, bins=bins, range=(0.0, 1.0))
    return MetricReport(
        metric=metric,
        case_ids=case_ids,
        per_case=per_case,
        mean=float(per_case.mean()),
        sample_sd=float(dataset_per_sample.std(ddof=0)),
        histogram_counts=counts,
        histogram_edges=edges,
        provenance=dict(provenance or {}),
    )
