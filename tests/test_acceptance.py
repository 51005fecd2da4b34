"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test prints one "criterion NN PASS/FAIL" line with its measured margin
and asserts it. Tolerances and time budgets are pinned in the test bodies;
every random draw is seeded, so a verdict is reproducible.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np

from plaus import (
    ClassSpace,
    GibbsConfig,
    PartialRanking,
    PredictionSet,
    PrIrnModel,
    SimSpec,
    annotation_certainty_topj,
    average_overlap,
    gibbs_run,
    grid_posterior_oracle,
    irn_aggregate,
    mean_average_overlap,
    pl_partial_ranking_log_prob,
    simulate_annotations,
    to_soft_permutation,
    ua_topk_accuracy,
)
from plaus.cli import main
from plaus.prirn import DEFAULT_GAMMA_GRID
from plaus.sim_oracle import (
    gibbs_grid_gap,
    point_mass_reduction_gap,
    random_partial_ranking,
    recursion_enumeration_gap,
)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _batch_se(values, batches=50) -> float:
    values = np.asarray(values, dtype=float)
    usable = (values.size // batches) * batches
    means = values[:usable].reshape(batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def test_criterion_01_recursion_matches_enumeration():
    start = time.perf_counter()
    worst = recursion_enumeration_gap(101, 500)
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"500 recursion-vs-enumeration probabilities, worst gap {worst:.2e} "
        f"(tol 1e-10) in {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_tied_block_matches_sequential_choice():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(4, 7))
        lam = rng.uniform(0.1, 4.0, size=k)
        trio = [int(c) for c in rng.permutation(k)[:3]]
        ranking = PartialRanking([trio], ClassSpace(size=k))
        dp = math.exp(pl_partial_ranking_log_prob(lam, ranking))
        direct = 0.0
        for perm in itertools.permutations(trio):
            prob, remaining = 1.0, float(lam.sum())
            for c in perm:
                prob *= lam[c] / remaining
                remaining -= lam[c]
            direct += prob
        worst = max(worst, abs(dp - direct))
    _report(
        2,
        worst <= 1e-12,
        f"100 three-way-tie probabilities vs summed sequential choices, "
        f"worst gap {worst:.2e} (tol 1e-12)",
    )


def test_criterion_03_gibbs_matches_grid_posterior():
    start = time.perf_counter()
    space2, space3 = ClassSpace(size=2), ClassSpace(size=3)
    simple = [PartialRanking([[0], [1]], space2)]
    contradictory = [
        PartialRanking([[0], [1]], space3),
        PartialRanking([[1], [0]], space3),
    ]

    gaps = [
        gibbs_grid_gap(simple, GibbsConfig(iterations=5500, burn_in=500, seed=301), 1500)
    ]

    oracle3 = grid_posterior_oracle(contradictory, alpha=1.0, resolution=240)
    chain3a = gibbs_run(
        contradictory, GibbsConfig(iterations=5500, burn_in=500, seed=302)
    )
    chain3b = gibbs_run(
        contradictory, GibbsConfig(iterations=5500, burn_in=500, seed=303)
    )
    gaps.append(float(np.max(np.abs(chain3a.samples.mean(axis=0) - oracle3.mean))))
    gaps.append(float(np.max(np.abs(chain3b.samples.mean(axis=0) - oracle3.mean))))

    seed_ok = True
    for coord in range(3):
        a, b = chain3a.samples[:, coord], chain3b.samples[:, coord]
        limit = 3.0 * math.hypot(_batch_se(a), _batch_se(b))
        seed_ok = seed_ok and abs(float(a.mean() - b.mean())) <= limit
    elapsed = time.perf_counter() - start
    _report(
        3,
        max(gaps) <= 0.02 and seed_ok and elapsed < 60.0,
        f"sampler means vs grid posterior, worst gap {max(gaps):.4f} (tol 0.02), "
        f"seed agreement within 3 SE: {seed_ok}, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_04_point_mass_reduces_to_deterministic_metrics():
    worst = point_mass_reduction_gap(404, 100)
    _report(
        4,
        worst <= 1e-12,
        f"100 point-mass posteriors, uncertainty-adjusted vs deterministic "
        f"metrics, worst gap {worst:.2e} (tol 1e-12)",
    )


def test_criterion_05_worked_case_separates_predictions(derm_rankings):
    start = time.perf_counter()
    pred_bad = PredictionSet((4, 1, 5))
    pred_good = PredictionSet((1, 5, 2))

    prirn_ok = False
    prirn_best = (0.0, 0.0)
    for gamma in DEFAULT_GAMMA_GRID:
        samples = PrIrnModel.fit(derm_rankings, gamma).sample(1000, seed=11)
        a = ua_topk_accuracy(samples, pred_bad, 3)
        b = ua_topk_accuracy(samples, pred_good, 3)
        if b >= 0.9 and b - a >= 0.15:
            prirn_ok = True
            prirn_best = max(prirn_best, (b - a, b))

    pl_ok = False
    pl_best = (0.0, 0.0)
    for reps in (1, 2, 3, 5, 10):
        samples = gibbs_run(
            derm_rankings,
            GibbsConfig(iterations=1500, burn_in=500, repetitions=reps, seed=13),
        )
        a = ua_topk_accuracy(samples, pred_bad, 3)
        b = ua_topk_accuracy(samples, pred_good, 3)
        if b >= 0.95 and b - a >= 0.15:
            pl_ok = True
            pl_best = max(pl_best, (b - a, b))
    elapsed = time.perf_counter() - start
    _report(
        5,
        prirn_ok and pl_ok and elapsed < 30.0,
        "worked case separates the two predicted top-3 sets "
        f"(resampled grid best gap/b {prirn_best[0]:.3f}/{prirn_best[1]:.3f} "
        f"needs b>=0.9, sampler grid best gap/b {pl_best[0]:.3f}/{pl_best[1]:.3f} "
        f"needs b>=0.95, both gaps >=0.15), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_06_inverse_rank_hand_values(derm_space, derm_rankings):
    space3 = ClassSpace(size=3)
    scores = irn_aggregate(
        [PartialRanking([[0], [1]], space3), PartialRanking([[1]], space3)]
    )
    small_gap = float(np.max(np.abs(scores - np.array([0.4, 0.6, 0.0]))))

    derm = irn_aggregate(derm_rankings)
    expected = np.array([6, 17, 14, 6, 3, 3, 1, 2], dtype=float) / 52.0
    derm_gap = float(np.max(np.abs(derm - expected)))
    top_name = derm_space.names[int(np.argmax(derm))]
    _report(
        6,
        small_gap <= 1e-15 and derm_gap <= 1e-12 and top_name == "Hemangioma",
        f"inverse-rank aggregation hand values, gaps {small_gap:.1e}/{derm_gap:.1e} "
        f"(tol 1e-15/1e-12), top class {top_name!r}",
    )


def test_criterion_07_overlap_and_matrix_identities():
    rng = np.random.default_rng(707)
    worst_self = 0.0
    worst_hard = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 9))
        space = ClassSpace(size=k)
        ranking = random_partial_ranking(rng, space, max_blocks=4, max_block=3)
        depth = int(rng.integers(1, k + 1))
        worst_self = max(
            worst_self, abs(mean_average_overlap(ranking, ranking, depth) - 1.0)
        )
        perm_a = [int(c) for c in rng.permutation(k)]
        perm_b = [int(c) for c in rng.permutation(k)]
        full_a = PartialRanking([[c] for c in perm_a], space)
        full_b = PartialRanking([[c] for c in perm_b], space)
        worst_hard = max(
            worst_hard,
            abs(
                mean_average_overlap(full_a, full_b, depth)
                - average_overlap(perm_a, perm_b, depth)
            ),
        )
    frozen = to_soft_permutation(PartialRanking([[3], [2, 0]], ClassSpace(size=4)))
    frozen_ok = np.array_equal(
        frozen,
        np.array(
            [
                [0.0, 0.0, 0.0, 1.0],
                [0.5, 0.0, 0.5, 0.0],
                [0.5, 0.0, 0.5, 0.0],
                [0.0, 1.0, 0.0, 0.0],
            ]
        ),
    )
    _report(
        7,
        worst_self <= 1e-12 and worst_hard <= 1e-12 and frozen_ok,
        f"200 overlap identities, self gap {worst_self:.1e}, full-ranking gap "
        f"{worst_hard:.1e} (tol 1e-12), frozen soft permutation exact: {frozen_ok}",
    )


def test_criterion_08_certainty_rises_with_reliability():
    start = time.perf_counter()
    cases = []
    for i in range(50):
        rng = np.random.default_rng(5000 + i)
        lam = rng.dirichlet(np.ones(4))
        spec = SimSpec(
            true_lambda=tuple(lam),
            num_annotators=2,
            block_sizes=(1, 1),
            seed=9000 + i,
        )
        cases.append(simulate_annotations(spec))

    def inversions(seq):
        return sum(1 for a, b in zip(seq, seq[1:]) if b < a - 1e-12)

    prirn_curve = []
    for gamma in DEFAULT_GAMMA_GRID:
        values = [
            annotation_certainty_topj(
                PrIrnModel.fit(rankings, gamma).sample(1000, seed=800 + i), 1
            )
            for i, rankings in enumerate(cases)
        ]
        prirn_curve.append(float(np.mean(values)))

    pl_curve = []
    for reps in (1, 2, 3, 5, 10):
        values = [
            annotation_certainty_topj(
                gibbs_run(
                    rankings,
                    GibbsConfig(
                        iterations=1500,
                        burn_in=500,
                        repetitions=reps,
                        seed=13_000 + 37 * i + reps,
                    ),
                ),
                1,
            )
            for i, rankings in enumerate(cases)
        ]
        pl_curve.append(float(np.mean(values)))
    elapsed = time.perf_counter() - start

    ok = (
        inversions(prirn_curve) <= 1
        and inversions(pl_curve) <= 1
        and prirn_curve[-1] > prirn_curve[0]
        and pl_curve[-1] > pl_curve[0]
    )
    _report(
        8,
        ok and elapsed < 120.0,
        "mean top-1 certainty along the reliability grids "
        f"{[round(v, 3) for v in prirn_curve]} and {[round(v, 3) for v in pl_curve]} "
        f"(at most one inversion each), {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_09_no_annotations_recovers_the_prior():
    samples = gibbs_run(
        [],
        GibbsConfig(iterations=100_500, burn_in=500, seed=901),
        class_space=ClassSpace(size=3),
    ).samples
    m = samples.shape[0]
    mean_gap = samples.mean(axis=0) - 1.0 / 3.0
    mean_limit = 3.0 * samples.std(axis=0, ddof=1) / math.sqrt(m)
    centered = samples - samples.mean(axis=0)
    var_gap = centered.var(axis=0, ddof=0) - 1.0 / 18.0
    fourth = np.mean(centered**4, axis=0)
    var_limit = 3.0 * np.sqrt(
        (fourth - centered.var(axis=0, ddof=0) ** 2) / m
    )
    ok = bool(
        np.all(np.abs(mean_gap) <= mean_limit) and np.all(np.abs(var_gap) <= var_limit)
    )
    _report(
        9,
        ok,
        f"{m} prior draws, worst mean gap {np.max(np.abs(mean_gap)):.1e} "
        f"(limit {mean_limit.min():.1e}), worst variance gap "
        f"{np.max(np.abs(var_gap)):.1e} (limit {var_limit.min():.1e})",
    )


def test_criterion_10_reports_are_byte_reproducible(tmp_path):
    sim = tmp_path / "sim"
    assert (
        main(
            [
                "simulate",
                "--classes", "4",
                "--cases", "6",
                "--annotators", "3",
                "--blocks", "1,1",
                "--seed", "42",
                "--predictions-from-truth",
                "--out-dir", str(sim),
            ]
        )
        == 0
    )
    base = [
        "evaluate",
        "--cases", str(sim / "cases.jsonl"),
        "--annotations", str(sim / "annotations.jsonl"),
        "--predictions", str(sim / "predictions.jsonl"),
        "--model", "irn,prirn",
        "--samples", "200",
        "--seed", "7",
    ]
    for out, workers in (("w1", "1"), ("w8", "8")):
        assert main(base + ["--workers", workers, "--out-dir", str(tmp_path / out)]) == 0

    data = str(Path(__file__).parent / "data")
    derm = [
        "evaluate",
        "--cases", f"{data}/derm_cases.jsonl",
        "--annotations", f"{data}/derm_annotations.jsonl",
        "--predictions", f"{data}/derm_predictions_b.jsonl",
        "--model", "pl",
        "--reliability", "1",
        "--samples", "100",
        "--gibbs-burn-in", "200",
        "--seed", "3",
    ]
    for out in ("d1", "d2"):
        assert main(derm + ["--out-dir", str(tmp_path / out)]) == 0

    def same(a, b):
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        if names_a != names_b:
            return False
        return all((a / n).read_bytes() == (b / n).read_bytes() for n in names_a)

    worker_ok = same(tmp_path / "w1", tmp_path / "w8")
    rerun_ok = same(tmp_path / "d1", tmp_path / "d2")
    _report(
        10,
        worker_ok and rerun_ok,
        f"report bytes identical across worker counts ({worker_ok}) "
        f"and across reruns ({rerun_ok})",
    )
