"""
Sampling plausibilities from ranked annotations
===============================================

The sampler treats each annotation as the outcome of an exponential race:
every class arrives at a rate given by its latent weight, and the
annotator reports arrival order, coarsened into blocks. Alternating three
conditional draws (orderings within tied blocks, arrival times at the
ranked positions, then conjugate weight updates) yields posterior samples
of the plausibility vector. Annotation certainty is read straight off
those samples.
"""

import numpy as np

from plaus import ClassSpace, GibbsConfig, PartialRanking, annotation_certainty_topj, gibbs_run

names = (
    "Pyogenic granuloma",
    "Hemangioma",
    "Melanoma",
    "Angiokeratoma of skin",
    "Atypical Nevus",
    "Melanocytic Nevus",
    "O/E - ecchymoses present",
    "Skin Tag",
)
space = ClassSpace(size=8, names=names)
rater_blocks = [
    [[0], [1], [2]],
    [[3], [4]],
    [[1], [5, 2, 6]],
    [[1, 2, 7]],
    [[2]],
    [[1], [2], [5]],
]
rankings = [PartialRanking(b, space) for b in rater_blocks]

config = GibbsConfig(iterations=2500, burn_in=500, repetitions=1, seed=0)
posterior = gibbs_run(rankings, config)
mean = posterior.samples.mean(axis=0)
print(f"{posterior.samples.shape[0]} retained samples, seed {config.seed}")
print("\nposterior mean plausibilities:")
for cid in np.argsort(-mean, kind="stable"):
    print(f"  {mean[cid]:6.3f}  {names[cid]}")

# Certainty: how often the samples agree on the single most plausible
# class, the top-2 set, the top-3 set.
for j in (1, 2, 3):
    print(f"top-{j} certainty: {annotation_certainty_topj(posterior, j):.3f}")

# Reliability is expressed by counting each annotation several times. More
# repetitions sharpen the likelihood, so the posterior tightens and the
# panel's majority reading dominates.
print("\nrepetitions -> top-1 certainty")
for reps in (1, 2, 3, 5, 10):
    cfg = GibbsConfig(iterations=1500, burn_in=500, repetitions=reps, seed=0)
    draws = gibbs_run(rankings, cfg)
    print(f"  {reps:2d} -> {annotation_certainty_topj(draws, 1):.3f}")
