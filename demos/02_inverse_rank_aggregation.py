"""
Aggregating annotators by inverse rank
======================================

Inverse rank normalization (IRN) turns a set of partial rankings into one
plausibility vector: block i of each annotator's completed ranking spreads
weight 1/i over its members, the per-annotator vectors are summed, and the
sum is normalized once. Its probabilistic extension places a Dirichlet
around that vector whose concentration expresses how reliable the
annotators are taken to be.
"""

import numpy as np

from plaus import ClassSpace, PartialRanking, PrIrnModel, irn_aggregate, irn_single

# A tiny two-annotator example over three conditions. The first annotator
# says 0 then 1; the second says only 1. Class 2 is never ranked.
space3 = ClassSpace(size=3)
small = [
    PartialRanking([[0], [1]], space3),
    PartialRanking([[1]], space3),
]
print("unnormalized:", sum(irn_single(r) for r in small))  # (1, 1 + 1/2, 0)
print("normalized:  ", irn_aggregate(small))

# The worked dermatology case: eight conditions, six annotators, ties and
# short lists everywhere.
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

derm = irn_aggregate(rankings)
order = np.argsort(-derm, kind="stable")
print("\naggregated plausibilities, most plausible first:")
for cid in order:
    if derm[cid] > 0:
        print(f"  {derm[cid]:6.3f}  {names[cid]}")

# The point estimate hides how sure the panel is. The resampled model
# draws plausibility vectors around it; low concentration spreads them out,
# high concentration pins them down.
for gamma in (10.0, 100.0):
    model = PrIrnModel.fit(rankings, gamma)
    draws = model.sample(2000, seed=0)
    top = draws.samples.argmax(axis=1)
    share = np.mean(top == order[0])
    print(
        f"\nreliability {gamma:5.1f}: P(top class is {names[order[0]]}) = {share:.3f}"
    )
    with np.printoptions(precision=3, suppress=True):
        print("  posterior mean:", draws.samples.mean(axis=0))
