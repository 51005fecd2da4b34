"""
Exact likelihood of a partial ranking
=====================================

Under the ranking model, classes are drawn without replacement in
proportion to positive weights. A partial ranking with ties is then an
event: any full ordering that respects the blocks. Summing over those
orderings naively costs a product of factorials; the subset recursion gets
the same number in O(2^n) per tied block. This demo checks one worked
value by hand and the recursion against brute-force enumeration.
"""

import math

import numpy as np

from plaus import (
    ClassSpace,
    PartialRanking,
    brute_force_partial_prob,
    pl_partial_ranking_log_prob,
    subset_recursion,
)
from plaus.sim_oracle import recursion_enumeration_gap

# Four classes with weights (2, 1, 3, 4); the annotation ties {0, 1, 2}
# ahead of the unranked class 3. Worked through the recursion by hand the
# probability is exactly 7/90.
lam = np.array([2.0, 1.0, 3.0, 4.0])
ranking = PartialRanking([[0, 1, 2]], ClassSpace(size=4))
log_p = pl_partial_ranking_log_prob(lam, ranking)
print(f"recursion:   {math.exp(log_p):.12f}")
print(f"hand value:  {7 / 90:.12f}")
print(f"enumeration: {brute_force_partial_prob(lam, ranking):.12f}")

# The recursion tabulates R over every subset of the tied block; the table
# is reusable and exposes the intermediate values.
table = subset_recursion([0, 1, 2], zbar=4.0, lam=lam)
print("\nsubset table (mask -> R):")
for mask in range(1, table.full_mask + 1):
    members = [table.members[i] for i in range(3) if mask >> i & 1]
    print(f"  {members}: {math.exp(table.log_value(mask)):.6f}")

# Agreement holds across random weights and block structures, not just the
# worked example; the acceptance suite runs the same check at 500 trials.
worst = recursion_enumeration_gap(7, 200)
print(f"\n200 random instances, worst |recursion - enumeration| = {worst:.2e}")

# Probabilities only depend on weight ratios: rescaling lambda is free.
scaled = pl_partial_ranking_log_prob(lam * 1e6, ranking)
print(f"scale invariance: |log p - log p_scaled| = {abs(log_p - scaled):.2e}")
