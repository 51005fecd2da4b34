"""
Encoding differential diagnoses as partial rankings
===================================================

An annotator rarely commits to one label. They write an ordered list of
blocks: the conditions they find most plausible first, ties grouped
together, and everything they did not mention implicitly last. This demo
builds such rankings, completes them with the trailing unranked block, and
shows the matrix views the rest of the library is built on.
"""

import numpy as np

from plaus import (
    ClassSpace,
    PartialRanking,
    count_compatible_permutations,
    enumerate_compatible_permutations,
    mean_average_overlap,
    permutation_matrix,
    to_block_matrix,
    to_soft_permutation,
)

# Five conditions; the annotator says "3 first, then 0 and 2 tied" and
# leaves 1 and 4 unmentioned.
space = ClassSpace(size=5)
ranking = PartialRanking([[3], [0, 2]], space)

print("explicit blocks: ", [sorted(b) for b in ranking.blocks])
print("completed partition:", [sorted(b) for b in ranking.partition()])
print("ranked ids:", sorted(ranking.ranked), "unranked ids:", sorted(ranking.unranked))

# Every full ordering that lists block 1 before block 2 before the rest is
# compatible with the ranking. Their number is the product of factorials of
# the block sizes, including the trailing block.
count = count_compatible_permutations(ranking)
print(f"\ncompatible full orderings: {count}")
for sigma in enumerate_compatible_permutations(ranking):
    print("  ", sigma)

# The same structure as matrices: B marks block membership, Q marks which
# positions each block spans, and B == Q @ P for every compatible
# permutation matrix P.
bm = to_block_matrix(ranking)
print("\nmembership B:\n", bm.membership)
print("structure Q:\n", bm.structure)
sigma = next(enumerate_compatible_permutations(ranking))
p = permutation_matrix(sigma)
print(f"Q @ P == B for sigma={sigma}:", bool(np.array_equal(bm.structure @ p, bm.membership)))

# Averaging P over all compatible orderings gives the soft permutation
# matrix: row i is the distribution of which class sits at position i. It
# is doubly stochastic and the bridge to rank-similarity metrics.
soft = to_soft_permutation(ranking)
with np.printoptions(precision=3, suppress=True):
    print("\nsoft permutation:\n", soft)
print("row sums:", soft.sum(axis=1), " column sums:", soft.sum(axis=0))

# Mean average overlap compares two partial rankings through their soft
# permutations; it is normalized so that a ranking scores 1 against itself.
other = PartialRanking([[0], [3]], space)
similarity = mean_average_overlap(ranking, other, 3)
print(f"\nmean average overlap with [[0], [3]] to depth 3: {similarity:.3f}")
