"""Posterior plausibilities from partially ranked annotations.

The package turns sets of partial rankings with ties, as collected from
multiple annotators per case, into Monte Carlo samples of class
plausibilities, and evaluates predictions against those samples with
uncertainty-adjusted metrics. See the README for a tour.
"""

from .rankings import (
    ClassSpace,
    PartialRanking,
    BlockMatrix,
    enumerate_compatible_permutations,
    count_compatible_permutations,
    to_block_matrix,
    to_soft_permutation,
    permutation_matrix,
)
from .irn import irn_single, irn_aggregate
from .samples import PosteriorSamples
from .prirn import DEFAULT_GAMMA_GRID, PrIrnModel
from .pl_likelihood import (
    SubsetTable,
    subset_recursion,
    pl_partial_ranking_log_prob,
    pl_log_likelihood,
)
from .pl_gibbs import (
    DEFAULT_REPETITION_GRID,
    GibbsConfig,
    GibbsSampler,
    gibbs_run,
)
from .simple_models import (
    dirichlet_from_counts,
    NormalScoreModel,
    score_threshold_certainty,
)
from .metrics import (
    PredictionSet,
    annotation_certainty_topj,
    ua_topk_accuracy,
    ua_set_accuracy,
    ua_average_overlap,
    average_overlap,
    mean_average_overlap,
    risk_metrics,
    loo_agreement,
    summarize_metric,
)
from .sim_oracle import (
    SimSpec,
    simulate_annotations,
    brute_force_partial_prob,
    grid_posterior_oracle,
)

__version__ = "0.1.0"
