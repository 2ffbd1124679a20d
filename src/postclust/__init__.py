"""Point estimates and credible balls for Bayesian posteriors over clusterings.

The package covers the full pipeline: a Dirichlet-process mixture sampler
produces partition draws; partition metrics (variation of information and
the N-invariant pair-counting distance) score candidate clusterings; a
greedy lattice search locates the posterior expected-loss minimizer; and
credible balls with vertical/horizontal bounds quantify the uncertainty
around it.
"""

__version__ = "0.1.0"

from .ball import BallBounds, CredibleBall, ball_bounds, credible_ball
from .dpm import (
    Dataset,
    SamplerConfig,
    crp_log_prior,
    gibbs_run,
    load_galaxy,
    log_marginal,
    simulate_example,
)
from .metrics import (
    Metric,
    Neighbors,
    binder,
    closest_neighbors,
    merge_delta,
    vi,
)
from .partition import (
    Partition,
    canonicalize,
    contingency,
    one_cluster,
    singletons,
)
from .posterior import (
    DrawMatrix,
    best_sampled,
    draw_distances,
    expected_binder,
    expected_loss,
    expected_vi,
    expected_vi_lower,
    load_draws,
    similarity_matrix,
)
from .search import SearchConfig, SearchResult, greedy_search

__all__ = [
    "__version__",
    "BallBounds",
    "CredibleBall",
    "Dataset",
    "DrawMatrix",
    "Metric",
    "Neighbors",
    "Partition",
    "SamplerConfig",
    "SearchConfig",
    "SearchResult",
    "ball_bounds",
    "best_sampled",
    "binder",
    "canonicalize",
    "closest_neighbors",
    "contingency",
    "credible_ball",
    "crp_log_prior",
    "draw_distances",
    "expected_binder",
    "expected_loss",
    "expected_vi",
    "expected_vi_lower",
    "gibbs_run",
    "greedy_search",
    "load_draws",
    "load_galaxy",
    "log_marginal",
    "merge_delta",
    "one_cluster",
    "similarity_matrix",
    "simulate_example",
    "singletons",
    "vi",
]
