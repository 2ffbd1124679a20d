"""Greedy descent over the partition lattice for the expected-loss minimizer.

Starting from an initial partition, each iteration generates the nearest
covering partitions (cluster merges) and nearest covered partitions
(cluster splits), scores every candidate by the configured posterior
expected loss, and moves to the best candidate if it strictly improves on
the current value.  The walk stops at the first iteration with no strict
improvement, or after ``max_iters`` iterations.  Because the loss strictly
decreases along the trajectory, no partition can repeat and termination is
guaranteed.
"""

from dataclasses import dataclass, field

from .metrics import Metric, NeighborCandidate, closest_neighbors
from .partition import Partition
from .posterior import (
    DrawMatrix,
    SimilarityMatrix,
    best_sampled,
    expected_loss,
    similarity_matrix,
)

IMPROVEMENT_TOL = 1e-12  # required strict decrease before a move is accepted


@dataclass
class SearchConfig:
    """Knobs for :func:`greedy_search`.

    ``l`` bounds the candidates examined per direction each iteration; when
    None it defaults to 2 k^2 capped at 200, so local effort scales with the
    current number of clusters.  ``init`` selects the starting point: the
    sampled partition minimizing the configured loss ("best"), the final
    draw ("last"), or an explicit partition.
    """

    metric: Metric
    estimator: str = "exact"
    l: int | None = None
    max_iters: int = 100
    seed: int = 0
    init: str | Partition = "best"

    def __post_init__(self):
        if self.estimator not in ("exact", "lower-bound"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.metric is Metric.BINDER and self.estimator == "lower-bound":
            raise ValueError(
                "the lower-bound estimator applies only to the variation of "
                "information"
            )
        if self.l is not None and self.l < 1:
            raise ValueError("candidate budget l must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if isinstance(self.init, str) and self.init not in ("best", "last"):
            raise ValueError("init must be 'best', 'last', or a Partition")


@dataclass(eq=False)
class SearchResult:
    optimum: Partition
    expected_loss: float
    iterations_used: int  # accepted moves
    trajectory: list[tuple[Partition, float]] = field(repr=False)


class _LossEvaluator:
    """Memoizing posterior expected-loss evaluator for one search run."""

    def __init__(self, draws: DrawMatrix, config: SearchConfig,
                 psm: SimilarityMatrix | None = None):
        self.draws = draws
        self.config = config
        needs_psm = (config.metric is Metric.BINDER
                     or config.estimator == "lower-bound")
        self.psm = psm if psm is not None else (
            similarity_matrix(draws) if needs_psm else None
        )
        self._cache: dict[tuple[int, ...], float] = {}

    def __call__(self, candidate: Partition) -> float:
        cached = self._cache.get(candidate.labels)
        if cached is None:
            cached = expected_loss(
                candidate, self.draws, self.config.metric,
                self.config.estimator, self.psm,
            )
            self._cache[candidate.labels] = cached
        return cached


def _pick_best(candidates, loss) -> tuple[Partition, float]:
    scored = [(loss(cand.partition), cand.partition.labels, cand.partition)
              for cand in candidates]
    best = min(scored)
    return best[2], best[0]


def evaluate_candidates(
    current: Partition,
    candidates: list[NeighborCandidate],
    draws: DrawMatrix,
    config: SearchConfig,
) -> tuple[Partition, float]:
    """Score every candidate and return the minimizer with its loss.

    Ties are broken by the lexicographically smallest canonical label
    sequence, so the choice is deterministic.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    for cand in candidates:
        if cand.partition.n_items != current.n_items:
            raise ValueError("candidate covers a different item count")
    return _pick_best(candidates, _LossEvaluator(draws, config))


def _initial_partition(draws: DrawMatrix, config: SearchConfig,
                       evaluator: _LossEvaluator) -> Partition:
    if isinstance(config.init, Partition):
        if config.init.n_items != draws.n:
            raise ValueError("initial partition covers a different item count")
        return config.init
    if config.init == "last":
        return draws.row(draws.m - 1)
    part, loss = best_sampled(
        draws, config.metric, config.estimator, evaluator.psm
    )
    evaluator._cache[part.labels] = loss
    return part


def greedy_search(draws: DrawMatrix, config: SearchConfig) -> SearchResult:
    """Locate a posterior expected-loss minimizer by greedy lattice moves.

    Returns the final partition, its estimated loss, the number of accepted
    moves, and the full descent trajectory.  Identical inputs (including
    the seed, which drives split-candidate sampling) give bit-identical
    results.
    """
    evaluator = _LossEvaluator(draws, config)
    current = _initial_partition(draws, config, evaluator)
    current_loss = evaluator(current)
    trajectory = [(current, current_loss)]
    moves = 0
    for iteration in range(1, config.max_iters + 1):
        budget = config.l
        if budget is None:
            budget = min(2 * current.k * current.k, 200)
        candidates = closest_neighbors(
            current, config.metric, budget,
            rng_seed=config.seed * 100003 + iteration,
        )
        if not candidates:
            break
        best_part, best_loss = _pick_best(candidates, evaluator)
        if best_loss < current_loss - IMPROVEMENT_TOL:
            current, current_loss = best_part, best_loss
            trajectory.append((current, current_loss))
            moves += 1
        else:
            break
    return SearchResult(current, current_loss, moves, trajectory)
