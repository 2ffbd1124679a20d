"""Greedy descent over the partition lattice for the expected-loss minimizer.

Starting from an initial partition, each iteration generates the nearest
covering partitions (cluster merges) and nearest covered partitions
(cluster splits), and moves to the candidate with the smallest posterior
expected loss if it strictly improves on the current value.  The walk
stops at the first iteration with no strict improvement, or after
``max_iters`` iterations.  Because the loss strictly decreases along the
trajectory, no partition can repeat and termination is guaranteed.

Candidates are not built as partitions and scored one by one.  Each
iteration computes one statistic of the current partition: the item-to-
cluster similarity mass ``R = P Z`` for the Binder loss (with the
cluster block sums ``Z^T R``) and the VI lower bound, or the contingency
counts against every draw for the exact VI.  Every candidate's loss
change then follows from the move ``closest_neighbors`` returns with it:
the two clusters a merge joins, or the cluster a split cuts and the
piece it cuts off.  This is how SALSO scores moves (Dahl, Johnson &
Müller 2022, "Search Algorithms and Loss Functions for Bayesian
Clustering").

The loss changes are exact up to rounding (below 1e-14 on the tests'
posteriors), so the walk does not rely on them to choose.  Every
candidate within ``CERTIFY_MARGIN`` of the smallest change is rescored by
the public ``expected_loss`` estimator, and the choice among those is by
(loss, canonical labels), as it would be if every candidate were scored
by the estimator: the estimator's minimizer is always within the margin.
Trajectories and losses are therefore those of full evaluation, bit for
bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .metrics import Metric, Neighbors, _xlogx, closest_neighbors
from .partition import Partition
from .posterior import (
    CERTIFY_MARGIN, DrawMatrix, _check_estimator, _onehot, best_sampled,
    expected_loss,
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
    init: str | Partition = "best"

    def __post_init__(self):
        _check_estimator(self.metric, self.estimator)
        if self.l is not None and self.l < 1:
            raise ValueError("candidate budget l must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (isinstance(self.init, Partition)
                or isinstance(self.init, str) and self.init in ("best", "last")):
            raise ValueError("init must be 'best', 'last', or a Partition")


@dataclass(frozen=True)
class IterationStats:
    """What one search iteration did."""

    candidates: int  # neighbours generated and scored by their loss change
    certified: int  # of those, rescored by the public estimator
    accepted: str | None  # direction of the accepted move; None if it stopped


@dataclass(eq=False)
class SearchResult:
    optimum: Partition
    expected_loss: float
    iterations_used: int  # accepted moves
    trajectory: list[tuple[Partition, float]] = field(repr=False)
    stats: list[IterationStats] = field(default_factory=list, repr=False)


def _pick_best(parts, draws: DrawMatrix,
               config: SearchConfig) -> tuple[Partition, float]:
    """The partition of smallest public expected loss, ties to the smallest
    labels."""
    loss, _, part = min(
        (expected_loss(p, draws, config.metric, config.estimator), p.labels, p)
        for p in parts
    )
    return part, loss


def _signed_distance(moves: Neighbors) -> np.ndarray:
    """The part of each loss change that depends on cluster sizes alone.

    Between nested partitions both metrics are a difference of one size
    term (Σ n log2 n over N for VI, Σ n^2 over N^2 for Binder), so that
    part is the move's distance, positive for a merge and negative for a
    split.
    """
    return np.where(moves.merge, moves.delta, -moves.delta)


def _binder_deltas(c: Partition, moves: Neighbors, draws: DrawMatrix) -> np.ndarray:
    """Change in expected Binder loss: (2/N^2) Σ (1 - 2 p) over the item
    pairs a merge joins, or minus that over the pairs a split separates."""
    p = draws.similarity
    z = _onehot(c)
    mass = np.empty(len(moves))  # Σ p over those pairs, negated for splits
    merge = moves.merge
    a, b = moves.pair[merge].T
    mass[merge] = (z.T @ (p @ z))[a, b]
    cut = moves.part[~merge].astype(np.float64)
    rest = z[:, moves.pair[~merge, 0]].T - cut
    mass[~merge] = -((cut @ p) * rest).sum(axis=1)
    return _signed_distance(moves) - mass * (4.0 / (c.n_items * c.n_items))


def _vi_lower_deltas(c: Partition, moves: Neighbors, draws: DrawMatrix) -> np.ndarray:
    """Change in the Jensen bound: the signed distance less (2/N) times the
    change in Σ_n log2 of item n's similarity mass within its cluster."""
    p = draws.similarity
    labels = np.asarray(c.labels)
    z = _onehot(c)
    mass = p @ z  # mass[n, j]: similarity of item n to cluster j
    own = mass[np.arange(c.n_items), labels]
    own_log = np.bincount(labels, np.log2(own), minlength=c.k)
    # joined[i, j]: Σ over items n of cluster i of log2(mass to i and j)
    joined = z.T @ np.log2(mass + own[:, None])
    out = np.empty(len(moves))
    merge = moves.merge
    a, b = moves.pair[merge].T
    out[merge] = joined[a, b] + joined[b, a] - own_log[a] - own_log[b]
    split = ~merge
    cluster = moves.pair[split, 0]
    cut = moves.part[split]
    inside = z[:, cluster].T > 0
    cut_mass = cut.astype(np.float64) @ p
    new_mass = np.where(cut, cut_mass, mass[:, cluster].T - cut_mass)
    logs = np.log2(new_mass, out=np.zeros_like(new_mass), where=inside)
    out[split] = logs.sum(axis=1) - own_log[cluster]
    return _signed_distance(moves) - 2.0 * out / c.n_items


def _vi_deltas(c: Partition, moves: Neighbors, draws: DrawMatrix) -> np.ndarray:
    """Change in exact expected VI, from the contingency counts J of ``c``
    against every draw: the signed distance less (2/NM) Σ_cells Δ n log2 n.

    Only cells holding items of both merged clusters, or of both pieces of
    a split, change the sum.
    """
    joint = draws._joint_counts(c).reshape(-1, c.k)  # draw cells x clusters
    used = sorted(set(moves.pair[moves.pair >= 0].tolist()))
    column = dict(zip(used, np.ascontiguousarray(joint[:, used].T)))
    out = np.empty(len(moves))
    merge = np.flatnonzero(moves.merge)
    for t, (a, b) in zip(merge, moves.pair[merge].tolist()):
        both = (column[a] > 0) & (column[b] > 0)
        x, y = column[a][both], column[b][both]
        out[t] = (_xlogx(x + y) - _xlogx(x) - _xlogx(y)).sum()
    rowcode = draws._rowcode
    for t in np.flatnonzero(~moves.merge):
        cut = np.bincount(rowcode[:, moves.part[t]].ravel(),
                          minlength=joint.shape[0])
        cells = np.flatnonzero(cut)
        whole, cut = column[moves.pair[t, 0]][cells], cut[cells]
        out[t] = (_xlogx(cut) + _xlogx(whole - cut) - _xlogx(whole)).sum()
    return _signed_distance(moves) - 2.0 * out / (draws.m * c.n_items)


def _loss_deltas(c: Partition, moves: Neighbors, draws: DrawMatrix,
                 config: SearchConfig) -> np.ndarray:
    if config.metric is Metric.BINDER:
        return _binder_deltas(c, moves, draws)
    if config.estimator == "exact":
        return _vi_deltas(c, moves, draws)
    return _vi_lower_deltas(c, moves, draws)


def _initial(draws: DrawMatrix, config: SearchConfig) -> tuple[Partition, float]:
    if config.init == "best":
        return best_sampled(draws, config.metric, config.estimator)
    if isinstance(config.init, Partition):
        if config.init.n_items != draws.n:
            raise ValueError("initial partition covers a different item count")
        start = config.init
    else:
        start = draws.row(draws.m - 1)
    return start, expected_loss(start, draws, config.metric, config.estimator)


def greedy_search(draws: DrawMatrix, config: SearchConfig) -> SearchResult:
    """Locate a posterior expected-loss minimizer by greedy lattice moves.

    Returns the final partition, its estimated loss, the number of accepted
    moves, the full descent trajectory and per-iteration stats.  Identical
    inputs give bit-identical results: iteration t samples split candidates
    with seed t.
    """
    current, current_loss = _initial(draws, config)
    trajectory = [(current, current_loss)]
    stats = []
    for iteration in range(1, config.max_iters + 1):
        budget = config.l
        if budget is None:
            budget = min(2 * current.k * current.k, 200)
        moves = closest_neighbors(current, config.metric, budget,
                                  rng_seed=iteration)
        if not len(moves):
            stats.append(IterationStats(0, 0, None))
            break
        deltas = _loss_deltas(current, moves, draws, config)
        shortlist = np.flatnonzero(deltas <= deltas.min() + CERTIFY_MARGIN)
        best_part, best_loss = _pick_best(
            (Partition(tuple(moves.labels[t].tolist())) for t in shortlist),
            draws, config,
        )
        improved = best_loss < current_loss - IMPROVEMENT_TOL
        direction = None
        if improved:
            direction = "merge-up" if best_part.k < current.k else "split-down"
        stats.append(IterationStats(len(moves), len(shortlist), direction))
        if not improved:
            break
        current, current_loss = best_part, best_loss
        trajectory.append((current, current_loss))
    return SearchResult(current, current_loss, len(trajectory) - 1,
                        trajectory, stats)
