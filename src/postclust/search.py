"""Greedy descent over the partition lattice for the expected-loss minimizer.

Starting from an initial partition, each iteration generates the nearest
covering partitions (cluster merges) and nearest covered partitions
(cluster splits), and moves to the candidate with the smallest posterior
expected loss if it strictly improves on the current value.  The walk
stops at the first iteration with no strict improvement, or after
``max_iters`` iterations.  Because the loss strictly decreases along the
trajectory, no partition can repeat and termination is guaranteed.

Candidates are not built as partitions and scored one by one.  A move is
an edge of the lattice between two pieces X and Y: a merge of clusters a
and b joins X = a to Y = b, and a split cuts X out of a cluster U,
leaving Y = U - X.  Along an edge each loss changes by the edge's
distance less one gain in (X, Y), for a merge, and by the negative of
that for a split.  The gains are (4/N^2) Σ p_ij over the pairs i in X,
j in Y for the Binder loss; (2/N) Σ_{n in U} log2(mass of n to U / mass
of n to its own piece) for the VI lower bound, with ``p`` the
similarity; and (2/NM) Σ_cells [f(x+y) - f(x) - f(y)], f(n) = n log2 n,
over the draw cells holding x items of X and y of Y, for the exact VI.
Whole clusters' masses are rows of one ``Z^T P`` and their counts are
columns of the contingency counts against every draw; only a split's
piece pays a product with ``P`` or a bincount.  This is how SALSO scores
moves (Dahl, Johnson & Müller 2022, "Search Algorithms and Loss
Functions for Bayesian Clustering").

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
    CERTIFY_MARGIN, DrawMatrix, _check_estimator, best_sampled,
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


def _pieces(c: Partition, moves: Neighbors, p: np.ndarray):
    """Per move, the items X and Y hold and every item's similarity mass
    to each, as (C, N) arrays.  A merge of (a, b) has X = a, Y = b; a split
    cuts X = ``part`` out of cluster ``pair[t, 0]``."""
    z = np.asarray(c.labels) == np.arange(c.k)[:, None]
    r = z.astype(np.float64) @ p
    a, b = moves.pair.T
    in_x, in_y, to_x, to_y = z[a], z[b], r[a], r[b]
    s = np.flatnonzero(~moves.merge)
    part = moves.part[s]
    cut = part.astype(np.float64) @ p
    in_y[s], to_y[s] = in_x[s] & ~part, to_x[s] - cut
    in_x[s], to_x[s] = part, cut
    return in_x, in_y, to_x, to_y


def _binder_gains(c: Partition, moves: Neighbors, draws: DrawMatrix) -> np.ndarray:
    """(4/N^2) Σ p_ij over the item pairs i in X, j in Y."""
    in_x, _, _, to_y = _pieces(c, moves, draws.similarity)
    pairs = np.einsum("tn,tn->t", in_x.astype(np.float64), to_y)
    return pairs * (4.0 / (c.n_items * c.n_items))


def _vi_lower_gains(c: Partition, moves: Neighbors,
                    draws: DrawMatrix) -> np.ndarray:
    """(2/N) Σ_{n in U} log2(mass of n to U / mass of n to its own piece)."""
    in_x, in_y, to_x, to_y = _pieces(c, moves, draws.similarity)
    own = np.where(in_x, to_x, np.where(in_y, to_y, 1.0))
    ratio = np.where(in_x | in_y, to_x + to_y, 1.0) / own  # 1 outside U
    return 2.0 * np.log2(ratio).sum(axis=1) / c.n_items


def _vi_gains(c: Partition, moves: Neighbors, draws: DrawMatrix) -> np.ndarray:
    """(2/NM) Σ [f(x+y) - f(x) - f(y)], f(n) = n log2 n, over the draw
    cells holding x > 0 items of X and y > 0 of Y."""
    joint = draws._joint_counts(c).reshape(-1, c.k)  # draw cells x clusters
    column = np.ascontiguousarray(joint.T)
    f = _xlogx(np.arange(c.n_items + 1)).take
    gains = np.empty(len(moves))
    for t, (a, b) in enumerate(moves.pair.tolist()):
        if moves.merge[t]:
            cells = np.flatnonzero(column[a])
            x, y = column[a][cells], column[b][cells]
        else:
            x = np.bincount(draws._rowcode[:, moves.part[t]].ravel(),
                            minlength=joint.shape[0])
            cells = np.flatnonzero(x)
            x, y = x[cells], column[a][cells] - x[cells]
        x, y = x[y > 0], y[y > 0]
        gains[t] = (f(x + y) - f(x) - f(y)).sum()
    return 2.0 * gains / (draws.m * c.n_items)


def _loss_deltas(c: Partition, moves: Neighbors, draws: DrawMatrix,
                 config: SearchConfig) -> np.ndarray:
    """Each move's loss change: its distance less its gain for a merge,
    and the negative of that for the split that undoes such a merge."""
    if config.metric is Metric.BINDER:
        gains = _binder_gains(c, moves, draws)
    elif config.estimator == "exact":
        gains = _vi_gains(c, moves, draws)
    else:
        gains = _vi_lower_gains(c, moves, draws)
    return np.where(moves.merge, 1.0, -1.0) * (moves.delta - gains)


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
