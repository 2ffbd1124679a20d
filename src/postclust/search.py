"""Greedy descent over the partition lattice for the expected-loss minimizer.

Starting from an initial partition, each iteration generates the nearest
covering partitions (cluster merges) and nearest covered partitions
(cluster splits), and moves to the candidate with the smallest posterior
expected loss if it strictly improves on the current value.  The
candidates are the closest merges and splits ``closest_neighbors`` lists,
and nothing is drawn at random, so the trajectory depends only on the
draws, the start and the config.  The walk stops at the first iteration
with no strict improvement, or after ``max_iters`` iterations.  Because
the loss strictly decreases along the trajectory, no partition can repeat
and termination is guaranteed.

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
Whole clusters' masses are rows of R = Z p and their counts columns of
the contingency counts against every draw.  A merge's Binder or
lower-bound gain is read from a k x k table built from R, and a Binder
peel-off of i from U gains R[U, i] - p_ii.  Any other Binder split, of a
cluster of at most ``EXHAUSTIVE_SPLIT_LIMIT`` items, pays a product with
``p`` over the items of the clusters cut, a lower-bound split one over
all N items, and an exact-VI move a bincount.
This is how SALSO scores moves (Dahl, Johnson & Müller 2022, "Search
Algorithms and Loss Functions for Bayesian Clustering").

The loss changes are exact up to rounding (below 1e-14 on the tests'
posteriors), so the walk does not rely on them to choose.  Every
candidate within ``CERTIFY_MARGIN`` of the smallest change is rescored by
the public estimator and chosen by ``posterior._certified_best``, ties to
the smallest labels, as it would be if every candidate were scored by the
estimator: the estimator's minimizer is always within the margin.
Trajectories and losses are therefore those of full evaluation, bit for
bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .metrics import Metric, Neighbors, _xlogx, closest_neighbors
from .partition import Partition
from .posterior import (
    CERTIFY_MARGIN, IMPROVEMENT_TOL, TILE_CELLS, DrawMatrix, _certified_best,
    _check_estimator, best_sampled,
)

__all__ = ["SearchConfig", "SearchResult", "greedy_search"]


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
        for name in ("l", "max_iters"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 1
                    or name == "l" and value is None):
                raise ValueError(f"{name} ({value!r}) must be an integer >= 1")
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


def _binder_gains(c: Partition, moves: Neighbors, draws: DrawMatrix) -> np.ndarray:
    """(4/N^2) Σ p_ij over the item pairs i in X, j in Y, from R = Z p."""
    p, z = draws.similarity, moves.source == np.arange(c.k)[:, None]
    r = z @ p
    gains = (r @ z.T)[tuple(moves.pair.T)]  # a split's, at b = -1, is replaced
    s = np.flatnonzero(~moves.merge)
    u, x = moves.pair[s, 0], moves.part[s]
    y, xs = z[u] & ~x, x.sum(axis=1)  # the rest of the cluster cut, |X|
    peel = np.minimum(xs, np.asarray(c.sizes)[u] - xs) == 1  # i: R[U, i] - p_ii
    i = np.where(xs == 1, x.argmax(axis=1), y.argmax(axis=1))[peel]
    gains[s[peel]] = r[u[peel], i] - p[i, i]
    w = np.flatnonzero(z[u[~peel]].any(axis=0))  # the items of the clusters cut
    xp = x[~peel][:, w] @ p[np.ix_(w, w)]
    gains[s[~peel]] = np.einsum("tj,tj->t", xp, y[~peel][:, w])
    return gains * (4.0 / (c.n_items * c.n_items))


def _vi_lower_gains(c: Partition, moves: Neighbors,
                    draws: DrawMatrix) -> np.ndarray:
    """(2/N) Σ_{n in U} log2(mass of n to U / mass of n to its own piece).
    With R = Z p, o_n = R[c_n, n] and base[A] = Σ_{n in A} log2 o_n, a merge
    of (a, b) gains Q[a, b] + Q[b, a] - base[a] - base[b], Q = Z log2(o + R)^T;
    a split's masses to the rest of U are o less those to the piece X cut."""
    p, z = draws.similarity, moves.source == np.arange(c.k)[:, None]
    r = z @ p
    own = r[moves.source, np.arange(c.n_items)]
    base = np.bincount(moves.source, np.log2(own), minlength=c.k)
    a, b = moves.pair.T
    q = z @ np.log2(own + r).T
    gains = q[a, b] + q[b, a] - base[a] - base[b]  # a split's, at b = -1, is replaced
    s = np.flatnonzero(~moves.merge)
    u, x = a[s], moves.part[s]
    to_x = x @ p
    piece = np.where(x, to_x, np.where(z[u], own - to_x, 1.0))  # 1 outside U
    gains[s] = base[u] - np.log2(piece).sum(axis=1)
    return gains * (2.0 / c.n_items)


def _vi_gains(c: Partition, moves: Neighbors, draws: DrawMatrix) -> np.ndarray:
    """(2/NM) Σ [f(x+y) - f(x) - f(y)], f(n) = n log2 n, over the draw
    cells holding x items of X and y of Y; a cell with x = 0 or y = 0
    adds nothing.

    Only the cells meeting cluster a, the first of a merged pair or the
    split cluster, can hold both.  A merge gathers the counts of a and b
    in those cells from the contingency counts against every draw.  The x
    of the splits of one cluster come from one bincount over the cells of
    their pieces' items, with each move's codes offset by move, and y is
    the count of the cluster less x.  Moves are taken a few at a time, so
    that the cells and codes of one chunk stay near ``TILE_CELLS``.
    """
    joint = draws._joint_counts(c).reshape(-1, c.k)  # draw cells x clusters
    column = np.ascontiguousarray(joint.T)
    f = _xlogx(np.arange(c.n_items + 1)).take
    a, b = moves.pair.T
    gains = np.empty(len(moves))
    local = np.empty(column.shape[1], dtype=np.intp)
    for cluster in np.unique(a).tolist():
        cells = np.flatnonzero(column[cluster])
        u = column[cluster, cells]
        local[cells] = np.arange(len(cells))
        for merge in (True, False):
            group = np.flatnonzero((a == cluster) & (moves.merge == merge))
            # a move's cells, and M codes per item of its piece
            cost = np.cumsum(len(cells) + draws.m * moves.part[group].sum(axis=1))
            cut = np.flatnonzero(np.diff(cost // TILE_CELLS)) + 1
            for t in np.split(group, cut):
                if merge:
                    x, y = u, column[b[t][:, None], cells]
                else:
                    move, item = np.nonzero(moves.part[t])
                    codes = local[draws._rowcode[:, item]] + move * len(cells)
                    x = np.bincount(codes.ravel(), minlength=len(t) * len(cells))
                    x = x.reshape(len(t), len(cells))
                    y = u - x
                gains[t] = (f(x + y) - f(x) - f(y)).sum(axis=1)
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
    start = draws.draws[-1] if config.init == "last" else config.init.labels
    return _certified_best(np.array([start]), draws, config.metric, config.estimator)


def greedy_search(draws: DrawMatrix, config: SearchConfig) -> SearchResult:
    """Locate a posterior expected-loss minimizer by greedy lattice moves.

    Returns the final partition, its estimated loss, the number of accepted
    moves, the full descent trajectory and per-iteration stats.  The search
    draws no random numbers: identical inputs give bit-identical results.
    Exact and lower-bound VI searches from ``one_cluster`` never move when
    the posterior's clusters are balanced: every peel-off raises the loss,
    and no other split of a large cluster is listed, so the search returns
    its start (ROADMAP item 2).
    """
    current, current_loss = _initial(draws, config)
    trajectory = [(current, current_loss)]
    stats = []
    for _ in range(config.max_iters):
        budget = config.l or min(2 * current.k * current.k, 200)
        moves = closest_neighbors(current, config.metric, budget)
        if not len(moves):
            stats.append(IterationStats(0, 0, None))
            break
        deltas = _loss_deltas(current, moves, draws, config)
        shortlist = np.flatnonzero(deltas <= deltas.min() + CERTIFY_MARGIN)
        rows = np.array(sorted(moves.rows(shortlist).tolist()))  # ties to least labels
        best_part, best_loss = _certified_best(rows, draws, config.metric,
                                               config.estimator)
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
