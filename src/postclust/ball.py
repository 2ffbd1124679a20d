"""Credible balls around a partition point estimate, with summary bounds.

The 1 - alpha credible ball is the smallest metric ball centered at the
point estimate that holds at least 1 - alpha of the posterior mass, with
the mass and the radius both estimated from the MCMC draws.  Because the
radius must come from the empirical distance grid, it is always one of the
observed center-to-draw distances, the least float of a rounded-apart tie.

A ball over thousands of draws is unwieldy to report, so it is summarized
by three bound sets taken over the distinct member partitions: the
vertical upper bounds (fewest clusters, then most distant from the
center), the vertical lower bounds (most clusters, then most distant), and
the horizontal bounds (most distant overall).
"""

from dataclasses import dataclass, field

import numpy as np

from .metrics import Metric
from .partition import Partition
from .posterior import IMPROVEMENT_TOL, DrawMatrix, _unique_rows, draw_distances

__all__ = ["CredibleBall", "BallBounds", "credible_ball", "ball_bounds"]


@dataclass(eq=False)
class CredibleBall:
    center: Partition
    metric: Metric
    alpha: float
    epsilon_star: float
    member_indices: np.ndarray  # draw indices within the radius
    coverage: float  # achieved posterior mass, >= 1 - alpha
    distances: np.ndarray = field(repr=False)  # center-to-draw, all M draws


@dataclass(eq=False)
class BallBounds:
    upper_vertical: tuple[Partition, ...]
    lower_vertical: tuple[Partition, ...]
    horizontal: tuple[Partition, ...]


def credible_ball(
    center: Partition,
    draws: DrawMatrix,
    alpha: float,
    metric: Metric,
) -> CredibleBall:
    """Smallest ball around ``center`` holding >= 1 - alpha posterior mass."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    d, m = draw_distances(center, draws, metric), draws.m
    # the mass left outside against alpha: the float 1.0 - alpha can round
    # above 1 - alpha and ask for one draw more than the ball needs
    needed = int(np.flatnonzero((m - np.arange(1, m + 1)) / m <= alpha)[0])
    ranked = np.sort(d)
    members = np.flatnonzero(d <= ranked[needed] + IMPROVEMENT_TOL)  # ties the radius
    eps = float(ranked[np.searchsorted(ranked, ranked[needed] - IMPROVEMENT_TOL)])
    return CredibleBall(
        center=center,
        metric=metric,
        alpha=alpha,
        epsilon_star=eps,
        member_indices=members,
        coverage=members.size / m,
        distances=d,
    )


def ball_bounds(ball: CredibleBall, draws: DrawMatrix) -> BallBounds:
    """Extract the vertical and horizontal bound partitions of a ball.

    Bounds are taken over the distinct partitions inside the ball (every
    sampled member counts, regardless of how often it was visited).  When
    several partitions tie on a bound criterion all are reported, ordered
    by draw frequency and then by label sequence.
    """
    idx = ball.member_indices
    first, _, counts = _unique_rows(draws.draws[idx])
    u_dist = ball.distances[idx[first]]
    u_k = draws._ks[idx[first]]

    def collect(pool: np.ndarray) -> tuple[Partition, ...]:
        """The members of ``pool`` farthest from the center, ties within
        ``IMPROVEMENT_TOL``, by frequency and then labels."""
        far = pool & (u_dist >= u_dist[pool].max() - IMPROVEMENT_TOL)
        chosen = np.flatnonzero(far)  # in label order: _unique_rows sorts
        chosen = chosen[np.argsort(-counts[chosen], kind="stable")]
        return tuple(draws.row(idx[first[u]]) for u in chosen)

    return BallBounds(collect(u_k == u_k.min()), collect(u_k == u_k.max()),
                      collect(u_k > 0))  # horizontal: of any k
