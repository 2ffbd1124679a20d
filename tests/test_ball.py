import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from postclust import (
    DrawMatrix,
    Metric,
    Partition,
    ball_bounds,
    canonicalize,
    closest_neighbors,
    credible_ball,
    draw_distances,
    one_cluster,
    singletons,
    vi,
)

from conftest import synthetic_draws


def make_draws(rows):
    return DrawMatrix(np.asarray(rows))


def exact_key(c, d, metric):
    """A key in the order of the exact distance: N^2 binder(c, d), an
    integer, or 2^(N vi(c, d)), the fraction Π_A |A|^|A| Π_B |B|^|B| /
    Π_cells n^2n over the clusters A of c, B of d and their cells."""
    a, b = Counter(c.labels).values(), Counter(d.labels).values()
    cells = Counter(zip(c.labels, d.labels)).values()
    if metric is Metric.BINDER:
        return sum(x * x for x in (*a, *b)) - 2 * sum(x * x for x in cells)
    return Fraction(math.prod(x**x for x in (*a, *b)),
                    math.prod(x ** (2 * x) for x in cells))


def size_profiles(n, largest=None):
    """Every multiset of cluster sizes summing to n, largest first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for size in range(min(n, largest), 0, -1):
        for rest in size_profiles(n - size, size):
            yield (size,) + rest


def rounded_tie():
    """(c, a, b): a and b sit at exactly the same VI from c through
    different cell terms, 7 log2(56/49) twice against 7 log2(64/49) and 0,
    which round 1 ulp apart."""
    c = canonicalize([0] * 9 + [1] * 8 + [2] * 7 + [3] * 6)
    a, b = (canonicalize(list(map(int, row.split(",")))) for row in (
        "0,1,2,0,0,0,0,0,0,3,3,3,3,0,3,3,3,2,2,2,2,2,2,2,4,4,4,4,4,4",
        "0,0,1,0,0,0,0,2,0,2,2,2,2,0,2,2,2,3,3,3,3,3,3,3,4,4,4,4,4,4"))
    assert exact_key(a, c, Metric.VI) == exact_key(b, c, Metric.VI)
    return c, a, b


def spread_draws(m, n=16):
    """m draws of n items at distinct VI distances from one cluster: one
    draw per size profile, skipping a profile whose Σ s log2 s, and so
    whose distance, repeats an earlier one."""
    rows, seen = [], set()
    for sizes in size_profiles(n):
        key = round(sum(s * math.log2(s) for s in sizes), 9)
        if key not in seen:
            seen.add(key)
            rows.append(np.repeat(np.arange(len(sizes)), sizes))
    return make_draws(rows[:m])


class TestCredibleBall:
    def test_degenerate_posterior(self):
        c = canonicalize([0, 0, 1])
        draws = make_draws([c.labels] * 10)
        for alpha in (0.01, 0.05, 0.5):
            ball = credible_ball(c, draws, alpha, Metric.VI)
            assert ball.epsilon_star == 0.0
            assert ball.coverage == 1.0
            assert len(ball.member_indices) == 10

    def test_two_draw_posterior_forces_inclusion(self):
        center = canonicalize([0, 0, 1, 1])
        far = one_cluster(4)
        draws = make_draws([center.labels, far.labels])
        ball = credible_ball(center, draws, 0.05, Metric.VI)
        assert ball.epsilon_star == pytest.approx(vi(center, far), abs=1e-12)
        assert ball.coverage == 1.0

    def test_alpha_validated(self):
        draws = make_draws([[0, 0, 1]])
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                credible_ball(one_cluster(3), draws, alpha, Metric.VI)

    def test_dimension_mismatch(self):
        draws = make_draws([[0, 0, 1]])
        with pytest.raises(ValueError):
            credible_ball(one_cluster(4), draws, 0.05, Metric.VI)

    def test_coverage_always_sufficient(self, rng):
        for _ in range(20):
            draws = synthetic_draws(rng, 6, int(rng.integers(5, 60)))
            center = canonicalize(rng.integers(0, 3, size=6).tolist())
            alpha = float(rng.uniform(0.02, 0.6))
            for metric in (Metric.VI, Metric.BINDER):
                ball = credible_ball(center, draws, alpha, metric)
                assert ball.coverage >= 1 - alpha
                assert len(ball.member_indices) == round(
                    ball.coverage * draws.m
                )

    @pytest.mark.parametrize("m, alpha, members", [(10, 0.7, 3),
                                                   (100, 0.18, 82)])
    def test_fewest_draws_holding_the_mass(self, m, alpha, members):
        # the float 1.0 - alpha rounds above the decimal 1 - alpha for
        # these alphas; the ball still holds just the fewest draws whose
        # share reaches it, 3 of 10 and 82 of 100
        draws, center = spread_draws(m), one_cluster(16)
        assert len(np.unique(draw_distances(center, draws, Metric.VI))) == m
        ball = credible_ball(center, draws, alpha, Metric.VI)
        assert len(ball.member_indices) == members

    def test_radius_is_minimal_on_the_observed_grid(self, rng):
        for _ in range(20):
            draws = synthetic_draws(rng, 5, 40)
            center = canonicalize(rng.integers(0, 3, size=5).tolist())
            alpha = 0.2
            ball = credible_ball(center, draws, alpha, Metric.VI)
            d = draw_distances(center, draws, Metric.VI)
            smaller = d[d < ball.epsilon_star]
            if smaller.size:
                # shrinking to the next observed distance loses coverage
                assert (d <= smaller.max()).sum() / draws.m < 1 - alpha

    def test_monotone_in_alpha(self, rng):
        draws = synthetic_draws(rng, 6, 50)
        center = canonicalize(rng.integers(0, 3, size=6).tolist())
        for metric in (Metric.VI, Metric.BINDER):
            radii = [
                credible_ball(center, draws, a, metric).epsilon_star
                for a in (0.01, 0.1, 0.3, 0.6)
            ]
            assert all(x >= y for x, y in zip(radii, radii[1:]))

    def test_radius_bounded_by_extreme_distance(self, rng):
        n = 6
        draws = synthetic_draws(rng, n, 30)
        center = canonicalize(rng.integers(0, 4, size=n).tolist())
        vi_ball = credible_ball(center, draws, 0.05, Metric.VI)
        b_ball = credible_ball(center, draws, 0.05, Metric.BINDER)
        assert vi_ball.epsilon_star <= math.log2(n)
        assert b_ball.epsilon_star <= 1 - 1 / n


class TestBallBounds:
    def test_degenerate_bounds_are_center(self):
        c = canonicalize([0, 1, 1])
        draws = make_draws([c.labels] * 6)
        ball = credible_ball(c, draws, 0.05, Metric.VI)
        bounds = ball_bounds(ball, draws)
        assert bounds.upper_vertical == (c,)
        assert bounds.lower_vertical == (c,)
        assert bounds.horizontal == (c,)

    def test_extremes_member_set(self):
        # ball membership: the center plus both lattice extremes; the top
        # is the vertical upper bound, the bottom the vertical lower one
        c = canonicalize([0, 0, 1, 1])
        rows = [c.labels] * 18 + [one_cluster(4).labels, singletons(4).labels]
        draws = make_draws(rows)
        ball = credible_ball(c, draws, 0.05, Metric.VI)
        assert ball.coverage == 1.0
        bounds = ball_bounds(ball, draws)
        assert bounds.upper_vertical == (one_cluster(4),)
        assert bounds.lower_vertical == (singletons(4),)
        # both extremes sit exactly 1 bit away, so both are horizontal bounds
        assert set(bounds.horizontal) == {one_cluster(4), singletons(4)}

    def test_bounds_are_members_with_exact_extremal_distance(self, rng):
        # in exact arithmetic: the ball holds every draw at most as far as
        # its farthest member, and each bound is every member of its pool
        # at the pool's largest distance, however the floats round
        for _ in range(10):
            draws = synthetic_draws(rng, 6, 40)
            center = canonicalize(rng.integers(0, 3, size=6).tolist())
            rows = [canonicalize(row) for row in draws.draws.tolist()]
            for metric in (Metric.VI, Metric.BINDER):
                ball = credible_ball(center, draws, 0.2, metric)
                bounds = ball_bounds(ball, draws)
                key = {p: exact_key(p, center, metric) for p in set(rows)}
                members = {rows[m] for m in ball.member_indices}
                radius = max(key[p] for p in members)
                assert ball.member_indices.tolist() == [
                    m for m, p in enumerate(rows) if key[p] <= radius]

                def farthest(pool):
                    return {p for p in pool if key[p] == max(map(key.get, pool))}

                ks = [p.k for p in members]
                assert set(bounds.upper_vertical) == farthest(
                    [p for p in members if p.k == min(ks)])
                assert set(bounds.lower_vertical) == farthest(
                    [p for p in members if p.k == max(ks)])
                assert set(bounds.horizontal) == farthest(members)

    def test_exact_tie_that_rounds_apart_is_one_bound(self):
        # the ball at the nearer one's radius holds both, and both are
        # horizontal bounds
        c, a, b = rounded_tie()
        draws = make_draws([c.labels] * 8 + [a.labels, b.labels])
        ball = credible_ball(c, draws, 0.15, Metric.VI)
        assert ball.coverage == 1.0
        assert set(ball_bounds(ball, draws).horizontal) == {a, b}

    def test_radius_of_a_tie_that_rounds_apart_is_the_lesser_float(self):
        # the quantile draw is the nearer of the two, or the farther one
        # with the nearer inside the ball: either way the radius reads the
        # lesser float, the correctly rounded exact distance
        c, a, b = rounded_tie()
        draws = make_draws([c.labels] * 8 + [a.labels, b.labels])
        d = draw_distances(c, draws, Metric.VI)
        assert d[8] != d[9]
        for alpha in (0.15, 0.05):  # the ninth draw of ten, then the tenth
            ball = credible_ball(c, draws, alpha, Metric.VI)
            assert ball.epsilon_star == min(d[8], d[9])
            assert ball.member_indices.tolist() == list(range(10))

    def test_smallest_nontrivial_ball_coincides_across_metrics(self):
        # posterior mass on the center, its provably nearest neighbors, and
        # one far partition; a 80% ball keeps exactly center + neighbors,
        # and that membership is metric-independent
        c = canonicalize([0, 0, 1, 1, 2])
        moves = closest_neighbors(c, Metric.VI, l=100)
        tied = np.flatnonzero(moves.delta - moves.delta.min() < 1e-12)
        nearest = {Partition(tuple(row)) for row in moves.rows(tied).tolist()}
        rows = [c.labels] * 10
        for p in sorted(nearest, key=lambda p: p.labels):
            rows.append(p.labels)
        rows.append(one_cluster(5).labels)
        draws = make_draws(rows)
        members = {}
        for metric in (Metric.VI, Metric.BINDER):
            ball = credible_ball(c, draws, 0.2, metric)
            members[metric] = frozenset(ball.member_indices.tolist())
            assert len(ball.member_indices) == len(rows) - 1  # far one out
        assert members[Metric.VI] == members[Metric.BINDER]

    def test_tied_bounds_ordered_by_frequency_then_labels(self):
        c = canonicalize([0, 0, 1, 1])
        a = canonicalize([0, 1, 2, 2])  # frequency 1
        b = canonicalize([0, 0, 1, 2])  # frequency 3, same distance to c
        rows = [c.labels] * 10 + [a.labels] + [b.labels] * 3
        draws = make_draws(rows)
        ball = credible_ball(c, draws, 0.05, Metric.VI)
        bounds = ball_bounds(ball, draws)
        assert vi(a, c) == vi(b, c)
        assert bounds.horizontal == (b, a)
