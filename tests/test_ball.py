import math

import numpy as np
import pytest

from postclust import (
    DrawMatrix,
    Metric,
    Partition,
    ball_bounds,
    binder,
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


def size_profiles(n, largest=None):
    """Every multiset of cluster sizes summing to n, largest first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for size in range(min(n, largest), 0, -1):
        for rest in size_profiles(n - size, size):
            yield (size,) + rest


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
        for _ in range(10):
            draws = synthetic_draws(rng, 6, 40)
            center = canonicalize(rng.integers(0, 3, size=6).tolist())
            for metric in (Metric.VI, Metric.BINDER):
                ball = credible_ball(center, draws, 0.2, metric)
                bounds = ball_bounds(ball, draws)
                member_rows = {
                    tuple(draws.draws[m].tolist())
                    for m in ball.member_indices
                }
                fn = vi if metric is Metric.VI else binder
                member_dist = [
                    fn(canonicalize(list(r)), center) for r in member_rows
                ]
                dmax = max(member_dist)
                ks = [canonicalize(list(r)).k for r in member_rows]
                for p in (
                    bounds.upper_vertical
                    + bounds.lower_vertical
                    + bounds.horizontal
                ):
                    assert p.labels in member_rows
                for p in bounds.upper_vertical:
                    assert p.k == min(ks)
                for p in bounds.lower_vertical:
                    assert p.k == max(ks)
                for p in bounds.horizontal:
                    assert fn(p, center) == pytest.approx(dmax, abs=0)

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
