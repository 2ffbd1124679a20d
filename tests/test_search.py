import hashlib

import numpy as np
import pytest

import postclust.metrics
import postclust.posterior
import postclust.search
from postclust import (
    DrawMatrix,
    Metric,
    Partition,
    SearchConfig,
    best_sampled,
    canonicalize,
    closest_neighbors,
    expected_loss,
    greedy_search,
    one_cluster,
    similarity_matrix,
    singletons,
)

from postclust.posterior import (CERTIFY_MARGIN, IMPROVEMENT_TOL, _certified_best,
                                 _scanned_losses)
from postclust.search import _loss_deltas

from conftest import all_partitions, synthetic_draws

ESTIMATES = [
    (Metric.BINDER, "exact"),
    (Metric.VI, "exact"),
    (Metric.VI, "lower-bound"),
]


def reference_search(draws, config):
    """The descent with every candidate scored by the public estimator."""
    if config.init == "best":
        current, loss = best_sampled(draws, config.metric, config.estimator)
    else:
        current = draws.row(draws.m - 1)
        loss = expected_loss(current, draws, config.metric, config.estimator)
    trajectory = [(current.labels, loss)]
    for _ in range(config.max_iters):
        budget = config.l or min(2 * current.k * current.k, 200)
        moves = closest_neighbors(current, config.metric, budget)
        if not len(moves):
            break
        part_loss, _, part = min(
            (expected_loss(p, draws, config.metric, config.estimator), p.labels, p)
            for p in (Partition(tuple(row))
                      for row in moves.rows(np.arange(len(moves))).tolist())
        )
        if not part_loss < loss - IMPROVEMENT_TOL:
            break
        current, loss = part, part_loss
        trajectory.append((current.labels, loss))
    return trajectory


class TestConfigValidation:
    def test_lower_bound_with_binder_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(metric=Metric.BINDER, estimator="lower-bound")

    def test_bad_estimator(self):
        with pytest.raises(ValueError):
            SearchConfig(metric=Metric.VI, estimator="fast")

    def test_bad_budget_and_iters(self):
        with pytest.raises(ValueError):
            SearchConfig(metric=Metric.VI, l=0)
        with pytest.raises(ValueError):
            SearchConfig(metric=Metric.VI, max_iters=0)
        # a non-integer is named, not left to fail inside the search
        for name, value in (("l", 2.5), ("l", "2"), ("max_iters", "3"),
                            ("max_iters", None), ("max_iters", 1.0)):
            with pytest.raises(ValueError, match=f"^{name} .* must be an integer"):
                SearchConfig(metric=Metric.VI, **{name: value})
        SearchConfig(metric=Metric.VI, l=np.int64(2), max_iters=np.int32(3))

    def test_bad_init(self):
        # labels that are not a Partition would silently start from the
        # last draw
        for init in ("first", [0, 0, 0, 0], (0, 0, 1), np.zeros(4, int)):
            with pytest.raises(ValueError, match="init must be"):
                SearchConfig(metric=Metric.VI, init=init)

    @pytest.mark.parametrize("metric, estimator", ESTIMATES)
    def test_start_of_wrong_size(self, metric, estimator):
        draws = DrawMatrix(np.array([[0, 0, 1, 1], [0, 1, 1, 1]]))
        config = SearchConfig(metric=metric, estimator=estimator,
                              init=one_cluster(3))
        with pytest.raises(ValueError,
                           match="^candidate covers 3 items, posterior covers 4$"):
            greedy_search(draws, config)


class TestGreedyDescent:
    def test_degenerate_posterior_reached_by_merges(self):
        c = canonicalize([0, 0, 0, 1, 1])
        draws = DrawMatrix(np.tile(np.array(c.labels), (6, 1)))
        for metric in (Metric.VI, Metric.BINDER):
            result = greedy_search(
                draws,
                SearchConfig(metric=metric, init=singletons(5)),
            )
            assert result.optimum == c
            assert result.expected_loss == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_posterior_reached_by_splits(self):
        c = canonicalize([0, 0, 1, 1, 2])
        draws = DrawMatrix(np.tile(np.array(c.labels), (6, 1)))
        result = greedy_search(
            draws, SearchConfig(metric=Metric.VI, init=one_cluster(5))
        )
        assert result.optimum == c

    def test_trajectory_strictly_decreasing(self, rng):
        draws = synthetic_draws(rng, 6, 40, support=8)
        result = greedy_search(draws, SearchConfig(metric=Metric.VI))
        losses = [loss for _, loss in result.trajectory]
        assert all(b < a - 1e-12 for a, b in zip(losses, losses[1:]))
        assert result.trajectory[-1][0] == result.optimum
        assert result.iterations_used == len(result.trajectory) - 1

    def test_result_no_worse_than_initialization(self, rng):
        for _ in range(10):
            draws = synthetic_draws(rng, 6, 30, support=6)
            for metric in (Metric.VI, Metric.BINDER):
                init, init_loss = best_sampled(draws, metric)
                result = greedy_search(draws, SearchConfig(metric=metric))
                assert result.expected_loss <= init_loss + 1e-12

    def test_max_iters_bounds_moves(self, rng):
        draws = DrawMatrix(np.tile(np.array([0, 1, 2, 3, 4, 5]), (3, 1)))
        result = greedy_search(
            draws,
            SearchConfig(
                metric=Metric.VI, init=one_cluster(6), max_iters=2
            ),
        )
        assert result.iterations_used <= 2

    def test_reproducible_bit_for_bit(self, rng):
        draws = synthetic_draws(rng, 7, 35, support=9)
        config = SearchConfig(metric=Metric.VI)
        a = greedy_search(draws, config)
        b = greedy_search(draws, config)
        assert a.optimum == b.optimum
        assert a.expected_loss == b.expected_loss
        assert [
            (p.labels, loss) for p, loss in a.trajectory
        ] == [(p.labels, loss) for p, loss in b.trajectory]

    def test_last_draw_initialization(self, rng):
        draws = synthetic_draws(rng, 5, 10, support=4)
        result = greedy_search(
            draws, SearchConfig(metric=Metric.BINDER, init="last")
        )
        last = canonicalize(draws.draws[-1].tolist())
        start = result.trajectory[0][0]
        assert start == last

    def test_stats_record_each_iteration(self, rng):
        draws = synthetic_draws(rng, 8, 40, support=6)
        config = SearchConfig(metric=Metric.BINDER, init=singletons(8))
        result = greedy_search(draws, config)
        assert len(result.stats) == result.iterations_used + 1
        assert result.stats[-1].accepted is None
        steps = zip(result.stats, result.trajectory, result.trajectory[1:])
        for stats, (before, _), (after, _) in steps:
            assert stats.accepted == (
                "merge-up" if after.k < before.k else "split-down"
            )
            budget = min(2 * before.k * before.k, 200)
            assert stats.candidates == len(closest_neighbors(
                before, Metric.BINDER, budget
            ))
            assert 1 <= stats.certified <= stats.candidates

    @pytest.mark.parametrize("metric, estimator", ESTIMATES)
    def test_search_draws_no_random_numbers(self, metric, estimator,
                                            monkeypatch):
        # all mass on 20 items together and 5 alone: from one cluster of 25,
        # larger than EXHAUSTIVE_SPLIT_LIMIT, the walk peels the 5 off
        truth = canonicalize([0] * 20 + [1, 2, 3, 4, 5])
        draws = DrawMatrix(np.tile(truth.labels, (4, 1)))

        def no_generator(*args, **kwargs):
            raise AssertionError("the search made a random generator")

        monkeypatch.setattr(postclust.metrics.np.random, "default_rng",
                            no_generator)
        result = greedy_search(draws, SearchConfig(
            metric=metric, estimator=estimator, init=one_cluster(25)
        ))
        assert result.optimum == truth
        assert result.iterations_used == 5

    def test_neighbors_come_through_the_module_binding(self, rng, monkeypatch):
        # the benchmark's tracer wraps postclust.search.closest_neighbors,
        # so the search must look it up there, once per iteration
        calls = []
        original = postclust.search.closest_neighbors
        monkeypatch.setattr(
            postclust.search, "closest_neighbors",
            lambda *args, **kw: calls.append(1) or original(*args, **kw),
        )
        draws = synthetic_draws(rng, 8, 40, support=6)
        result = greedy_search(draws, SearchConfig(
            metric=Metric.VI, init=singletons(8)
        ))
        assert result.iterations_used >= 1
        assert len(calls) == len(result.stats)

    def test_best_draw_comes_through_the_module_bindings(self, rng, monkeypatch):
        # the benchmark's tracer wraps postclust.search.best_sampled and
        # postclust.posterior.expected_loss: the search must find the start
        # there, and every certification, of best_sampled's shortlist and of
        # each step's shortlisted moves, goes through the latter
        calls = {"best_sampled": 0, "expected_loss": 0}
        for module, name in ((postclust.search, "best_sampled"),
                             (postclust.posterior, "expected_loss")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kw):
                calls[_name] += 1
                return _original(*args, **kw)

            monkeypatch.setattr(module, name, counted)
        draws = synthetic_draws(rng, 8, 40, support=6)
        result = greedy_search(draws, SearchConfig(metric=Metric.VI, max_iters=1))
        assert calls["best_sampled"] == 1
        # one call per distinct partition on the draws' shortlist, and one
        # per shortlisted move of the one step
        scanned = _scanned_losses(draws, Metric.VI, "exact")
        near = draws.draws[scanned <= scanned.min() + CERTIFY_MARGIN]
        shortlist = len(np.unique(near, axis=0))
        moves = result.stats[0].certified
        assert calls["expected_loss"] == shortlist + moves
        assert shortlist >= 1 and moves >= 1

    def test_iteration_without_candidates_is_recorded(self, monkeypatch):
        # one item: no merge and no split, so the walk stops at once
        calls = []
        original = postclust.search.closest_neighbors
        monkeypatch.setattr(
            postclust.search, "closest_neighbors",
            lambda *args, **kw: calls.append(1) or original(*args, **kw),
        )
        result = greedy_search(DrawMatrix([[0], [0]]),
                               SearchConfig(metric=Metric.VI, init="last"))
        assert len(calls) == len(result.stats) == 1
        assert (result.stats[0].candidates, result.stats[0].certified,
                result.stats[0].accepted) == (0, 0, None)

    def test_equal_losses_go_to_smaller_labels(self):
        # items 1 and 2 are exchangeable, so joining item 0 with either
        # costs exactly the same; both are certified and 0,0,1 wins
        draws = DrawMatrix(np.array([[0, 0, 1], [0, 1, 0], [0, 0, 0], [0, 0, 0]]))
        low, high = canonicalize([0, 0, 1]), canonicalize([0, 1, 0])
        for metric in (Metric.BINDER, Metric.VI):
            assert expected_loss(low, draws, metric) == expected_loss(high, draws, metric)
            result = greedy_search(draws, SearchConfig(
                metric=metric, init=singletons(3), max_iters=1
            ))
            assert result.trajectory[1][0] == low
            assert result.stats[0].certified >= 2

    def test_explicit_partition_must_match_items(self, rng):
        draws = synthetic_draws(rng, 5, 10)
        with pytest.raises(ValueError):
            greedy_search(
                draws, SearchConfig(metric=Metric.VI, init=one_cluster(6))
            )


class TestMoveDeltas:
    """The loss change the search scores a neighbour by equals the public
    estimator's difference, for every kind of move."""

    @pytest.mark.parametrize("metric, estimator", ESTIMATES)
    def test_every_neighbor_matches_estimator(self, metric, estimator,
                                              monkeypatch):
        limit = 4  # larger clusters get single-item peel-offs
        monkeypatch.setattr(postclust.metrics, "EXHAUSTIVE_SPLIT_LIMIT", limit)
        config = SearchConfig(metric=metric, estimator=estimator)
        kinds = set()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 13))
            support = None if seed % 2 else int(rng.integers(2, 8))
            draws = synthetic_draws(rng, n, int(rng.integers(5, 40)), support)
            for start in (draws.row(0), draws.row(draws.m - 1), one_cluster(n),
                          singletons(n)):
                moves = closest_neighbors(start, metric, 10**6)
                deltas = _loss_deltas(start, moves, draws, config)
                base = expected_loss(start, draws, metric, estimator)
                rows = moves.rows(np.arange(len(moves))).tolist()
                for t, row in enumerate(rows):
                    full = expected_loss(Partition(tuple(row)), draws, metric,
                                         estimator)
                    assert deltas[t] == pytest.approx(full - base, abs=1e-12)
                    size = start.sizes[moves.pair[t, 0]]
                    cut = int(moves.part[t].sum())
                    kinds.add(
                        "merge" if moves.merge[t]
                        else "exhaustive" if size <= limit
                        else "peel-off" if min(cut, size - cut) == 1
                        else "other"
                    )
        assert kinds == {"merge", "exhaustive", "peel-off"}

    @pytest.mark.parametrize("cells", [1, 64])
    def test_vi_gains_do_not_depend_on_the_chunks(self, cells, monkeypatch):
        # 1 cell scores one move per chunk; 64 puts a few moves in a chunk
        # and several chunks in one cluster's merges and splits
        draws = synthetic_draws(np.random.default_rng(5), 12, 8)
        config = SearchConfig(metric=Metric.VI)
        for start in (draws.row(0), one_cluster(12), singletons(12)):
            moves = closest_neighbors(start, Metric.VI, 10**6)
            whole = _loss_deltas(start, moves, draws, config)
            monkeypatch.setattr(postclust.search, "TILE_CELLS", cells)
            chunked = _loss_deltas(start, moves, draws, config)
            monkeypatch.undo()
            np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-15)


class TestFullEvaluationAgreement:
    """Scoring by loss changes and certifying the shortlist walks exactly
    the path of scoring every candidate by the public estimator."""

    @pytest.mark.parametrize("init", ["best", "last"])
    @pytest.mark.parametrize("metric, estimator", ESTIMATES)
    def test_same_trajectory_bit_for_bit(self, metric, estimator, init):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 13))
            support = None if seed % 2 else int(rng.integers(2, 9))
            draws = synthetic_draws(rng, n, int(rng.integers(3, 40)), support)
            config = SearchConfig(metric=metric, estimator=estimator,
                                  init=init, l=(None, 2)[seed % 2])
            result = greedy_search(draws, config)
            assert [(p.labels, loss) for p, loss in result.trajectory] == (
                reference_search(draws, config)
            )


class TestPickBest:
    def test_nearest_candidate_wins_under_degenerate_posterior(self):
        # with all posterior mass on c, the expected loss of a candidate is
        # its distance to c, so the winner is the closest neighbor; ties go
        # to the first row, here the lexicographically smallest labels
        c = canonicalize([0, 0, 1, 1])
        draws = DrawMatrix(np.tile(np.array(c.labels), (5, 1)))
        cands = sorted(p.labels for p in all_partitions(4) if p != c)
        for metric in (Metric.VI, Metric.BINDER):
            part, loss = _certified_best(np.array(cands), draws, metric, "exact")
            assert part.labels == (0, 0, 1, 2)
            assert loss == expected_loss(part, draws, metric)
            # in the reverse order the tie goes to the other nearest one
            part, _ = _certified_best(np.array(cands[::-1]), draws, metric, "exact")
            assert part.labels == (0, 1, 2, 2)

    @pytest.mark.parametrize("metric, estimator", ESTIMATES)
    def test_exact_tie_that_rounds_apart_goes_to_the_first_row(self, metric,
                                                                estimator):
        # draws closed under swapping items 0 and 1: a candidate and its swap
        # are at exactly the same expected loss, whose floats can round apart
        # (E[VI] 2.107114928051056 and …0557 at seed 7), and either order of
        # the two rows picks the first
        a = canonicalize([0, 1, 1, 2, 0, 2, 1, 0, 2])
        b = canonicalize([1, 0, 1, 2, 0, 2, 1, 0, 2])
        for seed in range(12):
            rows = np.random.default_rng(seed).integers(0, 4, size=(10, 9))
            draws = DrawMatrix(np.vstack([rows, rows[:, [1, 0, *range(2, 9)]]]))
            for first, second in ((a, b), (b, a)):
                part, _ = _certified_best(np.array([first.labels, second.labels]),
                                          draws, metric, estimator)
                assert part == first


class TestOracleAgreement:
    """Greedy search with an unbounded candidate budget should find the
    global minimizer of small synthetic posteriors almost always."""

    def run_trials(self, metric, estimator, seeds):
        parts = all_partitions(5)
        hits = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            draws = synthetic_draws(rng, 5, 30, support=int(rng.integers(3, 11)))
            psm = similarity_matrix(draws)
            oracle_loss, oracle_labels = min(
                (expected_loss(p, draws, metric, estimator, psm), p.labels)
                for p in parts
            )
            result = greedy_search(
                draws,
                SearchConfig(metric=metric, estimator=estimator, l=10**6),
            )
            if (
                result.optimum.labels == oracle_labels
                or abs(result.expected_loss - oracle_loss) <= 1e-12
            ):
                hits += 1
        return hits

    def test_vi_trials(self):
        assert self.run_trials(Metric.VI, "exact", range(25)) >= 24

    def test_binder_trials(self):
        assert self.run_trials(Metric.BINDER, "exact", range(25)) >= 24

    def test_vi_lower_trials(self):
        assert self.run_trials(Metric.VI, "lower-bound", range(25)) >= 24


def noisy_posterior(seed: int) -> DrawMatrix:
    """40 draws of clusters of 10, 12 and 9 items, each draw with 3 items
    relabelled at random (possibly into a fourth cluster)."""
    rng = np.random.default_rng(seed)
    truth = np.repeat(np.arange(3), (10, 12, 9))
    rows = np.tile(truth, (40, 1))
    for row in rows:
        moved = rng.choice(truth.size, size=3, replace=False)
        row[moved] = rng.integers(0, 4, size=3)
    return DrawMatrix(rows)


def search_digest(result, losses: bool = True) -> str:
    steps = [(p.labels, loss) if losses else p.labels
             for p, loss in result.trajectory]
    return hashlib.sha256(repr(steps).encode()).hexdigest()


class TestTrajectoryPin:
    """Sha256 of the labels of every step of searches on seeded posteriors,
    and of the labels with the loss bits: the same draws, start and budget
    must walk the same path.  The labels digest alone pins the partitions
    apart from the last bits of the losses."""

    @pytest.mark.parametrize(
        "seed, metric, estimator, init, l, labels, digest", [
        (0, Metric.BINDER, "exact", "one-cluster", None,
         "a315f6d5e390163c3889727834e140874e8ab015c57825af745f30c801ef4321",
         "03bbe0ceab4210b519e937455022906160422dfb9e0ae62532a98daca2421923"),
        (0, Metric.BINDER, "exact", "one-cluster", 3,
         "3b7f430ccce11b652fa456b5de944a619d19e788233dd661f43abdcd965192ac",
         "b91b5c183be97e6138b984ca59ca6a392e4a3d4bf8aa85f0c5789372587107ed"),
        (3, Metric.VI, "exact", "last", None,
         "80d4034bea802f25461c4aeb8a8c11fd138deacad9fc8104745b29c295d0b9d0",
         "7abf043f4fe175b128d89b9d5d9c36f88d5d0bf15d20025fd110489b45d04fe2"),
        (3, Metric.VI, "lower-bound", "last", None,
         "1cb085206a0942d4862fd64d80de6068c59fb219ee9f92e6e7564778e8b98bad",
         "a5df0d306dbd192fb4de0c6b010915c47d362cf47416a57d5e2d21d7b230b745"),
        (1, Metric.VI, "exact", "best", None,
         "4b302ac22506c25e8d017048d04e9656d3fa9537f5eecf8a661a5a2a2e23caba",
         "7bf97bfb1858b03ac7a0cd4d9897569c28bcfb9b5bc1b9d5d3fbbb91921418c4"),
    ], ids=["binder-one-cluster", "binder-one-cluster-l3", "vi-last",
            "vi-lower-last", "vi-best"])
    def test_trajectory_is_pinned(self, seed, metric, estimator, init, l,
                                  labels, digest):
        draws = noisy_posterior(seed)
        start = one_cluster(draws.n) if init == "one-cluster" else init
        result = greedy_search(draws, SearchConfig(
            metric=metric, estimator=estimator, init=start, l=l
        ))
        assert search_digest(result, losses=False) == labels
        assert search_digest(result) == digest

    def test_binder_pin_ends_where_random_splits_ended(self):
        # peel-offs alone take the walk from one cluster out to 20 clusters
        # and back to 3 in 36 moves; it ends at the optimum that random
        # splits of large clusters reached in 24
        result = greedy_search(noisy_posterior(0), SearchConfig(
            metric=Metric.BINDER, init=one_cluster(31)
        ))
        assert result.iterations_used == 36
        assert (result.expected_loss, result.optimum.k) == (0.08132154006243497, 3)
