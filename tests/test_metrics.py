import itertools
import math
import tracemalloc

import numpy as np
import pytest

import postclust.metrics

from postclust import (
    Metric,
    Partition,
    binder,
    canonicalize,
    closest_neighbors,
    merge_delta,
    one_cluster,
    singletons,
    vi,
)

from conftest import (
    all_partitions,
    canonical_labels,
    distance_matrix,
    entropy,
    leq,
    meet,
    mutual_information,
    neighbor_list,
    partition_index,
    rand_index,
    reference_neighbors,
)

BOTH = (Metric.VI, Metric.BINDER)
TOL = 1e-12


def dist_fn(metric):
    return vi if metric is Metric.VI else binder


def sized(sizes, seed=0):
    """The partition whose cluster j holds sizes[j] items: the clusters'
    first items in label order, then the other items shuffled."""
    rest = np.repeat(np.arange(len(sizes)), np.asarray(sizes) - 1)
    np.random.Generator(np.random.PCG64(seed)).shuffle(rest)
    return Partition(tuple(range(len(sizes))) + tuple(rest.tolist()))


# entropy, mutual_information and rand_index are the conftest references
# against which vi and binder are checked; these tests pin them.


class TestEntropy:
    def test_one_cluster_is_zero(self):
        assert entropy(one_cluster(7)) == 0.0

    def test_singletons(self):
        assert entropy(singletons(4)) == 2.0

    def test_equal_blocks(self):
        for k in (2, 4, 8):
            labels = [i // (16 // k) for i in range(16)]
            assert entropy(canonicalize(labels)) == pytest.approx(
                math.log2(k), abs=TOL
            )

    def test_bounds(self):
        for p in all_partitions(5):
            assert 0.0 <= entropy(p) <= math.log2(5) + TOL


class TestMutualInformation:
    def test_self_information_is_entropy(self):
        for p in all_partitions(5):
            assert mutual_information(p, p) == pytest.approx(
                entropy(p), abs=TOL
            )

    def test_constant_partition_carries_nothing(self):
        for p in all_partitions(5):
            assert mutual_information(p, one_cluster(5)) == pytest.approx(
                0.0, abs=TOL
            )

    def test_hand_computed_pair(self):
        # cells of the 2x3 table are (1,1,0),(0,1,1); only the two corner
        # cells contribute (1/4) * log2(4 / 2) each.
        c = canonicalize([0, 0, 1, 1])
        d = canonicalize([0, 1, 2, 1])
        assert mutual_information(c, d) == pytest.approx(0.5, abs=TOL)

    def test_bounded_by_entropies(self):
        parts = all_partitions(5)
        for p, q in itertools.combinations(parts, 2):
            i = mutual_information(p, q)
            assert -TOL <= i <= min(entropy(p), entropy(q)) + TOL


class TestDistances:
    def test_vi_worked_example(self):
        c = canonicalize([0, 0, 1, 1])
        d = canonicalize([0, 1, 2, 1])
        assert vi(c, d) == pytest.approx(1.5, abs=TOL)

    def test_binder_worked_example(self):
        c = canonicalize([0, 0, 1, 1])
        d = canonicalize([0, 1, 2, 1])
        assert binder(c, d) == pytest.approx(0.375, abs=TOL)

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
    def test_extreme_distances(self, n):
        assert vi(one_cluster(n), singletons(n)) == pytest.approx(
            math.log2(n), abs=TOL
        )
        assert binder(one_cluster(n), singletons(n)) == pytest.approx(
            1 - 1 / n, abs=TOL
        )

    def test_self_distance_exactly_zero(self):
        for p in all_partitions(5):
            assert vi(p, p) == 0.0
            assert binder(p, p) == 0.0

    def test_vi_equals_entropy_identity(self):
        for p, q in itertools.combinations(all_partitions(5), 2):
            expect = entropy(p) + entropy(q) - 2 * mutual_information(p, q)
            assert vi(p, q) == pytest.approx(expect, abs=1e-11)

    def test_mismatched_items(self):
        with pytest.raises(ValueError):
            vi(one_cluster(3), one_cluster(4))
        with pytest.raises(ValueError):
            binder(one_cluster(3), one_cluster(4))


class TestRandIndex:
    def test_identical(self):
        assert rand_index(one_cluster(6), one_cluster(6)) == 1.0

    def test_extremes_fully_disagree(self):
        assert rand_index(one_cluster(6), singletons(6)) == 0.0

    def test_binder_relation(self):
        c = canonicalize([0, 0, 1, 1])
        d = canonicalize([0, 1, 2, 1])
        assert rand_index(c, d) == 0.5
        for p, q in itertools.combinations(all_partitions(5), 2):
            b_pairs = binder(p, q) * 25 / 2
            assert rand_index(p, q) == pytest.approx(
                1 - b_pairs / math.comb(5, 2), abs=TOL
            )


class TestMoveDeltas:
    def test_singleton_merge(self):
        for n in (4, 10, 100):
            assert merge_delta((1, 1), n, Metric.VI) == pytest.approx(
                2 / n, abs=TOL
            )
            assert merge_delta((1, 1), n, Metric.BINDER) == pytest.approx(
                2 / n**2, abs=TOL
            )

    def test_pair_merge(self):
        assert merge_delta((2, 2), 4, Metric.VI) == pytest.approx(1.0, abs=TOL)

    def test_size_two_split(self):
        # splitting a pair costs what merging two singletons does
        c = canonicalize([0, 0, 1, 2])
        split = canonicalize([0, 1, 2, 3])
        for metric, expect in ((Metric.VI, 0.5), (Metric.BINDER, 2 / 16)):
            assert merge_delta((1, 1), 4, metric) == pytest.approx(expect, abs=TOL)
            assert dist_fn(metric)(c, split) == pytest.approx(expect, abs=TOL)

    def test_peel_off_minimizes_splits(self):
        for metric in BOTH:
            for size in range(2, 11):
                deltas = [
                    merge_delta((m, size - m), 20, metric)
                    for m in range(1, size // 2 + 1)
                ]
                assert min(deltas) == deltas[0]

    def test_deltas_match_full_metric(self):
        # merging the two clusters of sizes 2 and 2 inside a partition
        c = canonicalize([0, 0, 1, 1, 2])
        merged = canonicalize([0, 0, 0, 0, 1])
        for metric in BOTH:
            assert merge_delta((2, 2), 5, metric) == pytest.approx(
                dist_fn(metric)(c, merged), abs=TOL
            )

    @pytest.mark.parametrize("metric", BOTH)
    @pytest.mark.parametrize("n", [2, 7, 40, 150])
    def test_arrays_give_the_scalar_values(self, metric, n):
        first, second = np.triu_indices(n + 1)  # first <= second
        keep = (first >= 1) & (first + second <= n)
        first, second = first[keep], second[keep]
        for x, y in ((first, second), (second, first)):  # both orders
            deltas = merge_delta((x, y), n, metric)
            assert isinstance(deltas, np.ndarray)
            assert deltas.tolist() == [merge_delta((i, j), n, metric)
                                       for i, j in zip(x.tolist(), y.tolist())]
        assert type(merge_delta((1, n - 1), n, metric)) is float
        empty = merge_delta((np.array([], int), np.array([], int)), n, metric)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


class TestClosestNeighbors:
    def test_all_singleton_merges(self):
        moves = closest_neighbors(singletons(4), Metric.VI, l=10)
        assert len(moves) == 6
        assert moves.merge.all()
        assert all(d == pytest.approx(0.5, abs=TOL) for d in moves.delta)

    def test_top_splits_are_peel_offs(self):
        for metric in BOTH:
            moves = closest_neighbors(one_cluster(4), metric, l=20)
            assert not moves.merge.any()
            tied = np.flatnonzero(moves.delta < moves.delta.min() + TOL)
            nearest = {tuple(row) for row in moves.rows(tied).tolist()}
            peels = {
                canonicalize(
                    [1 if i == j else 0 for i in range(4)]
                ).labels
                for j in range(4)
            }
            assert nearest == peels

    def test_merge_and_split_tie(self):
        # two singletons plus a pair: merging the singletons and splitting
        # the pair both cost the minimum possible move
        c = canonicalize([0, 1, 2, 2])
        for metric in BOTH:
            moves = closest_neighbors(c, metric, l=50)
            tied = moves.delta < moves.delta.min() + TOL
            assert set(moves.merge[tied].tolist()) == {True, False}

    def test_deltas_equal_recomputed_metric(self):
        for metric in BOTH:
            fn = dist_fn(metric)
            for p in all_partitions(5):
                moves = closest_neighbors(p, metric, l=10**6)
                for labels, direction, delta in neighbor_list(moves):
                    cand = Partition(labels)
                    assert delta == pytest.approx(fn(p, cand), abs=TOL)
                    if direction == "merge-up":
                        assert cand.k == p.k - 1
                    else:
                        assert cand.k == p.k + 1

    def test_moves_describe_the_labels(self):
        # a merge relabels cluster b as a; a split moves its part to a new
        # cluster, and the part never holds the split cluster's first item
        for p in all_partitions(5):
            moves = closest_neighbors(p, Metric.VI, l=10**6)
            labels = np.asarray(p.labels)
            rows = moves.rows(np.arange(len(moves)))
            for t in range(len(moves)):
                a, b = moves.pair[t].tolist()
                if moves.merge[t]:
                    assert a < b and not moves.part[t].any()
                    moved = np.where(labels == b, a, labels)
                else:
                    assert b == -1
                    assert moves.part[t].any()
                    assert not moves.part[t][p.labels.index(a)]
                    assert (labels[moves.part[t]] == a).all()
                    moved = np.where(moves.part[t], p.k, labels)
                assert canonicalize(moved.tolist()).labels == tuple(
                    rows[t].tolist()
                )

    def test_budget_truncates_each_direction(self):
        c = canonicalize([0, 0, 1, 1, 2, 2])
        moves = closest_neighbors(c, Metric.VI, l=2)
        assert moves.merge.sum() == 2 and (~moves.merge).sum() == 2

    def test_deterministic_output(self):
        c = canonicalize(list(range(3)) + [3] * 12)  # one big cluster
        a = closest_neighbors(c, Metric.VI, l=30)
        b = closest_neighbors(c, Metric.VI, l=30)
        for field in ("source", "delta", "merge", "pair", "part"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_extreme_partitions_one_sided(self):
        assert not closest_neighbors(one_cluster(4), Metric.VI, 5).merge.any()
        assert closest_neighbors(singletons(4), Metric.VI, 5).merge.all()

    def test_invalid_budget(self):
        for l in (0, 2.5, "3", None):
            with pytest.raises(ValueError, match=r"\bl\b"):
                closest_neighbors(one_cluster(4), Metric.VI, l=l)

    @pytest.mark.parametrize("l", [1, 3, 40])
    def test_rows_build_the_moves(self, l):
        # rows(t) picks rows t of all the candidates' labels, and each row
        # is the canonical form of its move: a merge's result covers the
        # source, a split's is covered
        rng = np.random.default_rng(11 + l)
        sources = [sized((1, 12, 3, 9)), singletons(1), one_cluster(6)]
        sources += [canonicalize(rng.integers(0, 5, 25).tolist())
                    for _ in range(6)]
        for c in sources:
            for metric in BOTH:
                moves = closest_neighbors(c, metric, l)
                labels = moves.rows(np.arange(len(moves)))
                assert labels.shape == (len(moves), c.n_items)
                subsets = [np.arange(0)]
                if len(moves):
                    subsets += [rng.integers(0, len(moves), size=size)
                                for size in (1, 7, len(moves))]
                for t in subsets:
                    np.testing.assert_array_equal(moves.rows(t), labels[t])
                for t, row in enumerate(labels.tolist()):
                    a, b = moves.pair[t].tolist()
                    if moves.merge[t]:
                        moved = [a if lab == b else lab for lab in c.labels]
                    else:
                        moved = [c.k if cut else lab for lab, cut
                                 in zip(c.labels, moves.part[t].tolist())]
                    assert tuple(row) == canonical_labels(moved)
                    cand = Partition(tuple(row))
                    assert leq(c, cand) if moves.merge[t] else leq(cand, c)

    def test_matches_reference_loop(self, monkeypatch):
        # same candidates, order and delta bits as a plain loop that builds
        # and canonicalizes every label list, deduplicating them
        rng = np.random.default_rng(7)
        for _ in range(150):
            n = int(rng.integers(1, 30))
            c = canonicalize(rng.integers(0, int(rng.integers(1, 7)), n).tolist())
            l = int(rng.integers(1, 40))
            limit = int(rng.integers(1, 9))
            monkeypatch.setattr(postclust.metrics, "EXHAUSTIVE_SPLIT_LIMIT", limit)
            for metric in BOTH:
                got = neighbor_list(closest_neighbors(c, metric, l))
                assert got == reference_neighbors(c, metric, l, limit)

    @pytest.mark.parametrize("metric", BOTH)
    @pytest.mark.parametrize("c", [sized((8,) * 250), one_cluster(2000)],
                             ids=["8-item-clusters", "one-cluster"])
    def test_memory_is_linear_in_n(self, c, metric):
        # 2000 items: 250 clusters of 8 list 31,750 splits, whose N-item
        # masks would take 60 MiB; one cluster lists 2000 peel-offs.  Only
        # the l picked get a mask
        tracemalloc.start()
        try:
            closest_neighbors(c, metric, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestMetricAxioms:
    """Exhaustive metric axioms over every partition pair/triple at n = 4
    and every pair/triple at n = 5."""

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("metric", BOTH)
    def test_axioms(self, n, metric):
        d = distance_matrix(n, metric)
        assert (d >= 0).all()
        assert (d.diagonal() == 0).all()
        off = d + np.eye(len(d))
        assert (off[~np.eye(len(d), dtype=bool)] > 0).all()
        np.testing.assert_array_equal(d, d.T)
        # triangle inequality, all ordered triples at once:
        # d[i, j] <= d[i, k] + d[k, j]
        slack = d[:, None, :] + d.T[None, :, :]
        assert (d[:, :, None] <= slack + TOL).all()


class TestLatticeAlignment:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("metric", BOTH)
    def test_vertical_chains_add(self, n, metric):
        parts = all_partitions(n)
        d = distance_matrix(n, metric)
        order = np.zeros((len(parts), len(parts)), dtype=bool)
        for i, p in enumerate(parts):
            for j, q in enumerate(parts):
                order[i, j] = leq(p, q)
        for i, j in zip(*np.nonzero(order)):  # parts[i] <= parts[j]
            for k in np.nonzero(order[j])[0]:  # parts[j] <= parts[k]
                assert abs(d[k, i] - (d[k, j] + d[j, i])) < TOL

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("metric", BOTH)
    def test_horizontal_split_through_meet(self, n, metric):
        parts = all_partitions(n)
        index = partition_index(n)
        d = distance_matrix(n, metric)
        for i, p in enumerate(parts):
            for j in range(i + 1, len(parts)):
                m = index[meet(p, parts[j]).labels]
                assert abs(d[i, j] - (d[i, m] + d[j, m])) < TOL

    @pytest.mark.parametrize("n", [4, 5])
    def test_scale_bound(self, n):
        top_bottom = {
            Metric.VI: math.log2(n),
            Metric.BINDER: 1 - 1 / n,
        }
        index = partition_index(n)
        for metric in BOTH:
            d = distance_matrix(n, metric)
            extreme = d[index[one_cluster(n).labels], index[singletons(n).labels]]
            assert extreme == pytest.approx(top_bottom[metric], abs=TOL)
            assert (d <= extreme + TOL).all()


def predicted_closest_set(part, metric):
    """The provably nearest distinct partitions: merge two singletons and/or
    split a smallest cluster, depending on the size profile."""
    singleton_ids = [i for i, s in enumerate(part.sizes) if s == 1]
    has_pair = any(s == 2 for s in part.sizes)
    result = set()

    def merge(i, j):
        result.add(
            canonicalize(
                [i if lab == j else lab for lab in part.labels]
            ).labels
        )

    def split_peels(cluster_id):
        members = [i for i, lab in enumerate(part.labels) if lab == cluster_id]
        for idx in members:
            labels = list(part.labels)
            labels[idx] = part.k
            result.add(canonicalize(labels).labels)

    if len(singleton_ids) >= 2:
        for i, j in itertools.combinations(singleton_ids, 2):
            merge(i, j)
        if has_pair:
            for cid, size in enumerate(part.sizes):
                if size == 2:
                    split_peels(cid)
    else:
        smallest = min(s for s in part.sizes if s > 1)
        for cid, size in enumerate(part.sizes):
            if size == smallest:
                split_peels(cid)
    return result


class TestClosestPartitionCharacterization:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("metric", BOTH)
    def test_brute_force_agrees(self, n, metric):
        parts = all_partitions(n)
        d = distance_matrix(n, metric)
        for i, p in enumerate(parts):
            row = d[i].copy()
            row[i] = np.inf
            best = row.min()
            brute = {
                parts[j].labels
                for j in np.nonzero(np.abs(row - best) < TOL)[0]
            }
            assert brute == predicted_closest_set(p, metric)


class TestExtremePreference:
    def test_binder_always_favors_singleton_side(self):
        n = 16
        for k in (2, 4, 8):
            ck = canonicalize([i // (n // k) for i in range(n)])
            to_top = binder(one_cluster(n), ck)
            to_bottom = binder(singletons(n), ck)
            assert to_top == 1 - 1 / k
            assert to_bottom == 1 / k - 1 / n
            assert to_top > to_bottom

    def test_vi_crossover_at_sqrt_n(self):
        n = 16
        values = {}
        for k in (2, 4, 8):
            ck = canonicalize([i // (n // k) for i in range(n)])
            values[k] = (vi(one_cluster(n), ck), vi(singletons(n), ck))
        assert values[2][0] < values[2][1]
        assert values[4][0] == values[4][1]  # exact at k = sqrt(n)
        assert values[8][0] > values[8][1]


class TestEquidistantTwoClusterPartitions:
    def test_sizes_one_and_three(self):
        # n = 4 is even and square: both extremes sit 0.375 away from every
        # two-cluster partition with sizes (1, 3)
        for p in all_partitions(4):
            if p.k == 2 and sorted(p.sizes) == [1, 3]:
                assert binder(one_cluster(4), p) == 0.375
                assert binder(singletons(4), p) == 0.375
