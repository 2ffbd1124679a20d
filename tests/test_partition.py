import itertools

import numpy as np
import pytest

from postclust import (
    Partition,
    canonicalize,
    contingency,
    covers,
    enumerate_partitions,
    join,
    leq,
    meet,
    one_cluster,
    singletons,
)

from conftest import all_partitions, bell_numbers


class TestCanonicalize:
    def test_relabeling(self):
        p = canonicalize([5, 5, 9, 9])
        assert p.labels == (0, 0, 1, 1)
        assert p.k == 2
        assert p.sizes == (2, 2)

    def test_all_singletons_fixed_point(self):
        p = canonicalize([0, 1, 2, 3])
        assert p.labels == (0, 1, 2, 3)
        assert p.k == 4

    def test_first_occurrence_order(self):
        assert canonicalize(["b", "a", "b"]).labels == (0, 1, 0)

    def test_idempotent(self):
        p = canonicalize([3, 1, 4, 1, 5])
        assert canonicalize(p.labels) == p

    def test_bijective_relabelings_collapse(self, rng):
        for _ in range(50):
            labels = rng.integers(0, 4, size=8)
            perm = rng.permutation(10)
            assert canonicalize(labels.tolist()) == canonicalize(
                perm[labels].tolist()
            )

    def test_nested_labels_rejected(self):
        with pytest.raises(ValueError, match="flat sequence"):
            canonicalize([(0, 1), (0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty partition"):
            canonicalize([])

    def test_constructor_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            Partition((1, 0))
        with pytest.raises(ValueError):
            Partition((0, 2))

    def test_sizes_sum_and_positivity(self):
        for p in all_partitions(5):
            assert sum(p.sizes) == 5
            assert min(p.sizes) >= 1
            assert 1 <= p.k <= 5


class TestContingency:
    def test_identical_partitions_diagonal(self):
        c = canonicalize([0, 0, 1, 1])
        assert contingency(c, c).tolist() == [[2, 0], [0, 2]]

    def test_hand_counted_pair(self):
        # {1,2}{3,4} against {1}{2,4}{3} in first-occurrence labels: item 1
        # alone, items 2 and 4 together, item 3 alone.
        c = canonicalize([0, 0, 1, 1])
        d = canonicalize([0, 1, 2, 1])
        table = contingency(c, d)
        assert table.tolist() == [[1, 1, 0], [0, 1, 1]]
        assert table.sum(axis=1).tolist() == [2, 2]
        assert table.sum(axis=0).tolist() == [1, 2, 1]
        assert table.sum() == 4

    def test_extremes_single_row(self):
        table = contingency(one_cluster(4), singletons(4))
        assert table.tolist() == [[1, 1, 1, 1]]

    def test_marginals_consistent(self, rng):
        for _ in range(20):
            c = canonicalize(rng.integers(0, 3, size=9).tolist())
            d = canonicalize(rng.integers(0, 4, size=9).tolist())
            table = contingency(c, d)
            assert table.sum() == 9
            np.testing.assert_array_equal(
                table.sum(axis=1), np.asarray(c.sizes)
            )
            np.testing.assert_array_equal(
                table.sum(axis=0), np.asarray(d.sizes)
            )

    def test_mismatched_items(self):
        with pytest.raises(ValueError):
            contingency(one_cluster(3), one_cluster(4))


class TestMeetJoin:
    def test_meet_worked_example(self):
        c = canonicalize([0, 0, 1, 1])
        d = canonicalize([0, 1, 2, 1])
        assert meet(c, d) == singletons(4)

    def test_meet_idempotent_and_top(self):
        for p in all_partitions(4):
            assert meet(p, p) == p
            assert meet(p, one_cluster(4)) == p

    def test_join_transitive_closure(self):
        c = canonicalize([0, 0, 1, 1])  # {1,2}{3,4}
        d = canonicalize([0, 1, 1, 2])  # {1}{2,3}{4}
        assert join(c, d) == one_cluster(4)

    def test_join_idempotent_and_bottom(self):
        for p in all_partitions(4):
            assert join(p, p) == p
            assert join(p, singletons(4)) == p

    def test_mismatched_items(self):
        with pytest.raises(ValueError):
            meet(one_cluster(3), one_cluster(4))
        with pytest.raises(ValueError):
            join(one_cluster(3), one_cluster(4))


class TestOrder:
    def test_bottom_below_everything(self):
        for p in all_partitions(5):
            assert leq(singletons(5), p)
            assert leq(p, one_cluster(5))

    def test_incomparable_pair(self):
        assert not leq(canonicalize([0, 0, 1, 1]), canonicalize([0, 1, 2, 1]))
        assert not leq(canonicalize([0, 1, 2, 1]), canonicalize([0, 0, 1, 1]))

    def test_reflexive(self):
        for p in all_partitions(4):
            assert leq(p, p)

    def test_covers_is_single_merge(self):
        assert covers(one_cluster(4), canonicalize([0, 0, 1, 1]))
        assert not covers(one_cluster(4), singletons(4))
        c = canonicalize([0, 0, 1, 1])
        assert not covers(c, c)

    def test_mismatched_items(self):
        with pytest.raises(ValueError):
            leq(one_cluster(3), one_cluster(4))


class TestPosetAxioms:
    """Exhaustive order axioms for every partition of up to 5 items."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_axioms(self, n):
        parts = all_partitions(n)
        size = len(parts)
        rel = np.zeros((size, size), dtype=bool)
        for i, p in enumerate(parts):
            for j, q in enumerate(parts):
                rel[i, j] = leq(p, q)
        assert rel.diagonal().all()  # reflexivity
        antisym = rel & rel.T
        assert (antisym == np.eye(size, dtype=bool)).all()  # antisymmetry
        two_step = (rel.astype(np.int64) @ rel.astype(np.int64)) > 0
        assert not (two_step & ~rel).any()  # transitivity

    def test_meet_join_agree_with_order(self):
        for n in (4, 5):
            parts = all_partitions(n)
            for p, q in itertools.product(parts, repeat=2):
                is_leq = leq(p, q)
                assert is_leq == (meet(p, q) == p)
                assert is_leq == (join(p, q) == q)

    def test_covers_consistent_with_order(self):
        for n in (4, 5):
            parts = all_partitions(n)
            for p, q in itertools.product(parts, repeat=2):
                if covers(q, p):
                    assert leq(p, q) and q.k == p.k - 1


class TestLatticeLaws:
    """Idempotency, commutativity, associativity, absorption at n = 4."""

    def test_pair_laws(self):
        parts = all_partitions(4)
        for p, q in itertools.product(parts, repeat=2):
            assert meet(p, q) == meet(q, p)
            assert join(p, q) == join(q, p)
            assert meet(p, join(p, q)) == p
            assert join(p, meet(p, q)) == p

    def test_associativity(self):
        # Each law on the same triples, read from tables of all pairs; the
        # index lookup raises if a result falls outside the 15 partitions.
        parts = all_partitions(4)
        index = {p: i for i, p in enumerate(parts)}
        for op in (meet, join):
            table = [[index[op(p, q)] for q in parts] for p in parts]
            for p, q, r in itertools.product(range(len(parts)), repeat=3):
                assert table[p][table[q][r]] == table[table[p][q]][r]


class TestEnumeration:
    def test_counts_match_bell_numbers(self):
        expected = bell_numbers(6)  # 1, 2, 5, 15, 52, 203
        assert expected == [1, 2, 5, 15, 52, 203]
        for n in range(1, 7):
            assert sum(1 for _ in enumerate_partitions(n)) == expected[n - 1]

    def test_single_item(self):
        assert list(enumerate_partitions(1)) == [Partition((0,))]

    def test_unique_and_canonical(self):
        seen = set()
        for p in enumerate_partitions(5):
            assert canonicalize(p.labels) == p
            assert p.labels not in seen
            seen.add(p.labels)

    def test_lexicographic_order(self):
        labels = [p.labels for p in enumerate_partitions(4)]
        assert labels == sorted(labels)
        assert labels[0] == (0, 0, 0, 0)
        assert labels[-1] == (0, 1, 2, 3)

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="enumeration too large"):
            next(enumerate_partitions(13))
        with pytest.raises(ValueError):
            next(enumerate_partitions(0))
