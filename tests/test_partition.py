import numpy as np
import pytest

from postclust import (
    Partition,
    canonicalize,
    one_cluster,
    singletons,
)

from conftest import all_partitions, bell_numbers, enumerate_partitions, leq, meet


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
        for labels in ((0, 0.5), [0, 1.0], np.array([0.0, 1.0]), ("0", "1"),
                       (0, None)):
            with pytest.raises(ValueError, match="labels must be integers"):
                Partition(labels)

    def test_any_integer_sequence_gives_one_partition(self):
        # a list, a tuple, a numpy array or numpy integers: the labels are
        # stored as a tuple of Python ints, so all compare and hash alike
        expect = Partition((0, 1, 1))
        for labels in ([0, 1, 1], np.array([0, 1, 1]), np.array([0, 1, 1], np.int32),
                       (np.int64(0), np.int64(1), np.int64(1))):
            p = Partition(labels)
            assert p == expect and hash(p) == hash(expect)
            assert type(p.labels) is tuple
            assert all(type(label) is int for label in p.labels)
        assert len({Partition([0, 1, 1]), expect, canonicalize([4, 2, 2])}) == 1

    def test_sizes_sum_and_positivity(self):
        for p in all_partitions(5):
            assert sum(p.sizes) == 5
            assert min(p.sizes) >= 1
            assert 1 <= p.k <= 5


# meet, leq and enumerate_partitions are the conftest references on which
# the lattice-alignment and brute-force checks rest; these tests pin them.


class TestMeetJoin:
    def test_meet_worked_example(self):
        c = canonicalize([0, 0, 1, 1])
        d = canonicalize([0, 1, 2, 1])
        assert meet(c, d) == singletons(4)

    def test_meet_idempotent_and_top(self):
        for p in all_partitions(4):
            assert meet(p, p) == p
            assert meet(p, one_cluster(4)) == p


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
