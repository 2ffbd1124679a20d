"""Distances between partitions and ranked neighbor generation.

Two metrics are supported: the variation of information (VI), measured in
bits (all logarithms are base 2), and the N-invariant form of the pairwise
disagreement loss, which rescales the classic pair-counting loss by 2/N^2
so that it depends on cluster sizes only through the fractions n/N.

Both are genuine metrics on the space of partitions and both are aligned
with the partition lattice: distances add up along chains and across the
meet of two partitions.  Those facts drive the closed-form costs of single
merge/split moves used by ``closest_neighbors``.
"""

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .partition import Partition, canonicalize, contingency

__all__ = [
    "Metric",
    "NeighborCandidate",
    "entropy",
    "mutual_information",
    "vi",
    "binder",
    "rand_index",
    "merge_delta",
    "split_delta",
    "closest_neighbors",
]


class Metric(enum.Enum):
    """Which partition distance to use."""

    VI = "vi"
    BINDER = "binder"


def _xlogx(values: np.ndarray) -> np.ndarray:
    """n * log2(n) elementwise with the 0 log 0 := 0 convention."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(values)
    pos = values > 0
    out[pos] = values[pos] * np.log2(values[pos])
    return out


def entropy(c: Partition) -> float:
    """Shannon entropy of the cluster-size distribution, in bits."""
    n = c.n_items
    h = 0.0
    for size in c.sizes:
        p = size / n
        h -= p * math.log2(p)
    return h


def mutual_information(c: Partition, d: Partition) -> float:
    """Mutual information between two clusterings of the same items, in bits."""
    table = contingency(c, d)
    n = table.total
    rows = table.row_sums
    cols = table.col_sums
    total = 0.0
    for i, j in zip(*np.nonzero(table.counts)):
        nij = table.counts[i, j]
        total += (nij / n) * math.log2(nij * n / (rows[i] * cols[j]))
    return total


def _vi_from_table(counts: np.ndarray, n: int) -> float:
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    a_r = _xlogx(rows).sum()
    a_c = _xlogx(cols).sum()
    joint = _xlogx(counts[counts > 0]).sum()
    return (a_r + a_c - 2.0 * joint) / n


def vi(c: Partition, d: Partition) -> float:
    """Variation of information between two partitions, in bits.

    Equal to H(c) + H(d) - 2 I(c, d); ranges from 0 (identical clusterings)
    to log2(N) (one cluster versus all singletons).
    """
    table = contingency(c, d)
    return _vi_from_table(table.counts, table.total)


def binder(c: Partition, d: Partition) -> float:
    """N-invariant pairwise-disagreement distance, in [0, 1 - 1/N].

    All sums are accumulated in exact integer arithmetic before a single
    float division, so dyadic values come out exact.
    """
    table = contingency(c, d)
    n = table.total
    a_r = int((table.row_sums**2).sum())
    a_c = int((table.col_sums**2).sum())
    joint = int((table.counts**2).sum())
    return (a_r + a_c - 2 * joint) / (n * n)


def rand_index(c: Partition, d: Partition) -> float:
    """Fraction of item pairs on which the two partitions agree."""
    n = c.n_items
    if n < 2:
        raise ValueError("rand index needs at least 2 items")
    table = contingency(c, d)
    a_r = int((table.row_sums**2).sum())
    a_c = int((table.col_sums**2).sum())
    joint = int((table.counts**2).sum())
    disagreements = (a_r + a_c - 2 * joint) // 2  # pair count, exact
    return 1.0 - disagreements / math.comb(n, 2)


def merge_delta(sizes: tuple[int, int], n: int, metric: Metric) -> float:
    """Distance cost of merging two clusters of the given sizes."""
    ni, nj = sizes
    if metric is Metric.VI:
        m = ni + nj
        return (m * math.log2(m) - _int_xlogx(ni) - _int_xlogx(nj)) / n
    return 2.0 * ni * nj / (n * n)


def split_delta(sizes: tuple[int, int], n: int, metric: Metric) -> float:
    """Distance cost of splitting one cluster into parts of the given sizes."""
    n1, n2 = sizes
    return merge_delta((n1, n2), n, metric)


def _int_xlogx(v: int) -> float:
    return v * math.log2(v) if v > 0 else 0.0


@dataclass(frozen=True)
class NeighborCandidate:
    """A partition one Hasse step away from a source partition."""

    partition: Partition
    direction: str  # "merge-up" or "split-down"
    delta: float  # exact distance from the source partition


def _merge_candidates(c: Partition, metric: Metric) -> list[NeighborCandidate]:
    sizes = c.sizes
    out = []
    for i in range(c.k):
        for j in range(i + 1, c.k):
            merged = canonicalize(
                [i if lab == j else lab for lab in c.labels]
            )
            delta = merge_delta((sizes[i], sizes[j]), c.n_items, metric)
            out.append(NeighborCandidate(merged, "merge-up", delta))
    return out


def _apply_split(c: Partition, part_a: Iterable[int]) -> Partition:
    new_label = c.k
    labels = list(c.labels)
    for idx in part_a:
        labels[idx] = new_label
    return canonicalize(labels)


def _split_candidates(
    c: Partition,
    metric: Metric,
    rng: np.random.Generator,
    balanced_samples: int,
    exhaustive_limit: int,
) -> list[NeighborCandidate]:
    n = c.n_items
    out: dict[tuple[int, ...], NeighborCandidate] = {}

    def add(members: Sequence[int], chosen: Sequence[int]):
        size = len(members)
        m = len(chosen)
        cand = _apply_split(c, chosen)
        if cand.labels in out:
            return
        delta = split_delta((m, size - m), n, metric)
        out[cand.labels] = NeighborCandidate(cand, "split-down", delta)

    for members in c.clusters:
        size = len(members)
        if size < 2:
            continue
        if size <= exhaustive_limit:
            # All binary splits: enumerate subsets of members[1:] joined to
            # members[0]; the complement forms the peeled-off part.
            rest = members[1:]
            for mask in range(2 ** len(rest) - 1):
                chosen = [rest[t] for t in range(len(rest)) if not mask >> t & 1]
                add(members, chosen)
        else:
            for idx in members:
                add(members, (idx,))
            for m in range(2, size // 2 + 1):
                for _ in range(balanced_samples):
                    chosen = rng.choice(len(members), size=m, replace=False)
                    add(members, [members[t] for t in chosen])
    return list(out.values())


def closest_neighbors(
    c: Partition,
    metric: Metric,
    l: int,
    rng_seed: int = 0,
    balanced_samples: int = 5,
    exhaustive_split_limit: int = 8,
) -> list[NeighborCandidate]:
    """Generate up to ``l`` nearest covering partitions (merges) and up to
    ``l`` nearest covered partitions (splits) of ``c``.

    Merges are enumerated completely (k(k-1)/2 of them) and ranked by their
    exact distance.  Splits of clusters up to ``exhaustive_split_limit``
    items are enumerated completely; larger clusters contribute all
    single-item peel-offs plus ``balanced_samples`` seeded random splits per
    coarser size profile, since peel-offs are provably the locally closest
    splits while the random coarser ones widen the search.  Ties are broken
    by the candidate's canonical label sequence, so identical inputs always
    give identical output.
    """
    if l < 1:
        raise ValueError("candidate budget l must be >= 1")
    rng = np.random.default_rng(rng_seed)
    key = lambda cand: (cand.delta, cand.partition.labels)
    merges = sorted(_merge_candidates(c, metric), key=key)[:l]
    splits = sorted(
        _split_candidates(c, metric, rng, balanced_samples, exhaustive_split_limit),
        key=key,
    )[:l]
    return sorted(merges + splits, key=key)
