"""Distances between partitions and ranked neighbor generation.

Two metrics are supported, each stated once (``_form``) as the term that
a non-empty contingency cell of n_ab items, in clusters of n_a items of c
and n_b of d, adds to scale * d(c, d): n_ab log2(n_a n_b / n_ab^2) at
scale N for the variation of information (VI), in bits, and
n_ab (n_a + n_b - 2 n_ab) at scale N^2 for the N-invariant pairwise
disagreement loss, the pair-counting loss rescaled by 2/N^2 so that it
depends on cluster sizes only through the fractions n/N.  As n_a n_b >=
n_ab^2, no term is negative; a cell that is a whole cluster of both adds 0.

Both are genuine metrics on the space of partitions and both are aligned
with the partition lattice: distances add up along chains and across the
meet of two partitions.  That alignment makes ``merge_delta`` the exact
distance of a single merge or split, by which ``closest_neighbors`` ranks
its moves.  The tests check that alignment against a meet, an order,
entropies and a Rand index of their own, written from the definitions.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .partition import Partition

__all__ = [
    "Metric",
    "Neighbors",
    "vi",
    "binder",
    "merge_delta",
    "closest_neighbors",
]

EXHAUSTIVE_SPLIT_LIMIT = 8  # clusters up to this size have every split listed


class Metric(enum.Enum):
    """Which partition distance to use."""

    VI = "vi"
    BINDER = "binder"


def _check_metric(metric: Metric):
    if not isinstance(metric, Metric):
        raise ValueError(f"metric must be a Metric, not {metric!r}")


def _xlogx(values: np.ndarray) -> np.ndarray:
    """n * log2(n) elementwise for counts n >= 0, with 0 log 0 := 0."""
    values = np.asarray(values, dtype=np.float64)
    return values * np.log2(np.maximum(values, 1.0))


def _form(metric: Metric, n: int):
    """The metric's (cell(n_ab, n_a, n_b), scale) on ``n`` items."""
    _check_metric(metric)
    if metric is Metric.VI:
        return (lambda ab, a, b: ab * np.log2(a * b / (ab * ab))), n
    return (lambda ab, a, b: ab * (a + b - 2 * ab)), n * n


def _distances(counts: np.ndarray, sizes: np.ndarray, center: np.ndarray,
               ptr, metric: Metric) -> np.ndarray:
    """Distance from the partition of cluster sizes ``center`` to each one
    whose clusters (of ``sizes``) are ptr[m]:ptr[m + 1], by one ``reduceat``
    of the terms of their contingency ``counts``, len(center) per cluster."""
    cell, scale = _form(metric, int(center.sum()))
    cells = np.flatnonzero(counts)
    row = cells // len(center)
    terms = cell(counts[cells], sizes[row], center[cells - row * len(center)])
    return np.add.reduceat(terms, np.searchsorted(row, ptr[:-1])) / scale


def _distance(c: Partition, d: Partition, metric: Metric) -> float:
    if c.n_items != d.n_items:
        raise ValueError("partitions cover different item counts: "
                         f"{c.n_items} vs {d.n_items}")
    counts = np.bincount(np.asarray(c.labels) * d.k + d.labels)
    return float(_distances(counts, np.asarray(c.sizes), np.asarray(d.sizes),
                            [0, c.k], metric)[0])


def vi(c: Partition, d: Partition) -> float:
    """Variation of information between two partitions, in bits: H(c) +
    H(d) - 2 I(c, d), from 0 (identical clusterings) to log2(N) (one
    cluster versus all singletons)."""
    return _distance(c, d, Metric.VI)


def binder(c: Partition, d: Partition) -> float:
    """N-invariant pairwise-disagreement distance, in [0, 1 - 1/N]: a sum of
    exact integers before one division, so dyadic values are exact."""
    return _distance(c, d, Metric.BINDER)


def merge_delta(sizes: tuple, n: int, metric: Metric) -> float | np.ndarray:
    """Distance cost of merging two clusters of the given sizes: the terms
    of their two cells.

    The two partitions are nested, so this is also the cost of splitting
    one cluster into parts of these sizes.  A pair of sizes gives a float;
    a pair of equal-length integer arrays gives the array of pair costs.
    """
    cell, scale = _form(metric, n)
    ni, nj = np.asarray(sizes[0]), np.asarray(sizes[1])
    delta = (cell(ni, ni, ni + nj) + cell(nj, nj, ni + nj)) / scale
    return float(delta) if delta.ndim == 0 else delta


@dataclass(frozen=True, eq=False)
class Neighbors:
    """The neighbours ``closest_neighbors`` returns, as arrays in its order.

    Row t is one candidate: ``delta[t]`` its distance from the source and
    ``merge[t]`` its direction.  A merge joins clusters ``pair[t] = (a, b)``
    with a < b.  A split cuts cluster ``pair[t, 0]`` in two; ``part[t]``
    marks the piece that does not hold the cluster's first item, and is
    all False for a merge.  Only the source's labels are stored: ``rows(t)``
    builds the canonical labels of candidates ``t`` from their moves.
    """

    source: np.ndarray  # (N,) int, the canonical labels moved from
    delta: np.ndarray  # (C,) float
    merge: np.ndarray  # (C,) bool
    pair: np.ndarray  # (C, 2) int; (cluster, -1) for a split
    part: np.ndarray  # (C, N) bool

    def __len__(self) -> int:
        return self.delta.shape[0]

    def rows(self, t: np.ndarray) -> np.ndarray:
        """The canonical labels of the candidates at indices ``t``.  A split's
        part gets label ``new``, 1 + the largest label before its first item:
        the count of clusters that begin before it."""
        labels, part = self.source, self.part[t]
        a, b = self.pair[t, :1], self.pair[t, 1:]
        merged = np.where(labels == b, a, labels) - (labels > b)
        new = np.maximum.accumulate(labels)[part.argmax(axis=1) - 1, None] + 1
        split = np.where(part, new, labels + (labels >= new))
        return np.where(self.merge[t, None], merged, split)


def _split_parts(c: Partition,
                 metric: Metric) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every covered partition ``closest_neighbors`` ranks, as (split
    cluster, delta, part mask): each binary split of a cluster of up to
    ``EXHAUSTIVE_SPLIT_LIMIT`` items and each single-item peel-off of a
    larger one.  No two are the same partition.  The mask marks the piece
    without the cluster's first item.
    """
    n, labels = c.n_items, np.asarray(c.labels)
    clusters, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    blocks = [np.zeros((0, n), dtype=bool)]
    for label, size in enumerate(c.sizes):
        if size < 2:
            continue
        # a 2-item cluster has one split, which both its peel-offs would give
        if size <= EXHAUSTIVE_SPLIT_LIMIT or size == 2:
            # All binary splits: the items of members[1:] whose bit is
            # clear in the mask move; members[0] always stays.
            masks = np.arange(2 ** (size - 1) - 1)[:, None]
            moved = np.zeros((masks.shape[0], size), dtype=bool)
            moved[:, 1:] = (masks >> np.arange(size - 1)) & 1 == 0
        else:
            moved = np.eye(size, dtype=bool)  # every single-item peel-off
        block = np.zeros((moved.shape[0], n), dtype=bool)
        block[:, labels == label] = moved ^ moved[:, :1]
        blocks.append(block)
        clusters.append(np.full(moved.shape[0], label))
        # m, the count of items moved to the new cluster, sets the
        # argument order of the split's delta
        counts.append(moved.sum(axis=1))
    cluster, first = np.concatenate(clusters), np.concatenate(counts)
    second = np.asarray(c.sizes)[cluster] - first
    return cluster, merge_delta((first, second), n, metric), np.concatenate(blocks)


def closest_neighbors(c: Partition, metric: Metric, l: int) -> Neighbors:
    """Generate up to ``l`` nearest covering partitions (merges) and up to
    ``l`` nearest covered partitions (splits) of ``c``.

    Merges are enumerated completely (k(k-1)/2 of them) and ranked by their
    exact distance.  Splits of clusters up to ``EXHAUSTIVE_SPLIT_LIMIT``
    items are enumerated completely; larger clusters contribute their
    single-item peel-offs, the closest splits of a cluster under either
    metric.  The candidates are distinct partitions, ranked by their exact
    distance with ties broken by their canonical label sequences, so the
    output depends on ``c``, ``metric`` and ``l`` alone: nothing is drawn
    at random.

    Each candidate also carries its move (the two merged clusters, or the
    split cluster and the piece cut off), so that the greedy search can
    score it by its loss change without building a ``Partition``.  No
    candidate's labels are built, to rank it or to return it: the result
    builds them on request (``Neighbors.rows``).  A merge of (a, b) first
    changes the labels at b's first item, lowering it to a; a split first
    changes them at the first item f of its part, raising it.  So at equal
    distance merges precede splits, merges rank by (b, a), splits rank by
    descending f and then by the part mask read as a bit string.
    """
    if not (isinstance(l, (int, np.integer)) and l >= 1):
        raise ValueError(f"candidate budget l ({l!r}) must be an integer >= 1")
    n, sizes = c.n_items, np.asarray(c.sizes)
    a, b = np.triu_indices(c.k, 1)
    m_delta = merge_delta((sizes[a], sizes[b]), n, metric)
    m_pick = np.lexsort((a, b, m_delta))[:l]

    cluster, s_delta, part = _split_parts(c, metric)
    # Each mask as one byte string: numpy orders those bytewise, which for
    # packed bits is the lexicographic order of the masks.
    keys = np.packbits(part, axis=1)
    keys = keys.view(f"S{keys.shape[1]}").ravel()
    head = part.argmax(axis=1)
    s_pick = np.lexsort((keys, -head, s_delta))[:l]

    n_merge, n_split = m_pick.shape[0], s_pick.shape[0]
    delta = np.concatenate([m_delta[m_pick], s_delta[s_pick]])
    merge = np.arange(n_merge + n_split) < n_merge
    rank = np.concatenate([np.arange(n_merge), np.arange(n_split)])
    order = np.lexsort((rank, ~merge, delta))

    pair = np.concatenate([
        np.stack([a[m_pick], b[m_pick]], axis=1),
        np.stack([cluster[s_pick], np.full(n_split, -1)], axis=1),
    ])
    return Neighbors(
        source=np.asarray(c.labels),
        delta=delta[order],
        merge=merge[order],
        pair=pair[order],
        part=np.concatenate([np.zeros((n_merge, n), dtype=bool), part[s_pick]])[order],
    )
