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
import functools
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


@functools.cache
def _popcounts(width: int) -> np.ndarray:
    """The number of set bits of each q < 2^width."""
    return (np.arange(2**width)[:, None] >> np.arange(width) & 1).sum(axis=1)


def _runs(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each element's run, and its index in it, for runs of these lengths."""
    run = np.repeat(np.arange(len(lengths)), lengths)
    return run, np.arange(len(run)) - (np.cumsum(lengths) - lengths)[run]


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
    descending f and then by the part mask read as a bit string.  Splits
    are ranked from their cluster, size and first item before any mask is
    built, and only the ``l`` picked get one, so a call takes O(l N + k^2 +
    splits) memory, not O(splits N).
    """
    if not (isinstance(l, (int, np.integer)) and l >= 1):
        raise ValueError(f"candidate budget l ({l!r}) must be an integer >= 1")
    n, sizes = c.n_items, np.asarray(c.sizes)
    a, b = np.triu_indices(c.k, 1)
    m_delta = merge_delta((sizes[a], sizes[b]), n, metric)
    m_pick = np.lexsort((a, b, m_delta))[:l]

    # Splits as rows (cluster, pattern): to the limit (and at s = 2) each q
    # in 1..2^(s-1)-1, whose bit s-1-i moves item i of the cluster's s, so
    # that q orders the parts as their masks do; above it peel-off j, of
    # items 1..s-1 at j = 0 and of item j otherwise.
    members = np.argsort(c.labels, kind="stable")  # each cluster's items, in order
    start = np.cumsum(sizes) - sizes
    full = sizes <= max(EXHAUSTIVE_SPLIT_LIMIT, 2)
    cluster, j = _runs(np.where(full, (1 << np.where(full, sizes - 1, 0)) - 1, sizes))
    s, listed = sizes[cluster], full[cluster]
    q = np.where(listed, j + 1, 0)
    moved = np.where(listed, _popcounts(int(s[listed].max(initial=1)) - 1)[q],
                     np.where(j == 0, s - 1, 1))  # the part's size
    first = np.where(listed, s - np.frexp(q)[1], np.maximum(j, 1))  # its first item
    head = members[start[cluster] + first]
    s_delta = merge_delta((moved, s - moved), n, metric)
    # only peel-offs 0 and 1 share a head, and 1 has the smaller mask
    s_pick = np.lexsort((np.where(listed, q, moved), -head, s_delta))[:l]

    t, i = _runs(np.where(listed, s - first, moved)[s_pick])  # the picks' masks
    r, i = s_pick[t], i + first[s_pick[t]]
    keep = ~listed[r] | (q[r] >> (s[r] - 1 - i) & 1 == 1)
    part = np.zeros((len(s_pick), n), dtype=bool)
    part[t[keep], members[start[cluster[r]] + i][keep]] = True

    n_merge, n_split = m_pick.shape[0], s_pick.shape[0]
    delta = np.concatenate([m_delta[m_pick], s_delta[s_pick]])
    merge = np.arange(n_merge + n_split) < n_merge
    order = np.lexsort((~merge, delta))  # stable: each side keeps its rank

    pair = np.concatenate([
        np.stack([a[m_pick], b[m_pick]], axis=1),
        np.stack([cluster[s_pick], np.full(n_split, -1)], axis=1),
    ])
    return Neighbors(
        source=np.asarray(c.labels),
        delta=delta[order],
        merge=merge[order],
        pair=pair[order],
        part=np.concatenate([np.zeros((n_merge, n), dtype=bool), part])[order],
    )
