"""Shared helpers: exhaustive partition tables, synthetic posteriors, and
plain-Python references for the lattice and information quantities."""

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterator

import numpy as np
import pytest

from postclust import (
    DrawMatrix,
    Metric,
    Partition,
    binder,
    canonicalize,
    merge_delta,
    vi,
)


def canonical_labels(raw) -> tuple[int, ...]:
    """First-occurrence relabelling as a plain dict loop, the reference for
    the package's vectorised canonicaliser."""
    mapping: dict = {}
    return tuple(mapping.setdefault(x, len(mapping)) for x in raw)


# References written from the definitions; each uses ``Partition`` and
# nothing else of the package.


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Every partition of n >= 1 items once, as restricted-growth strings
    in lexicographic order."""
    labels = [0] * n
    maxima = [0] * n  # maxima[i] = max(labels[: i + 1])
    while True:
        yield Partition(tuple(labels))
        i = n - 1
        while i > 0 and labels[i] > maxima[i - 1]:
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        maxima[i] = max(maxima[i - 1], labels[i])
        for j in range(i + 1, n):
            labels[j] = 0
            maxima[j] = maxima[i]


def meet(c: Partition, d: Partition) -> Partition:
    """Greatest lower bound: items together in both c and d."""
    return Partition(canonical_labels(zip(c.labels, d.labels, strict=True)))


def leq(c: Partition, d: Partition) -> bool:
    """True iff every cluster of c lies inside one cluster of d."""
    return len(set(zip(c.labels, d.labels, strict=True))) == c.k


def entropy(c: Partition) -> float:
    """Shannon entropy of the cluster-size distribution, in bits."""
    n = c.n_items
    return -sum(s / n * math.log2(s / n) for s in c.sizes)


def mutual_information(c: Partition, d: Partition) -> float:
    """Mutual information of two clusterings of the same items, in bits."""
    n = c.n_items
    joint = Counter(zip(c.labels, d.labels, strict=True))
    return sum(
        nij / n * math.log2(nij * n / (c.sizes[i] * d.sizes[j]))
        for (i, j), nij in joint.items()
    )


def rand_index(c: Partition, d: Partition) -> float:
    """Fraction of item pairs on which c and d agree (together or apart)."""
    pairs = list(itertools.combinations(range(c.n_items), 2))
    agree = sum(
        (c.labels[i] == c.labels[j]) == (d.labels[i] == d.labels[j])
        for i, j in pairs
    )
    return agree / len(pairs)


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(enumerate_partitions(n))


@lru_cache(maxsize=None)
def distance_matrix(n: int, metric: Metric) -> np.ndarray:
    """Dense pairwise distances over every partition of n items."""
    parts = all_partitions(n)
    fn = vi if metric is Metric.VI else binder
    out = np.zeros((len(parts), len(parts)))
    for i, p in enumerate(parts):
        for j in range(i + 1, len(parts)):
            out[i, j] = out[j, i] = fn(p, parts[j])
    return out


@lru_cache(maxsize=None)
def partition_index(n: int) -> dict[tuple[int, ...], int]:
    return {p.labels: i for i, p in enumerate(all_partitions(n))}


def bell_numbers(limit: int) -> list[int]:
    """Bell numbers B_1..B_limit via the Bell triangle."""
    out = []
    row = [1]
    for _ in range(limit):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def crp_row(rng: np.random.Generator, n: int, alpha: float = 1.0) -> list[int]:
    """One partition sampled sequentially from the CRP seating process."""
    labels = [0]
    counts = [1]
    for _ in range(1, n):
        total = len(labels) + alpha
        probs = np.array(counts + [alpha]) / total
        pick = int(rng.choice(len(probs), p=probs))
        if pick == len(counts):
            counts.append(1)
        else:
            counts[pick] += 1
        labels.append(pick)
    return labels


def synthetic_draws(
    rng: np.random.Generator,
    n: int,
    m: int,
    support: int | None = None,
) -> DrawMatrix:
    """Random posterior draws; with ``support`` set, draws resample from
    that many distinct partitions with random weights."""
    if support is None:
        rows = [crp_row(rng, n) for _ in range(m)]
        return DrawMatrix(np.asarray(rows, dtype=np.int64))
    pool = [crp_row(rng, n) for _ in range(support)]
    weights = rng.dirichlet(np.ones(len(pool)))
    picks = rng.choice(len(pool), size=m, p=weights)
    return DrawMatrix(np.asarray([pool[p] for p in picks], dtype=np.int64))


def neighbor_list(moves) -> list[tuple[tuple[int, ...], str, float]]:
    """The rows of a ``Neighbors`` as (labels, direction, delta), the form
    ``reference_neighbors`` returns."""
    return [
        (tuple(row), "merge-up" if up else "split-down", delta)
        for row, up, delta in zip(
            moves.rows(np.arange(len(moves))).tolist(), moves.merge.tolist(),
            moves.delta.tolist(),
        )
    ]


def reference_neighbors(
    c: Partition,
    metric: Metric,
    l: int,
    exhaustive_limit: int = 8,
) -> list[tuple[tuple[int, ...], str, float]]:
    """``closest_neighbors`` written as a plain loop over label lists:
    (labels, direction, delta) per candidate, in the same order."""
    key = lambda cand: (cand[2], cand[0])
    merges = []
    for i in range(c.k):
        for j in range(i + 1, c.k):
            merged = canonicalize([i if lab == j else lab for lab in c.labels])
            delta = merge_delta((c.sizes[i], c.sizes[j]), c.n_items, metric)
            merges.append((merged.labels, "merge-up", delta))
    splits: dict[tuple[int, ...], tuple] = {}

    def add(members, chosen):
        labels = list(c.labels)
        for idx in chosen:
            labels[idx] = c.k
        cand = canonicalize(labels).labels
        if cand not in splits:
            sizes = (len(chosen), len(members) - len(chosen))
            splits[cand] = (cand, "split-down",
                            merge_delta(sizes, c.n_items, metric))

    for label in range(c.k):
        members = [i for i, lab in enumerate(c.labels) if lab == label]
        size = len(members)
        if size < 2:
            continue
        if size <= exhaustive_limit:
            rest = members[1:]
            for mask in range(2 ** len(rest) - 1):
                add(members, [rest[t] for t in range(len(rest))
                              if not mask >> t & 1])
        else:
            for idx in members:
                add(members, (idx,))
    merges = sorted(merges, key=key)[:l]
    return sorted(merges + sorted(splits.values(), key=key)[:l], key=key)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
