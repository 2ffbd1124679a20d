"""Set partitions in canonical form and their contingency tables.

A partition of N items is stored as a label sequence in first-occurrence
canonical form: item 0 has label 0 and each new label is exactly one more
than the largest label seen so far.  Two label sequences that differ only
by renaming clusters map to the same canonical form, so ``Partition``
equality is equality of clusterings.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


def _canonical_rows(a: np.ndarray) -> np.ndarray:
    """Relabel every row of an integer array into first-occurrence form.

    A stable sort of each row groups equal labels with their first
    occurrence in front; an item's canonical label is the number of
    first occurrences before the first occurrence of its own label.
    Blocks of 64 rows keep the temporaries small.  A block whose labels
    span fewer than 2^16 values is sorted by its labels less their minimum
    as 16-bit keys, which numpy radix-sorts: a stable sort's permutation
    depends only on the keys' order, so the result is the same.
    """
    cols = np.arange(a.shape[1])
    out = np.empty(a.shape, dtype=np.int32)
    for lo in range(0, a.shape[0], 64):
        block = a[lo : lo + 64]
        if block.size:
            least = int(block.min())  # Python ints: no int64 overflow
            if int(block.max()) - least < 2**16:
                # modulo 2^16 the difference is exact, as it fits
                block = block.astype(np.uint16) - np.uint16(least % 2**16)
        order = np.argsort(block, axis=1, kind="stable")
        ranked = np.take_along_axis(block, order, axis=1)
        starts = np.ones(block.shape, dtype=bool)
        starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        group_start = np.maximum.accumulate(np.where(starts, cols, 0), axis=1)
        first = np.empty_like(order)  # first[r, i]: first item with i's label
        np.put_along_axis(
            first, order, np.take_along_axis(order, group_start, axis=1), axis=1
        )
        seen = np.cumsum(first == cols, axis=1, dtype=np.int32) - 1
        out[lo : lo + 64] = np.take_along_axis(seen, first, axis=1)
    return out


@dataclass(frozen=True)
class Partition:
    """A clustering of ``n_items`` items, in canonical label form."""

    labels: tuple[int, ...]

    def __post_init__(self):
        seen = -1
        for lab in self.labels:
            if lab > seen + 1 or lab < 0:
                raise ValueError(
                    "labels are not in canonical first-occurrence form; "
                    "use canonicalize()"
                )
            seen = max(seen, lab)
        if len(self.labels) == 0:
            raise ValueError("empty partition")

    @property
    def n_items(self) -> int:
        return len(self.labels)

    @cached_property
    def k(self) -> int:
        """Number of clusters."""
        return max(self.labels) + 1

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Cluster sizes, indexed by cluster label."""
        return tuple(np.bincount(self.labels).tolist())

    @cached_property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Item indices of each cluster, indexed by cluster label."""
        members: list[list[int]] = [[] for _ in range(self.k)]
        for i, lab in enumerate(self.labels):
            members[lab].append(i)
        return tuple(tuple(m) for m in members)

    def __str__(self) -> str:
        return ",".join(str(lab) for lab in self.labels)


def canonicalize(raw_labels: Sequence) -> Partition:
    """Build the canonical ``Partition`` from a flat sequence of sortable
    labels (integers, strings, ...)."""
    a = np.asarray(raw_labels)
    if a.ndim != 1:
        raise ValueError("labels must be a flat sequence")
    if not np.issubdtype(a.dtype, np.integer):
        a = np.unique(a, return_inverse=True)[1]
    return Partition(tuple(_canonical_rows(a[None, :])[0].tolist()))


def one_cluster(n: int) -> Partition:
    """The greatest lattice element: all items in a single cluster."""
    return Partition((0,) * n)


def singletons(n: int) -> Partition:
    """The least lattice element: every item in its own cluster."""
    return Partition(tuple(range(n)))


def contingency(c: Partition, d: Partition) -> np.ndarray:
    """The (c.k, d.k) array whose entry [i, j] counts the items in cluster
    i of ``c`` and cluster j of ``d``."""
    if c.n_items != d.n_items:
        raise ValueError(
            f"partitions cover different item counts: {c.n_items} vs {d.n_items}"
        )
    codes = np.asarray(c.labels) * d.k + np.asarray(d.labels)
    return np.bincount(codes, minlength=c.k * d.k).reshape(c.k, d.k)
