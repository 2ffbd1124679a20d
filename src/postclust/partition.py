"""Set partitions in canonical form.

A partition of N items is stored as a label sequence in first-occurrence
canonical form: item 0 has label 0 and each new label is exactly one more
than the largest label seen so far.  Two label sequences that differ only
by renaming clusters map to the same canonical form, so ``Partition``
equality is equality of clusterings.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = ["Partition", "canonicalize", "one_cluster", "singletons"]


def _canonical_rows(a: np.ndarray) -> np.ndarray:
    """Relabel every row of an integer array into first-occurrence form,
    as a C-contiguous int32 array.

    A stable sort of each row, on flat positions ``order + row * N``,
    groups equal labels with their first item in front; an item's label is
    the in-row count of first items up to its group's.  Only which items
    share a key matters, so a block of 64 rows whose labels span fewer
    than 2^16 values sorts them modulo 2^16 as 16-bit keys, which numpy
    radix-sorts.
    """
    n = a.shape[1]
    out = np.empty(a.shape, dtype=np.int32)
    for lo in range(0, a.shape[0] if a.size else 0, 64):
        block = a[lo : lo + 64]
        if int(block.max()) - int(block.min()) < 2**16:  # no int64 overflow
            block = block.astype(np.uint16)
        order = np.argsort(block, axis=1, kind="stable")
        order += np.arange(0, block.size, n)[:, None]
        order = order.ravel()
        ranked = block.ravel()[order]
        starts = np.empty(order.shape, dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
        starts[::n] = True  # each row's first key starts a group
        heads = np.flatnonzero(starts)
        firsts = order[heads]  # each group's first item
        is_first = np.zeros(order.shape, dtype=bool)
        is_first[firsts] = True
        seen = np.cumsum(is_first.reshape(-1, n), axis=1, dtype=np.int32) - 1
        labels = np.repeat(seen.ravel()[firsts], np.diff(heads, append=order.size))
        out[lo : lo + 64].reshape(-1)[order] = labels
    return out


@dataclass(frozen=True)
class Partition:
    """A clustering of ``n_items`` items, in canonical label form, given
    as any sequence of integers and stored as a tuple of Python ints."""

    labels: tuple[int, ...]

    def __post_init__(self):
        try:
            labels = tuple(map(operator.index, self.labels))
        except TypeError:
            raise ValueError("labels must be integers") from None
        object.__setattr__(self, "labels", labels)  # frozen
        seen = -1
        for lab in self.labels:
            if lab > seen + 1 or lab < 0:
                raise ValueError("labels are not in canonical first-occurrence "
                                 "form; use canonicalize()")
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

