"""Posterior draws over partitions and posterior expected-loss estimators.

A ``DrawMatrix`` holds M sampled partitions of N items, one canonical label
row per MCMC sweep; it is the empirical posterior everything downstream
consumes.  The N x N similarity matrix of co-clustering probabilities is
the sufficient statistic for the pair-counting loss and for the fast lower
bound on the expected information distance.  It is the sum of ``Z^T Z``
over blocks of draws of at most 4 x ``TILE_CELLS`` cells, ``Z`` the
float32 cluster-by-item indicators of a block's cluster codes; a block's
counts are integers below 2^24, so the sum is exact.

Loss estimators:

* ``expected_binder`` -- exact posterior expectation of the N-invariant
  pair-counting loss at a candidate partition, s_ij = 1 where it joins
  items i and j: (1/N^2) Σ_ij |s_ij - p_ij| = (1/N^2) (Σ_ij p_ij +
  Σ_A |A|^2 - 2 Σ_i mass_i), A its clusters, mass_i = Σ_j s_ij p_ij.  The
  Binder search and certification read P: the estimator the first form,
  the scan below the second, ``search._binder_gains`` its change along an
  edge.  A VI estimate reports it as the mean of ``draw_distances`` (each
  draw's co-clustering for P), which agrees with P's only to a few ulps.
* ``expected_vi`` -- exact posterior expectation of the variation of
  information: the mean of ``draw_distances``, the one per-draw series
  that the estimator, every certification and the credible ball read.
* ``expected_vi_lower`` -- Jensen lower bound of ``expected_vi``: every
  candidate-dependent term needs only the similarity matrix, hence is
  cheap for large M; one per-posterior scalar comes from the draws.

``best_sampled`` scores every draw in one scan rather than one estimator
call each.  For the exact VI the joint term of draw u, the sum of
f(|A ∩ B|), f(n) = n log2 n, over its clusters A and the clusters B of
every draw, is Σ_{A in u} G(A) with G(A) = Σ_c mult(c) f(|A ∩ c|): c runs
over the distinct clusters of the chain and mult(c) counts the draws that
hold c.  So G is scored once per distinct cluster, however many draws
share it, from float32 products of tiles of cluster indicators of at most
``TILE_CELLS`` cells; for N <= 255 each column of tile J packs two
clusters, z + (N + 1) z', whose counts stay exact (cells <= N (N + 2) <
2^24) at half the multiply-adds.  Ordered by the cluster of the last draw
that holds most of their items, two tiles share few items: each product
runs over those alone, and a pair sharing none is skipped.  The scan is
still quadratic, in the number of distinct clusters.  For the Binder loss
and the lower bound each draw's own masses are read from ``P Z``, over
chunks of item-by-cluster indicators ``Z`` of at most ``TILE_CELLS``
cells.  Every draw within ``CERTIFY_MARGIN`` of the smallest scanned loss
is shortlisted, and the shortlist alone is rescored by ``expected_loss``
(``_certified_best``), so the result is that of scoring each draw with
the estimator, bit for bit.
"""

import math
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

from .metrics import Metric, _check_metric, _distances, _xlogx
from .partition import Partition, _canonical_rows

__all__ = ["DrawMatrix", "load_draws", "similarity_matrix", "expected_binder",
           "expected_vi", "expected_vi_lower", "draw_distances", "expected_loss",
           "best_sampled"]

ESTIMATORS = ("exact", "lower-bound")
TILE_CELLS = 2**15  # cells of one chunk's indicators or of one tile product
CERTIFY_MARGIN = 1e-9  # scanned-loss window rescored by the public estimator
IMPROVEMENT_TOL = 1e-12  # losses or distances this close tie; a move beats it


class DrawMatrix:
    """M posterior partition samples of the same N items, rows canonical.

    Rows keep the order they are given in.  The search's ``init="last"``
    starts from the last row and ``best_sampled`` breaks ties by the first
    occurrence, so the rows should be one chain in sweep order.
    """

    def __init__(self, draws):
        a = np.asarray(draws)
        if a.ndim != 2:
            raise ValueError("draws must be a 2-D array of labels")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("draws must contain at least one row and one item")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError("draw labels must be integers")
        self.draws = _canonical_rows(a)
        self.draws.setflags(write=False)

    @property
    def m(self) -> int:
        return self.draws.shape[0]

    @property
    def n(self) -> int:
        return self.draws.shape[1]

    def row(self, m: int) -> Partition:
        return Partition(tuple(self.draws[m].tolist()))

    @cached_property
    def similarity(self) -> np.ndarray:
        """The similarity matrix, built once per draw matrix from the
        cluster codes of chunks of draws."""
        return _co_clustering(self)

    # -- cached per-draw statistics used by the vectorized estimators ------

    @cached_property
    def _ks(self) -> np.ndarray:
        return self.draws.max(axis=1).astype(np.int64) + 1

    @cached_property
    def _cellptr(self) -> np.ndarray:
        """Offsets of each draw's cluster-label block in the flat cell space."""
        ptr = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(self._ks, out=ptr[1:])
        return ptr

    @cached_property
    def _rowcode(self) -> np.ndarray:
        """Per-item flat code cellptr[m] + label, unique per (draw, cluster).

        Built in int32, the draws' type, whenever code * (n + 1) cannot
        overflow, which makes the per-candidate joint-count pass measurably
        faster, and in int64 otherwise.
        """
        if int(self._cellptr[-1]) * (self.n + 1) < np.iinfo(np.int32).max:
            return self.draws + self._cellptr[:-1, None].astype(np.int32)
        return self._cellptr[:-1, None] + self.draws.astype(np.int64)

    def _joint_counts(self, candidate: "Partition") -> np.ndarray:
        """Contingency cell counts of every draw against ``candidate``,
        flattened to one array indexed by rowcode * k + candidate label."""
        cand = np.asarray(candidate.labels, dtype=self._rowcode.dtype)
        codes = self._rowcode * candidate.k
        codes += cand[None, :]
        return np.bincount(
            codes.ravel(), minlength=int(self._cellptr[-1]) * candidate.k
        )

    @cached_property
    def _cluster_sizes_flat(self) -> np.ndarray:
        return np.bincount(self._rowcode.ravel(), minlength=self._cellptr[-1])

    @cached_property
    def _row_xlogx(self) -> np.ndarray:
        """Per draw: Σ n log2 n over its cluster sizes n."""
        return np.add.reduceat(_xlogx(self._cluster_sizes_flat), self._cellptr[:-1])


def _parse_labels(rows: list[str]) -> np.ndarray:
    """The label text parser: comma-separated int64 rows to an array."""
    with warnings.catch_warnings():
        # numpy < 2 reads "1.5" as the integer 1, with only this warning
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(rows, delimiter=",", dtype=np.int64, ndmin=2,
                          comments=None)


def load_draws(source) -> DrawMatrix:
    """Read a draw file (a path or an open text stream) into a ``DrawMatrix``.

    Each row is one partition: its labels as comma-separated integers in
    the int64 range, which need not be canonical.  One leading byte-order
    mark, blank lines and lines starting with '#' are skipped.  A
    ``ValueError`` names the first bad data row N, counted from 1 without
    the skipped lines: "empty draw file" if no row is left, "non-integer
    label in row N" if a label is not an int64 integer, and "ragged row N"
    if row N holds a different number of labels than row 1.  The rows keep
    the file's order (see ``DrawMatrix``).
    """
    text = (source.read() if hasattr(source, "read")
            else Path(source).read_text(encoding="utf-8")).removeprefix("\ufeff")
    rows = [row for row in map(str.strip, text.splitlines())
            if row and not row.startswith("#")]
    if not rows:
        raise ValueError("empty draw file")
    try:
        labels = _parse_labels(rows)
    except (ValueError, DeprecationWarning):
        # numpy numbers some rows from 0: name the first bad row here
        for row_no, row in enumerate(rows, start=1):
            try:
                _parse_labels([row])
            except (ValueError, DeprecationWarning):
                raise ValueError(f"non-integer label in row {row_no}") from None
            if row.count(",") != rows[0].count(","):
                raise ValueError(f"ragged row {row_no}") from None
        raise
    return DrawMatrix(labels)


def _chunk_codes(rows: np.ndarray, ptr: np.ndarray, cells: int):
    """Cluster codes of canonical label ``rows``, row m's clusters at cells
    ptr[m]:ptr[m + 1] (``DrawMatrix._cellptr``), chunk by chunk: rows lo:hi
    whose clusters hold at most ``cells`` item cells together (a row with
    more is a chunk of its own).  Yields lo, hi, the number of clusters of
    the chunk and each item's code, its label plus the clusters of the
    chunk's rows before its own: one code per cluster of the chunk."""
    width, lo = cells // rows.shape[1], 0
    while lo < len(rows):
        hi = int(np.searchsorted(ptr, ptr[lo] + width, "right")) - 1
        hi = max(hi, lo + 1)
        start = ptr[lo:hi] - ptr[lo]
        yield lo, hi, int(ptr[hi] - ptr[lo]), rows[lo:hi] + start[:, None]
        lo = hi


def _co_clustering(draws: DrawMatrix) -> np.ndarray:
    """Σ Z^T Z / M over blocks of 4 x ``TILE_CELLS`` cells, 512 KiB of
    float32: each product spans four times the clusters of a scan's chunk."""
    n = draws.n
    items = np.arange(n)
    p = np.zeros((n, n))
    for _, _, clusters, codes in _chunk_codes(draws.draws, draws._cellptr,
                                              4 * TILE_CELLS):
        z = np.zeros((clusters, n), np.float32)
        z[codes, items] = 1
        p += z.T @ z  # integers below 2^24: exact in float32
    p /= draws.m  # in place: no second N x N array
    p.setflags(write=False)
    return p


def similarity_matrix(draws: DrawMatrix) -> np.ndarray:
    """Fraction of draws co-clustering each item pair; symmetric, unit diagonal.

    This is the read-only matrix cached on ``draws``, so it is built once
    however often it is asked for.
    """
    return draws.similarity


def _check_candidate(candidate: Partition, n: int):
    if candidate.n_items != n:
        raise ValueError(
            f"candidate covers {candidate.n_items} items, posterior covers {n}"
        )


def _check_estimator(metric: Metric, estimator: str):
    """The one check of a (metric, estimator) pair."""
    _check_metric(metric)
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if metric is Metric.BINDER and estimator != "exact":
        raise ValueError("the lower-bound estimator applies only to the "
                         "variation of information")


def expected_binder(candidate: Partition, psm: np.ndarray) -> float:
    """Posterior expected N-invariant pair-counting loss of ``candidate``,
    exact given the N x N similarity matrix ``psm``: (1/N^2) Σ_ij
    |s_ij - p_ij|, summed over one N x N float64 temporary."""
    n = candidate.n_items
    if np.shape(psm) != (n, n):
        raise ValueError(f"similarity matrix of shape {np.shape(psm)} does "
                         f"not fit a candidate of {n} items")
    labels = np.asarray(candidate.labels)
    x = (labels[:, None] == labels[None, :]) - psm
    np.abs(x, out=x)
    return float(x.sum()) / (n * n)


def expected_vi(candidate: Partition, draws: DrawMatrix) -> float:
    """Posterior expected variation of information: the mean distance in
    bits between ``candidate`` and every sampled partition, the mean of
    ``draw_distances``."""
    return float(draw_distances(candidate, draws, Metric.VI).mean())


def expected_vi_lower(candidate: Partition, draws: DrawMatrix) -> float:
    """Jensen lower bound of the posterior expected variation of information.

    With ``c_n`` the cluster of item n in a draw, ``ĉ_n`` its cluster in
    ``candidate``, ``p`` the similarity matrix and o_n = Σ_{n' ∈ ĉ_n} p_nn',
    the value in bits is, with B = Σ_n log2|ĉ_n| summed as a draw's is,

        (1/N) (E[Σ_n log2|c_n|] - B + 2 [Σ_n log2|ĉ_n| - Σ_n log2 o_n]):

    at a degenerate posterior, where o_n = |ĉ_n|, each difference is of
    equal sums, exactly 0.
    Jensen moves the expectation inside the logarithm of the joint term
    only, so every candidate-dependent term needs just ``p``; the first
    term is one per-posterior scalar, taken exactly from ``draws``.  The
    value is at most ``expected_vi`` on the same posterior and equals it
    for a degenerate posterior.  The gap depends on the candidate, so the
    two estimators can rank candidates differently.  Applying Jensen to
    the first term as well, giving ``(1/N) Σ_n log2 Σ_n' p_nn'``, bounds
    that term from above and would no longer give a lower bound.
    """
    _check_candidate(candidate, draws.n)
    labels, sizes = np.asarray([candidate.labels]), np.asarray(candidate.sizes)
    _, log_mass = _scan_own_mass(labels, np.array([0, candidate.k]),
                                 draws.similarity)
    gap = np.log2(sizes[labels[0]]).sum() - log_mass[0]  # 0 where o_n = |ĉ_n|
    b = np.add.reduceat(_xlogx(sizes), [0])  # summed as a draw's sizes are
    return float(np.mean(draws._row_xlogx - b) + 2.0 * gap) / draws.n


def draw_distances(center: Partition, draws: DrawMatrix, metric: Metric) -> np.ndarray:
    """Distance from ``center`` to every draw, as a length-M vector: row m
    is ``vi`` or ``binder`` of (draw m, ``center``), the same sum of the
    same cell terms (``metrics._distances``)."""
    _check_candidate(center, draws.n)
    return _distances(draws._joint_counts(center), draws._cluster_sizes_flat,
                      np.asarray(center.sizes), draws._cellptr, metric)


def expected_loss(
    candidate: Partition,
    draws: DrawMatrix,
    metric: Metric,
    estimator: str = "exact",
    psm: np.ndarray | None = None,
) -> float:
    """Dispatch to the configured posterior expected-loss estimator; a
    given ``psm`` stands in for ``draws.similarity`` in the Binder loss."""
    _check_estimator(metric, estimator)
    _check_candidate(candidate, draws.n)
    if metric is Metric.BINDER:
        return expected_binder(candidate, draws.similarity if psm is None else psm)
    if estimator == "exact":
        return expected_vi(candidate, draws)
    return expected_vi_lower(candidate, draws)


def _scan_joint(draws: DrawMatrix) -> np.ndarray:
    """Per draw u: Σ_v Σ_cells f(n), f(n) = n log2 n, over the contingency
    counts of u against every draw v.

    The sum splits by u's clusters A into Σ_{A in u} G(A), with
    G(A) = Σ_c mult(c) f(|A ∩ c|) over the distinct clusters c of the
    chain and mult(c) the number of draws holding c.  So each distinct
    cluster is found once, as a packed item bitmask, and G is scored once
    per distinct cluster.  One-item clusters add nothing, f(0) = f(1) = 0,
    and stay out.  The others are stably sorted by the last draw's cluster
    of most of their items, and cut into tiles of d w clusters,
    w = isqrt(TILE_CELLS // d), held item by item.  No item outside those
    both tiles hold is in a cluster of either: a pair sharing none is
    skipped, and the counts of any other are one float32 product over the
    shared items of tile I's indicators and tile J's packed d to a column:
    z_2q + (N + 1) z_2q+1 at d = 2, when the decode table's (N + 1)^2 rows
    fit 2^16 (N <= 255).  A cell v <= N (N + 2) < 2^24 is exact; its intp
    cast picks table row v, f(v mod (N + 1)) and f(v div (N + 1)).  Tile
    J, packed once, is the outer loop and tiles I <= J the inner: an
    off-diagonal pair also adds to tile J, weighted by tile I's clusters.
    """
    n, items, ptr = draws.n, np.arange(draws.n), draws._cellptr
    clusters = np.empty((int(ptr[-1]), (n + 7) // 8), np.uint8)
    for lo, _, k, codes in _chunk_codes(draws.draws, ptr, TILE_CELLS):
        z = np.zeros((k, n), bool)
        z[codes, items] = True
        clusters[ptr[lo]:ptr[lo] + k] = np.packbits(z, axis=1)
    index, inverse, mult = _unique_rows(clusters)
    big = np.flatnonzero(draws._cluster_sizes_flat[index] > 1)
    last = np.zeros((n, int(draws.draws[-1].max()) + 1), np.float32)
    last[items, draws.draws[-1]] = 1
    key, step = np.empty(len(big), np.intp), max(1, TILE_CELLS // n)
    for lo in range(0, len(big), step):  # the last draw's cluster of most items
        z = np.unpackbits(clusters[index[big[lo:lo + step]]], axis=1, count=n)
        key[lo:lo + step] = (z.astype(np.float32) @ last).argmax(axis=1)
    big = big[np.argsort(key, kind="stable")]
    w = mult[big].astype(np.float64)
    base = n + 1
    d = 2 if base * base <= 2**16 else 1  # clusters per column of tile J
    table = _xlogx(np.arange(base))[  # row v: f of each base-(N + 1) digit of v
        np.arange(base**d)[:, None] // base**np.arange(d) % base]
    g = np.zeros(len(big))
    span = d * max(1, math.isqrt(TILE_CELLS // d))
    tiles = [slice(lo, lo + span) for lo in range(0, len(big), span)]
    by_item = [np.packbits(np.unpackbits(clusters[index[big[t]]], axis=1,
                                         count=n).T, axis=1) for t in tiles]
    held = [bits.any(axis=1) for bits in by_item]
    for j, tj in enumerate(tiles):
        nj = len(w[tj])
        zj = np.unpackbits(by_item[j], axis=1, count=nj).astype(np.float32)
        for r in range(1, d):  # column q: clusters dq, ..., dq + d - 1
            zj[:, :nj - r:d] += base**r * zj[:, r::d]
        zj = np.ascontiguousarray(zj[:, ::d])
        for i, ti in enumerate(tiles[:j + 1]):
            both = np.flatnonzero(held[i] & held[j])
            if not len(both):
                continue  # every cell is f(0) = 0
            zi = np.unpackbits(by_item[i][both], axis=1, count=len(w[ti])).T
            cells = table.take((zi.astype(np.float32) @ zj[both]).astype(np.intp),
                               axis=0)
            cells = cells.reshape(len(zi), -1)[:, :nj]
            g[ti] += cells @ w[tj]
            if i != j:
                g[tj] += w[ti] @ cells
            del cells  # before the next pair's cells are taken
    per_cluster = np.zeros(len(index))
    per_cluster[big] = g
    return np.add.reduceat(per_cluster[inverse], ptr[:-1])


def _scan_own_mass(rows: np.ndarray, ptr: np.ndarray,
                   psm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per label row, its clusters at cell offsets ``ptr`` as in
    ``_chunk_codes``: Σ_n mass_n and Σ_n log2 mass_n, with mass_n the
    similarity of item n to its own cluster, diagonal included, read from
    ``psm Z`` with ``Z`` the item-by-cluster indicators of each chunk."""
    n = rows.shape[1]
    items = np.arange(n)
    total, logs = np.empty(len(rows)), np.empty(len(rows))
    for lo, hi, clusters, codes in _chunk_codes(rows, ptr, TILE_CELLS):
        z = np.zeros((n, clusters))
        z[items, codes] = 1
        own = (psm @ z)[items, codes]
        total[lo:hi] = own.sum(axis=1)
        logs[lo:hi] = np.log2(own).sum(axis=1)
    return total, logs


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First occurrence, inverse and count of each distinct row of canonical
    labels or packed bytes, in the row order of ``np.unique(rows, axis=0)``.

    Each row is one byte key of its values as big-endian unsigned integers,
    one byte wide or as wide as N - 1 needs; keys sort bytewise like the
    non-negative values do, and the stable sort keeps the first of equal
    rows in front.
    """
    width = np.min_scalar_type(rows.shape[1] - 1).newbyteorder(">")
    keys = np.ascontiguousarray(rows, dtype=width)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    return np.unique(keys, return_index=True, return_inverse=True,
                     return_counts=True)[1:]


def _scanned_losses(draws: DrawMatrix, metric: Metric,
                    estimator: str) -> np.ndarray:
    """The loss the scan gives every draw, in chain order: the estimator's
    value up to rounding."""
    n, m = draws.n, draws.m
    a = float(draws._row_xlogx.sum())
    b = draws._row_xlogx
    if metric is Metric.VI and estimator == "exact":
        return ((a + b * m - 2.0 * _scan_joint(draws)) / m) / n
    psm = draws.similarity
    mass, log_mass = _scan_own_mass(draws.draws, draws._cellptr, psm)
    if metric is Metric.BINDER:
        sq = np.add.reduceat(draws._cluster_sizes_flat**2, draws._cellptr[:-1])
        return (psm.sum() + sq - 2.0 * mass) / (n * n)
    return (a / m + b - 2.0 * log_mass) / n


def best_sampled(
    draws: DrawMatrix, metric: Metric, estimator: str = "exact"
) -> tuple[Partition, float]:
    """The sampled partition minimizing the chosen posterior expected loss.

    One scan scores every draw from shared statistics, in tiles of at most
    ``TILE_CELLS`` cells.  The draws within ``CERTIFY_MARGIN`` of the
    smallest scanned loss form the shortlist, which ``_certified_best``
    rescores and chooses from, in chain order.  The scan is exact up to
    rounding far below the margin, so the estimator's minimizer is always
    rescored.  Returns the winning partition together with its estimated
    loss.
    """
    _check_estimator(metric, estimator)
    loss = _scanned_losses(draws, metric, estimator)
    near = draws.draws[loss <= loss.min() + CERTIFY_MARGIN]
    return _certified_best(near, draws, metric, estimator)


def _certified_best(rows: np.ndarray, draws: DrawMatrix, metric: Metric,
                    estimator: str) -> tuple[Partition, float]:
    """The certification rule, the one choice by the public estimator: of
    canonical label ``rows`` in tie-break order, the first whose
    ``expected_loss`` is within ``IMPROVEMENT_TOL`` of the least, with that
    loss: rounding does not split a tie.  Each distinct row is scored once.
    Draws tie by chain order (``best_sampled``), moves by labels (a greedy
    step), and the search's ``last`` or explicit start is one row."""
    first = np.sort(_unique_rows(rows)[0])
    parts = [Partition(tuple(row)) for row in rows[first].tolist()]
    losses = [expected_loss(p, draws, metric, estimator) for p in parts]
    best = int(np.argmax(np.array(losses) <= min(losses) + IMPROVEMENT_TOL))
    return parts[best], losses[best]
