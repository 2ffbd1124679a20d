"""Posterior draws over partitions and posterior expected-loss estimators.

A ``DrawMatrix`` holds M sampled partitions of N items, one canonical label
row per MCMC sweep; it is the empirical posterior everything downstream
consumes.  The N x N similarity matrix of co-clustering probabilities is
the sufficient statistic for the pair-counting loss and for the fast lower
bound on the expected information distance.

Loss estimators:

* ``expected_binder`` -- exact posterior expectation of the N-invariant
  pair-counting loss at a candidate partition, a linear functional of the
  similarity matrix.
* ``expected_vi`` -- exact posterior expectation of the variation of
  information, the empirical mean of the distance to every draw.
* ``expected_vi_lower`` -- Jensen lower bound of ``expected_vi``: every
  candidate-dependent term needs only the similarity matrix, hence is
  cheap for large M; one per-posterior scalar comes from the draws.

``best_sampled`` scores every distinct draw in one scan rather than one
estimator call each.  The draws are cut into blocks of item-by-cluster
indicator matrices ``Z`` so small that the product of two blocks holds at
most ``TILE_CELLS`` cells.  For the exact VI the contingency counts of
every pair of draws in two blocks are one such product ``Z_I^T Z_J``,
walked over the tiles with J >= I; for the Binder loss and the lower bound
each draw's own-cluster similarity mass is read from ``P Z``.  The
similarity matrix itself is the sum of ``Z Z^T`` over the same blocks.
Every draw within ``CERTIFY_MARGIN`` of the smallest scanned loss is
rescored by ``expected_loss``, so the result is that of scoring each draw
with the estimator, bit for bit.
"""

import math
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

from .metrics import Metric, _check_metric, _xlogx
from .partition import Partition, _canonical_rows

ESTIMATORS = ("exact", "lower-bound")
TILE_CELLS = 2**15  # cells of one product of two blocks' indicator matrices
CERTIFY_MARGIN = 1e-9  # scanned-loss window rescored by the public estimator


class DrawMatrix:
    """M posterior partition samples of the same N items, rows canonical."""

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
        """The similarity matrix, built once per draw matrix."""
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

        Stored as int32 whenever code * (n + 1) cannot overflow, which makes
        the per-candidate joint-count pass measurably faster.
        """
        code = self._cellptr[:-1, None] + self.draws.astype(np.int64)
        if int(self._cellptr[-1]) * (self.n + 1) < np.iinfo(np.int32).max:
            return code.astype(np.int32)
        return code

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
        """Per draw: sum of n log2 n over its cluster sizes."""
        return np.add.reduceat(_xlogx(self._cluster_sizes_flat), self._cellptr[:-1])

    @cached_property
    def _row_sumsq(self) -> np.ndarray:
        """Per draw: sum of squared cluster sizes."""
        return np.add.reduceat(
            self._cluster_sizes_flat.astype(np.float64) ** 2, self._cellptr[:-1]
        )


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
    the int64 range, which need not be canonical.  Blank lines and lines
    starting with '#' are skipped.  A ``ValueError`` names the first bad
    data row N, counted from 1 without the skipped lines: "empty draw
    file" if no row is left, "non-integer label in row N" if a label is
    not an int64 integer, and "ragged row N" if row N holds a different
    number of labels than row 1.
    """
    text = (source.read() if hasattr(source, "read")
            else Path(source).read_text(encoding="utf-8"))
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


def _blocks(ks: np.ndarray) -> list[slice]:
    """Consecutive runs of draws with ``ks`` clusters each.

    A run holds at most sqrt(TILE_CELLS) clusters together, so that the
    product of the indicator matrices of two runs has at most
    ``TILE_CELLS`` cells and each indicator matrix at most N sqrt(TILE_CELLS);
    a draw with more clusters is a run of its own.
    """
    width = math.isqrt(TILE_CELLS)
    bounds, held = [0], 0
    for i, k in enumerate(ks.tolist()):
        if held and held + k > width:
            bounds.append(i)
            held = 0
        held += k
    bounds.append(len(ks))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _block_onehot(rows: np.ndarray, ks: np.ndarray,
                  dtype) -> tuple[np.ndarray, np.ndarray]:
    """The item-by-cluster indicators of canonical label ``rows`` side by
    side, and the column where each row's clusters start."""
    start = np.cumsum(ks) - ks
    z = np.zeros((rows.shape[1], int(ks.sum())), dtype)
    z[np.arange(rows.shape[1]), rows + start[:, None]] = 1
    return z, start


def _co_clustering(draws: DrawMatrix) -> np.ndarray:
    n = draws.n
    counts = np.zeros((n, n))  # integers, so exact in float64
    for block in _blocks(draws._ks):
        z, _ = _block_onehot(draws.draws[block], draws._ks[block], np.float64)
        counts += z @ z.T
    p = counts / draws.m
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


def _check_similarity(candidate: Partition, psm: np.ndarray):
    if np.shape(psm) != (candidate.n_items,) * 2:
        raise ValueError(f"similarity matrix of shape {np.shape(psm)} does "
                         f"not fit a candidate of {candidate.n_items} items")


def _check_estimator(metric: Metric, estimator: str):
    """The one check of a (metric, estimator) pair."""
    _check_metric(metric)
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if metric is Metric.BINDER and estimator != "exact":
        raise ValueError("the lower-bound estimator applies only to the "
                         "variation of information")


def expected_binder(candidate: Partition, psm: np.ndarray) -> float:
    """Posterior expected N-invariant pair-counting loss of ``candidate``.

    Exact given the N x N similarity matrix ``psm``: every co-clustered
    candidate pair contributes 1 - p, every separated pair contributes p.
    """
    _check_similarity(candidate, psm)
    n = candidate.n_items
    labels = np.asarray(candidate.labels)
    same = labels[:, None] == labels[None, :]
    iu = np.triu_indices(n, 1)
    p = psm[iu]
    s = same[iu]
    return 2.0 * float(np.where(s, 1.0 - p, p).sum()) / (n * n)


def expected_vi(candidate: Partition, draws: DrawMatrix) -> float:
    """Posterior expected variation of information: the mean distance in
    bits between ``candidate`` and every sampled partition."""
    _check_candidate(candidate, draws.n)
    joint = draws._joint_counts(candidate)
    joint = joint[joint > 0]
    j_total = float((joint * np.log2(joint)).sum())
    b = float(_xlogx(np.asarray(candidate.sizes)).sum())
    a = float(draws._row_xlogx.sum())
    return ((a + b * draws.m - 2.0 * j_total) / draws.m) / draws.n


def expected_vi_lower(
    candidate: Partition, psm: np.ndarray, draws: DrawMatrix
) -> float:
    """Jensen lower bound of the posterior expected variation of information.

    With ``c_n`` the cluster of item n in a draw, ``ĉ_n`` its cluster in
    ``candidate`` and ``p`` the similarity matrix, the value in bits is

        E[(1/N) Σ_n log2|c_n|]
          + (1/N) Σ_n [log2|ĉ_n| - 2 log2 Σ_{n' ∈ ĉ_n} p_nn'].

    Jensen moves the expectation inside the logarithm of the joint term
    only, so every candidate-dependent term needs just ``psm``; the first
    term is one per-posterior scalar, taken exactly from ``draws``.  The
    value is at most ``expected_vi`` on the same posterior and equals it
    for a degenerate posterior.  The gap depends on the candidate, so the
    two estimators can rank candidates differently.  Applying Jensen to
    the first term as well, giving ``(1/N) Σ_n log2 Σ_n' p_nn'``, bounds
    that term from above and would no longer give a lower bound.
    """
    _check_similarity(candidate, psm)
    _check_candidate(candidate, draws.n)
    labels = np.asarray([candidate.labels])
    _, log_mass = _scan_own_mass(labels, np.array([candidate.k]), psm)
    sizes = np.asarray(candidate.sizes, dtype=np.float64)[labels[0]]
    a = float(draws._row_xlogx.sum()) / draws.m
    return float(a + np.log2(sizes).sum() - 2.0 * log_mass[0]) / candidate.n_items


def draw_distances(center: Partition, draws: DrawMatrix, metric: Metric) -> np.ndarray:
    """Distance from ``center`` to every draw, as a length-M vector."""
    _check_metric(metric)
    _check_candidate(center, draws.n)
    joint = draws._joint_counts(center)
    seg = draws._cellptr[:-1] * center.k
    if metric is Metric.VI:
        j_m = np.add.reduceat(_xlogx(joint), seg)
        b = float(_xlogx(np.asarray(center.sizes)).sum())
        return (draws._row_xlogx + b - 2.0 * j_m) / draws.n
    j2_m = np.add.reduceat(joint.astype(np.float64) ** 2, seg)
    b2 = float((np.asarray(center.sizes, dtype=np.float64) ** 2).sum())
    return (draws._row_sumsq + b2 - 2.0 * j2_m) / (draws.n * draws.n)


def expected_loss(
    candidate: Partition,
    draws: DrawMatrix,
    metric: Metric,
    estimator: str = "exact",
    psm: np.ndarray | None = None,
) -> float:
    """Dispatch to the configured posterior expected-loss estimator."""
    _check_estimator(metric, estimator)
    if metric is Metric.VI and estimator == "exact":
        return expected_vi(candidate, draws)
    psm = draws.similarity if psm is None else psm
    if metric is Metric.BINDER:
        return expected_binder(candidate, psm)
    return expected_vi_lower(candidate, psm, draws)


def _scan_joint(rows: np.ndarray, ks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row u of distinct draws: Σ_v weights[v] Σ_cells n log2 n over the
    contingency counts of u against row v.

    The counts of two blocks are one float32 product of their indicator
    matrices, exact since they are integers <= N.  Only tiles with J >= I
    are walked: an off-diagonal tile also adds to block J, weighted by the
    draws of block I.
    """
    n = rows.shape[1]
    table = _xlogx(np.arange(n + 1))
    joint = np.zeros(len(rows))
    blocks = _blocks(ks)
    for i, bi in enumerate(blocks):
        zi, start_i = _block_onehot(rows[bi], ks[bi], np.float32)
        wi = np.repeat(weights[bi], ks[bi])  # each cluster weighted by its draw
        for bj in blocks[i:]:
            zj, start_j = _block_onehot(rows[bj], ks[bj], np.float32)
            cells = table.take((zi.T @ zj).astype(np.intp))
            joint[bi] += np.add.reduceat(cells @ np.repeat(weights[bj], ks[bj]),
                                         start_i)
            if bj is not bi:
                joint[bj] += np.add.reduceat(wi @ cells, start_j)
    return joint


def _scan_own_mass(rows: np.ndarray, ks: np.ndarray,
                   psm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of distinct draws: Σ_n mass_n and Σ_n log2 mass_n, with
    mass_n the similarity of item n to its own cluster, diagonal included."""
    n = rows.shape[1]
    total, logs = np.empty(len(rows)), np.empty(len(rows))
    for block in _blocks(ks):
        z, start = _block_onehot(rows[block], ks[block], np.float64)
        own = (psm @ z)[np.arange(n), rows[block] + start[:, None]]
        total[block] = own.sum(axis=1)
        logs[block] = np.log2(own).sum(axis=1)
    return total, logs


def _scanned_losses(draws: DrawMatrix, metric: Metric,
                    estimator: str) -> tuple[np.ndarray, np.ndarray]:
    """The first occurrence of every distinct draw, in chain order, and the
    loss the scan gives it: the estimator's value up to rounding."""
    _, first, counts = np.unique(draws.draws, axis=0, return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    first, weights = first[order], counts[order].astype(np.float64)
    rows, ks = draws.draws[first], draws._ks[first]
    n, m = draws.n, draws.m
    a = float(draws._row_xlogx.sum())
    b = draws._row_xlogx[first]
    if metric is Metric.VI and estimator == "exact":
        joint = _scan_joint(rows, ks, weights)
        return first, ((a + b * m - 2.0 * joint) / m) / n
    psm = draws.similarity
    mass, log_mass = _scan_own_mass(rows, ks, psm)
    if metric is Metric.BINDER:
        pairs = (psm.sum() - n) / 2.0  # Σ_{i<j} p_ij
        same = (draws._row_sumsq[first] - n) / 2.0  # co-clustered pairs
        return first, 2.0 * (pairs + same - (mass - n)) / (n * n)
    return first, (a / m + b - 2.0 * log_mass) / n


def best_sampled(
    draws: DrawMatrix, metric: Metric, estimator: str = "exact"
) -> tuple[Partition, float]:
    """The sampled partition minimizing the chosen posterior expected loss.

    One scan scores every distinct draw from shared statistics, in tiles
    of at most ``TILE_CELLS`` cells; every draw within
    ``CERTIFY_MARGIN`` of the smallest scanned loss is then rescored by
    ``expected_loss``.  The scan is exact up to rounding far below the
    margin, so the estimator's minimizer is always rescored.  Ties are
    broken by first occurrence in the chain.  Returns the winning
    partition together with its estimated loss.
    """
    _check_estimator(metric, estimator)
    first, loss = _scanned_losses(draws, metric, estimator)
    shortlist = [draws.row(u) for u in first[loss <= loss.min() + CERTIFY_MARGIN]]
    rescored = [expected_loss(c, draws, metric, estimator) for c in shortlist]
    best = int(np.argmin(rescored))
    return shortlist[best], rescored[best]
