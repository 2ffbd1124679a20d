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
"""

import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

from .metrics import Metric, _xlogx
from .partition import Partition, _canonical_rows

ESTIMATORS = ("exact", "lower-bound")
SIMILARITY_BLOCK = 128  # draws compared at once: memory grows as block * N^2


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


def _co_clustering(draws: DrawMatrix) -> np.ndarray:
    n = draws.n
    counts = np.zeros((n, n), dtype=np.int64)
    a = draws.draws
    for start in range(0, draws.m, SIMILARITY_BLOCK):
        block = a[start : start + SIMILARITY_BLOCK]
        counts += (block[:, :, None] == block[:, None, :]).sum(axis=0)
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


def _onehot(c: Partition) -> np.ndarray:
    z = np.zeros((c.n_items, c.k))
    z[np.arange(c.n_items), c.labels] = 1.0
    return z


def _check_estimator(metric: Metric, estimator: str):
    """The one check of a (metric, estimator) pair."""
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
    n = candidate.n_items
    labels = np.asarray(candidate.labels)
    mass = (psm @ _onehot(candidate))[np.arange(n), labels]  # sum of p over own cluster
    sizes = np.asarray(candidate.sizes, dtype=np.float64)[labels]
    a = float(draws._row_xlogx.sum()) / draws.m
    return float(a + np.log2(sizes).sum() - 2.0 * np.log2(mass).sum()) / n


def draw_distances(center: Partition, draws: DrawMatrix, metric: Metric) -> np.ndarray:
    """Distance from ``center`` to every draw, as a length-M vector."""
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


def best_sampled(
    draws: DrawMatrix, metric: Metric, estimator: str = "exact"
) -> tuple[Partition, float]:
    """The sampled partition minimizing the chosen posterior expected loss.

    Ties are broken by first occurrence in the chain.  Returns the winning
    partition together with its estimated loss.
    """
    _, first = np.unique(draws.draws, axis=0, return_index=True)
    candidates = (draws.row(m) for m in np.sort(first))  # in chain order
    scored = ((expected_loss(c, draws, metric, estimator), c) for c in candidates)
    loss, best = min(scored, key=lambda pair: pair[0])
    return best, loss
