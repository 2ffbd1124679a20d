"""Collapsed Gibbs sampler for a Dirichlet-process mixture of normals.

The observation model is a DP mixture of D-dimensional normals with
diagonal covariance; the base measure is an independent normal-inverse-
gamma prior per dimension (mean mu0 with precision multiplier c, variance
with shape a and rate b; by default mu0 and b are each column's mean and
variance, c = 0.5 and a = 2.0), so cluster parameters integrate out in
closed form.  Items are reassigned one at a time: an existing cluster
attracts an item with weight proportional to its size times the
posterior-predictive density, and a new cluster with weight proportional
to the mass parameter times the prior-predictive density.  The mass
parameter either stays fixed or is refreshed once per sweep under a gamma
hyperprior via the usual beta-augmentation step.

Clusters keep sums s1, s2 of the data centred at mu0, so the posterior
rate is ``b + s2/2 - s1**2 / (2 (c + n))``.  One state object holds the
seating, these sums and the per-count tables of the log marginal (entry m
for a cluster of m + 1 items), and computes the trace's log joint.  All of
it is Python floats: at a handful of clusters numpy's fixed cost per call
outweighs its arithmetic.  Each reassignment rescores the cluster the item
left, then scores every seat with the item added in one pass per
dimension, the last pass fused with the seat weights.  One-column data,
such as the galaxy velocities, take a loop with no per-dimension
iteration.  It is bit-identical to the general loop and exists for speed:
the sweep is about 88% of a galaxy-pipeline repetition, and at D = 1 the
per-dimension loops cost about 15% of the sweep's CPU time.

One partition is recorded per post-burn-in sweep, giving the ``DrawMatrix``
consumed by the summary tools.
"""

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Sequence

import numpy as np

from .partition import Partition, canonicalize
from .posterior import DrawMatrix

__all__ = ["Dataset", "SamplerConfig", "gibbs_run", "simulate_example",
           "load_galaxy"]

LOG_2PI = math.log(2.0 * math.pi)


class Dataset:
    """N observations of dimension D, stored as an (N, D) float matrix."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("data must be a vector or a 2-D matrix")
        if pts.shape[0] < 2:
            raise ValueError("need at least 2 observations")
        if pts.shape[1] == 0:
            raise ValueError("data have no columns")
        if not np.isfinite(pts).all():
            raise ValueError("data contains non-finite values")
        self.points = pts
        self.points.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass
class SamplerConfig:
    """Hyperparameters and run settings for :func:`gibbs_run`.

    ``mu0`` and ``b`` of None take each data column's mean and variance
    (ddof 1).  ``iterations`` counts all sweeps including burn-in; the
    recorded chain has ``iterations - burn_in`` rows.  No burn-in is the
    default, unlike the CLI's 1000 of 11000, so ``iterations=2`` is valid.
    ``alpha_prior`` is the (shape, rate) of the gamma hyperprior on the
    mass parameter; pass None to keep the mass fixed at ``alpha0``.
    """

    mu0: float | Sequence[float] | None = None
    c: float = 0.5
    a: float = 2.0
    b: float | Sequence[float] | None = None
    alpha0: float = 1.0
    alpha_prior: tuple[float, float] | None = (1.0, 1.0)
    iterations: int = 1000
    burn_in: int = 0
    seed: int = 0

    def __post_init__(self):
        # Each message names its fields, which the CLI spells as options.
        for name in ("mu0", "c", "a", "b", "alpha0", "alpha_prior"):
            value = getattr(self, name)
            if value is None:
                continue
            value = np.asarray(value, dtype=np.float64)
            if name in ("c", "a", "alpha0") and value.ndim:
                raise ValueError(f"{name} must be a single number")
            if name == "alpha_prior" and value.shape != (2,):
                raise ValueError("alpha_prior must be a (shape, rate) pair")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            if name != "mu0" and (value <= 0).any():
                raise ValueError(f"{name} must be positive")
        for name in ("iterations", "burn_in", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.seed < 0:
            raise ValueError(f"seed ({self.seed}) must be >= 0")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError(f"burn_in ({self.burn_in}) must be >= 0 and "
                             f"below iterations ({self.iterations})")


class _GibbsState:
    """The seating, held in Python lists with one entry per slot, plus the
    per-count tables of the log marginal: entry m of ``prefactor``, ``a_n``
    and ``g`` is for a cluster of m + 1 items.

    Slots 0..k-1 are the clusters and slot k is the empty seat.  Per slot
    the state keeps the count and the cached log marginal (0 at the empty
    seat); per dimension, a list of the slots' sums s1 and a list of their
    ``b + s2/2``.  ``columns`` lists every per-slot list.  These lists are
    only ever changed in place, so each item holds its moves as one tuple
    per dimension, ``(s1, h, x1, xh)``: the dimension's two slot lists and
    the item's own two terms.  :meth:`log_joint` gives the trace's value.

    :meth:`sweep` runs :meth:`_sweep_1d` on one-column data and
    :meth:`_sweep_dims` otherwise.  Both give the same floats at D = 1; they
    share the slot bookkeeping, :meth:`_drop` and :meth:`_open`, and write
    only the arithmetic twice.
    """

    def __init__(self, data: Dataset, config: SamplerConfig):
        d, c, a = data.d, float(config.c), float(config.a)
        for name in ("mu0", "b"):
            value = np.asarray(getattr(config, name), dtype=np.float64).ravel()
            if value.size not in (1, d):
                raise ValueError(f"{name} holds {value.size} values; it must "
                                 f"hold 1 or D = {d}, one per data column")
            setattr(self, name, np.broadcast_to(value, (d,)))
        counts = np.arange(1, data.n + 1, dtype=np.float64)
        lgam = np.vectorize(math.lgamma)(a + counts / 2.0)
        # Size-dependent scalar part of the log marginal, per cluster count.
        self.prefactor = (
            d * (-counts / 2.0 * LOG_2PI
                 + 0.5 * (math.log(c) - np.log(c + counts))
                 + lgam - math.lgamma(a))
            + a * np.log(self.b).sum()
        ).tolist()
        self.a_n = (a + counts / 2.0).tolist()
        self.g = (0.5 / (c + counts)).tolist()
        self.labels = [-1] * data.n
        self.counts, self.logm = [0], [0.0]
        sums = [([0.0], [b]) for b in self.b.tolist()]
        self.columns = (self.counts, self.logm, *itertools.chain(*sums))
        x = data.points - self.mu0  # per item and dimension, x and x**2 / 2
        self.moves = [
            tuple((s1, h, x1, xh) for (s1, h), (x1, xh) in zip(sums, z))
            for z in np.stack([x, 0.5 * x * x], axis=-1).tolist()
        ]
        # CRP weights by cluster size: log n, with log alpha at size 0.
        self.log_crp = np.log(np.maximum(np.arange(data.n + 1), 1.0)).tolist()

    @property
    def k(self) -> int:
        return len(self.counts) - 1

    def set_alpha(self, alpha: float):
        self.log_crp[0] = math.log(alpha)

    def log_joint(self, alpha: float) -> float:
        """The seating's CRP log prior at ``alpha`` plus the clusters' log
        marginal likelihoods."""
        value = (math.lgamma(alpha) - math.lgamma(alpha + len(self.labels))
                 + self.k * math.log(alpha))
        for size in self.counts[:-1]:
            value += math.lgamma(size)
        return value + sum(self.logm)

    def sweep(self, us: list):
        """Reseat the items in order, item i by the uniform draw ``us[i]``;
        an item at label -1 has no seat to leave.

        One-column data take :meth:`_sweep_1d`, which gives the same floats
        as :meth:`_sweep_dims` with no per-dimension loop.  On the galaxy
        data it takes about 15% less CPU time per sweep, and the sweep is
        about 88% of a galaxy-pipeline repetition.
        """
        if len(self.moves[0]) == 1:  # one tuple per dimension
            self._sweep_1d(us)
        else:
            self._sweep_dims(us)

    def _drop(self, s: int):
        """Slot s has emptied: move the last cluster into it and relabel."""
        last = len(self.counts) - 2
        for column in self.columns:
            column[s] = column[last]
            del column[last]
        if s != last:
            self.labels[:] = [s if j == last else j for j in self.labels]

    def _open(self):
        """The empty seat became a cluster: a copy of it follows."""
        for column in self.columns:
            column.append(column[-1])

    def _sweep_dims(self, us: list):
        """:meth:`sweep` at any D: one pass over the seats per dimension."""
        counts, labels, logm = self.counts, self.labels, self.logm
        crp, log, exp = self.log_crp, math.log, math.exp
        g, pre, a_n = self.g, self.prefactor, self.a_n
        for i, (moves, u) in enumerate(zip(self.moves, us)):
            s = labels[i]
            if s >= 0:  # rescore the slot left, or move the last cluster into it
                n = counts[s] = counts[s] - 1
                for s1, h, x1, xh in moves:
                    s1[s] -= x1
                    h[s] -= xh
                if n:  # its log marginal, summed as the seat weights are
                    t, gn = 0.0, g[n - 1]
                    for s1, h, _, _ in moves:
                        t += log(h[s] - s1[s] * s1[s] * gn)
                    logm[s] = pre[n - 1] - a_n[n - 1] * t
                else:
                    self._drop(s)
            # Each seat's log rate with item i added, bar the last dimension's.
            t = [0.0] * len(counts)
            for s1, h, x1, xh in moves[:-1]:
                t = [
                    p + log((hj + xh) - (sj + x1) * (sj + x1) * g[c])
                    for p, sj, hj, c in zip(t, s1, h, counts)
                ]
            s1, h, x1, xh = moves[-1]
            logw = [
                pre[c]
                - a_n[c] * (p + log((hj + xh) - (sj + x1) * (sj + x1) * g[c]))
                - old + crp[c]
                for c, p, sj, hj, old in zip(counts, t, s1, h, logm)
            ]
            top, total = max(logw), 0.0
            cum = [total := total + exp(w - top) for w in logw]
            choice = bisect.bisect_left(cum, u * total)
            if choice == len(counts) - 1:
                self._open()
            labels[i] = choice
            n, t = counts[choice], 0.0  # the seat's log marginal, summed as in logw
            counts[choice] = n + 1
            for s1, h, x1, xh in moves:
                sc = s1[choice] = s1[choice] + x1
                hc = h[choice] = h[choice] + xh
                t += log(hc - sc * sc * g[n])
            logm[choice] = pre[n] - a_n[n] * t

    def _sweep_1d(self, us: list):
        """:meth:`sweep` at D = 1, bit for bit :meth:`_sweep_dims`: there a
        log rate L enters as ``0.0 + L``, which equals L because ``log``
        never returns -0.0."""
        counts, labels, logm = self.counts, self.labels, self.logm
        crp, log, exp = self.log_crp, math.log, math.exp
        g, pre, a_n = self.g, self.prefactor, self.a_n
        for i, (((s1, h, x1, xh),), u) in enumerate(zip(self.moves, us)):
            s = labels[i]
            if s >= 0:
                n = counts[s] = counts[s] - 1
                s1[s] -= x1
                h[s] -= xh
                if n:
                    logm[s] = pre[n - 1] - a_n[n - 1] * log(
                        h[s] - s1[s] * s1[s] * g[n - 1])
                else:
                    self._drop(s)
            logw = [
                pre[c] - a_n[c] * log((hj + xh) - (v := sj + x1) * v * g[c])
                - old + crp[c]
                for c, sj, hj, old in zip(counts, s1, h, logm)
            ]
            top, total = max(logw), 0.0
            cum = [total := total + exp(w - top) for w in logw]
            choice = bisect.bisect_left(cum, u * total)
            if choice == len(counts) - 1:
                self._open()
            labels[i] = choice
            n = counts[choice]
            counts[choice] = n + 1
            sc = s1[choice] = s1[choice] + x1
            hc = h[choice] = h[choice] + xh
            logm[choice] = pre[n] - a_n[n] * log(hc - sc * sc * g[n])


def _update_alpha(
    alpha: float,
    k: int,
    n: int,
    prior: tuple[float, float],
    rng: np.random.Generator,
) -> float:
    """Beta-augmentation refresh of the DP mass under a gamma prior."""
    shape0, rate0 = prior
    eta = rng.beta(alpha + 1.0, n)
    rate = rate0 - math.log(eta)
    odds = (shape0 + k - 1.0) / (n * rate)
    shape = shape0 + k if rng.random() < odds / (1.0 + odds) else shape0 + k - 1.0
    return float(rng.gamma(shape, 1.0 / rate))


def gibbs_run(
    data: Dataset, config: SamplerConfig, trace: list | None = None
) -> DrawMatrix:
    """Run the collapsed sampler and return post-burn-in partition draws.

    Items are seated sequentially by the prior predictive to initialize,
    then ``config.iterations`` full sweeps in item order are performed; the
    partition after each post-burn-in sweep becomes one row of the result.
    Passing a list as ``trace`` appends one (sweep, cluster_count, alpha,
    log_joint) tuple per sweep, burn-in included; ``log_joint`` is the CRP
    log prior at that alpha plus the clusters' log marginal likelihoods.
    """
    config = replace(  # None is the data's; checked again, so b = 0 fails
        config, mu0=data.points.mean(axis=0) if config.mu0 is None else config.mu0,
        b=data.points.var(axis=0, ddof=1) if config.b is None else config.b)
    state = _GibbsState(data, config)
    rng = np.random.default_rng(config.seed)
    alpha = float(config.alpha0)
    state.set_alpha(alpha)
    state.sweep(rng.random(data.n).tolist())
    kept = np.empty((config.iterations - config.burn_in, data.n), np.int32)
    for sweep in range(config.iterations):
        state.sweep(rng.random(data.n).tolist())
        if config.alpha_prior is not None:
            alpha = _update_alpha(alpha, state.k, data.n, config.alpha_prior, rng)
            state.set_alpha(alpha)
        if trace is not None:
            trace.append((sweep, state.k, alpha, state.log_joint(alpha)))
        if sweep >= config.burn_in:
            kept[sweep - config.burn_in] = state.labels
    return DrawMatrix(kept)


EXAMPLE_LOCATIONS = np.array(
    [[2.0, 2.0], [2.0, -2.0], [-2.0, 2.0], [-2.0, -2.0]]
)
EXAMPLE_SCALES = {
    "example1": np.array([1.0, 1.0, 1.0, 1.0]),
    "example2": np.array([1.0, 1.5, 0.5, 1.0]),
}


def simulate_example(
    which: str, n: int, seed: int = 0
) -> tuple[Dataset, Partition]:
    """Draw n points from one of the two bundled four-component mixtures.

    Components sit at (+-2, +-2) with equal weights.  In ``example1`` every
    component has unit standard deviation; in ``example2`` the spreads are
    1 in the first and third quadrants, 1.5 in the fourth and 0.5 in the
    second.  Returns the data and the true component partition.
    """
    if which not in EXAMPLE_SCALES:
        raise ValueError(f"unknown example {which!r}")
    if n < 4:
        raise ValueError("need n >= 4")
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, 4, size=n)
    noise = rng.standard_normal((n, 2))
    pts = EXAMPLE_LOCATIONS[comp] + EXAMPLE_SCALES[which][comp, None] * noise
    return Dataset(pts), canonicalize(comp)


def load_galaxy() -> Dataset:
    """The bundled 82 galaxy velocities (km/sec)."""
    path = resources.files("postclust.data").joinpath("galaxies.csv")
    with path.open("r", encoding="utf-8") as fh:
        return Dataset(np.loadtxt(fh))
