"""Collapsed Gibbs sampler for a Dirichlet-process mixture of normals.

The observation model is a DP mixture of D-dimensional normals with
diagonal covariance; the base measure is an independent normal-inverse-
gamma prior per dimension (mean mu0 with precision multiplier c, variance
with shape a and rate b), so cluster parameters integrate out in closed
form.  Items are reassigned one at a time: an existing cluster attracts an
item with weight proportional to its size times the posterior-predictive
density, and a new cluster with weight proportional to the mass parameter
times the prior-predictive density.  The mass parameter either stays fixed
or is refreshed once per sweep under a gamma hyperprior via the usual
beta-augmentation step.

Clusters keep sums s1, s2 of the data centred at mu0, so the posterior rate
is ``b + s2/2 - s1**2 / (2 (c + n))``; each reassignment evaluates the
cluster the item left and every candidate seat in one vectorised call.

One partition is recorded per post-burn-in sweep, giving the ``DrawMatrix``
consumed by the summary tools.
"""

import bisect
import itertools
import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

from .partition import Partition, canonicalize
from .posterior import DrawMatrix

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

    ``iterations`` counts all sweeps including burn-in; the recorded chain
    has ``iterations - burn_in`` rows.  ``alpha_prior`` is the (shape, rate)
    of the gamma hyperprior on the mass parameter; pass None to keep the
    mass fixed at ``alpha0``.
    """

    mu0: float | Sequence[float] = 0.0
    c: float = 1.0
    a: float = 1.0
    b: float | Sequence[float] = 1.0
    alpha0: float = 1.0
    alpha_prior: tuple[float, float] | None = (1.0, 1.0)
    iterations: int = 1000
    burn_in: int = 0
    seed: int = 0

    def __post_init__(self):
        for name in ("mu0", "c", "a", "b", "alpha0", "alpha_prior"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(
                np.asarray(value, dtype=np.float64)
            ).all():
                raise ValueError(f"{name} must be finite")
        if self.c <= 0 or self.a <= 0:
            raise ValueError("c and a must be positive")
        if np.any(np.asarray(self.b, dtype=np.float64) <= 0):
            raise ValueError("b must be positive")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.alpha_prior is not None and (
            self.alpha_prior[0] <= 0 or self.alpha_prior[1] <= 0
        ):
            raise ValueError("alpha_prior components must be positive")
        if self.burn_in < 0 or self.iterations <= self.burn_in:
            raise ValueError("need iterations > burn_in >= 0")


class _Model:
    """Prepared hyperparameters plus lookup tables for fast marginals."""

    def __init__(self, config: SamplerConfig, d: int, n_max: int):
        self.c = float(config.c)
        self.a = float(config.a)
        self.mu0 = np.broadcast_to(
            np.asarray(config.mu0, dtype=np.float64), (d,)
        ).copy()
        self.b = np.broadcast_to(
            np.asarray(config.b, dtype=np.float64), (d,)
        ).copy()
        self.d = d
        counts = np.arange(n_max + 2, dtype=np.float64)
        lgam = np.vectorize(math.lgamma)(self.a + counts / 2.0)
        # Size-dependent scalar part of the log marginal, per cluster count.
        self.prefactor = (
            d
            * (
                -counts / 2.0 * LOG_2PI
                + 0.5 * (math.log(self.c) - np.log(self.c + counts))
                + lgam
                - math.lgamma(self.a)
            )
            + self.a * np.log(self.b).sum()
        )
        self.a_n = self.a + counts / 2.0
        self.g = (0.5 / (self.c + counts))[:, None]

    def log_marginal_stats(
        self, n: np.ndarray, stats: np.ndarray
    ) -> np.ndarray:
        """Log marginal likelihood from centred sufficient statistics.

        ``n`` has shape (k,); row j of ``stats`` (shape (k, 2d)) holds the
        per-dimension sums s1 of cluster j's points minus mu0, then
        ``b + s2/2`` with s2 the sums of their squares.
        """
        s1, half_s2 = stats[:, : self.d], stats[:, self.d :]
        rate = half_s2 - s1 * s1 * self.g[n]
        return self.prefactor[n] - self.a_n[n] * np.log(rate).sum(axis=1)

    def item_stats(self, points: np.ndarray) -> np.ndarray:
        """Per-item rows [x - mu0, (x - mu0)**2 / 2], summed into ``stats``."""
        x = points - self.mu0
        return np.hstack([x, 0.5 * x * x])


def log_marginal(cluster_points, config: SamplerConfig) -> float:
    """Exact log marginal likelihood of one cluster's observations."""
    pts = np.asarray(cluster_points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise ValueError("empty cluster")
    model = _Model(config, pts.shape[1], pts.shape[0])
    stats = model.item_stats(pts).sum(axis=0, keepdims=True)
    stats[:, model.d :] += model.b
    n = np.array([pts.shape[0]])
    return float(model.log_marginal_stats(n, stats)[0])


def crp_log_prior(partition: Partition, alpha: float) -> float:
    """Log prior mass of a partition under the CRP with the given mass."""
    n = partition.n_items
    value = (
        math.lgamma(alpha)
        - math.lgamma(alpha + n)
        + partition.k * math.log(alpha)
    )
    for size in partition.sizes:
        value += math.lgamma(size)
    return value


class _GibbsState:
    """Per-slot counts, centred sums and log marginals of the seating.
    :meth:`assign` recomputes ``logm[stale]``, the slot :meth:`remove` last
    left (or the empty slot), in one call with the candidate seats."""

    def __init__(self, data: Dataset, model: _Model):
        cap = data.n + 1
        self.z = model.item_stats(data.points)
        self.model = model
        self.labels = np.full(data.n, -1, dtype=np.int32)
        self.counts = np.zeros(cap, dtype=np.int64)
        self.empty = np.concatenate([np.zeros(data.d), model.b])
        self.stats = np.tile(self.empty, (cap, 1))
        self.logm = np.zeros(cap)
        self.rows = np.empty((cap + 1, 2 * data.d))
        self.n_rows = np.empty(cap + 1, dtype=np.int64)
        # CRP weights by cluster size: log n, with log alpha at size 0.
        self.log_crp = np.log(np.maximum(np.arange(cap), 1.0))
        self.k = self.stale = 0

    def set_alpha(self, alpha: float):
        self.log_crp[0] = math.log(alpha)

    def remove(self, i: int):
        s = self.labels[i]
        self.counts[s] -= 1
        self.stats[s] -= self.z[i]
        self.stale = s
        if self.counts[s] == 0:
            last = self.k - 1
            if s != last:
                self.counts[s] = self.counts[last]
                self.stats[s] = self.stats[last]
                self.logm[s] = self.logm[last]
                self.labels[self.labels == last] = s
            self.counts[last] = 0
            self.stats[last] = self.empty
            self.logm[last] = 0.0
            self.k = self.stale = last
        self.labels[i] = -1

    def assign(self, i: int, u: float):
        """Seat item i given the others, using the uniform draw u."""
        k, rows, n_rows = self.k, self.rows, self.n_rows
        np.add(self.stats[: k + 1], self.z[i], out=rows[: k + 1])
        np.add(self.counts[: k + 1], 1, out=n_rows[: k + 1])
        rows[k + 1] = self.stats[self.stale]
        n_rows[k + 1] = self.counts[self.stale]
        logm = self.model.log_marginal_stats(
            n_rows[: k + 2], rows[: k + 2]
        )
        self.logm[self.stale] = logm[k + 1]
        logw = logm[: k + 1] - self.logm[: k + 1]
        # At the usual handful of clusters, Python floats beat numpy calls.
        logw = (logw + self.log_crp[self.counts[: k + 1]]).tolist()
        top = max(logw)
        cum = list(itertools.accumulate([math.exp(w - top) for w in logw]))
        choice = bisect.bisect_left(cum, u * cum[-1])
        self.labels[i] = choice
        self.counts[choice] += 1
        self.stats[choice] = rows[choice]
        self.logm[choice] = logm[choice]
        if choice == k:
            self.k += 1


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
    Passing a list as ``trace`` appends one (sweep, cluster_count, alpha)
    tuple per sweep, burn-in included.
    """
    model = _Model(config, data.d, data.n)
    rng = np.random.default_rng(config.seed)
    state = _GibbsState(data, model)
    alpha = float(config.alpha0)
    state.set_alpha(alpha)
    for i, u in enumerate(rng.random(data.n).tolist()):
        state.assign(i, u)
    kept = np.empty(
        (config.iterations - config.burn_in, data.n), dtype=np.int32
    )
    for sweep in range(config.iterations):
        for i, u in enumerate(rng.random(data.n).tolist()):
            state.remove(i)
            state.assign(i, u)
        if config.alpha_prior is not None:
            alpha = _update_alpha(
                alpha, state.k, data.n, config.alpha_prior, rng
            )
            state.set_alpha(alpha)
        if trace is not None:
            trace.append((sweep, state.k, alpha))
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
