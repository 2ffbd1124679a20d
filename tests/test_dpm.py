"""Sampler checks: exact posterior, the trace's log joint, pinned chains,
and the one-column sweep against the general one.

The sampler's log marginals are checked against ``sequential_predictive``
and its CRP weights against ``crp_log_prior``, both written here from the
definitions and sharing no code with the sampler.
"""

import hashlib
import math

import numpy as np
import pytest

from postclust import (
    Dataset,
    SamplerConfig,
    SearchConfig,
    canonicalize,
    cli,
    gibbs_run,
    load_galaxy,
    simulate_example,
)
from postclust.dpm import _GibbsState, _update_alpha

from conftest import all_partitions, partition_index


def t_logpdf(x, nu, loc, scale2):
    z = (x - loc) ** 2 / (nu * scale2)
    return (
        math.lgamma((nu + 1) / 2)
        - math.lgamma(nu / 2)
        - 0.5 * math.log(nu * math.pi * scale2)
        - (nu + 1) / 2 * math.log1p(z)
    )


def sequential_predictive(points, config):
    """Log marginal by the chain rule over Student-t posterior predictives."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    d = pts.shape[1]
    mu0 = np.broadcast_to(np.asarray(config.mu0, dtype=np.float64), (d,))
    b0 = np.broadcast_to(np.asarray(config.b, dtype=np.float64), (d,))
    total = 0.0
    for j in range(d):
        c, mu, a, b = config.c, mu0[j], config.a, b0[j]
        for x in pts[:, j]:
            total += t_logpdf(x, 2 * a, mu, b * (c + 1) / (a * c))
            b += c * (x - mu) ** 2 / (2 * (c + 1))
            mu = (c * mu + x) / (c + 1)
            c += 1
            a += 0.5
    return total


def crp_log_prior(labels, alpha):
    """Log CRP mass of a labelling: items are seated in order, item i
    opening a cluster with probability alpha / (alpha + i) and joining one
    of n items with probability n / (alpha + i)."""
    seated, total = {}, 0.0
    for i, lab in enumerate(labels):
        n = seated.get(lab, 0)
        total += math.log(n or alpha) - math.log(alpha + i)
        seated[lab] = n + 1
    return total


def log_joint(labels, points, config, alpha):
    """CRP log prior plus every cluster's log marginal likelihood."""
    labels = np.asarray(labels)
    return crp_log_prior(labels.tolist(), alpha) + sum(
        sequential_predictive(np.asarray(points)[labels == lab], config)
        for lab in np.unique(labels)
    )


@pytest.mark.parametrize("call, message", [
    (lambda: Dataset(np.zeros((3, 2, 2))), "vector or a 2-D matrix"),
    (lambda: Dataset([1.5]), "at least 2 observations"),
    (lambda: simulate_example("example3", 10), "unknown example"),
    (lambda: simulate_example("example1", 3), "n >= 4"),
    (lambda: gibbs_run(Dataset([0.1, 0.5, 0.9]),
                       SamplerConfig(mu0=[1.0, 2.0], iterations=2)),
     "mu0 holds 2 values; it must hold 1 or D = 1"),
    (lambda: gibbs_run(Dataset(np.ones((3, 2))),
                       SamplerConfig(b=[1.0, 2.0, 3.0], iterations=2)),
     "b holds 3 values; it must hold 1 or D = 2"),
    (lambda: Dataset(np.ones((3, 0))), "no columns"),
    (lambda: gibbs_run(Dataset([[1.0, 2.0], [2.5, 2.0], [3.0, 2.0]]),
                       SamplerConfig()),
     "^b must be positive"),
    (lambda: SamplerConfig(c=[0.5, 1.0]), "^c must be a single number"),
    (lambda: SamplerConfig(a=[2.0]), "^a must be a single number"),
    (lambda: SamplerConfig(alpha0=np.ones((1, 1))),
     "alpha0 must be a single number"),
    (lambda: SamplerConfig(alpha_prior=1.0),
     r"alpha_prior must be a \(shape, rate\) pair"),
    (lambda: SamplerConfig(alpha_prior=(1.0, 1.0, 1.0)),
     r"alpha_prior must be a \(shape, rate\) pair"),
    (lambda: SamplerConfig(iterations=2.5), "^iterations must be an integer"),
    (lambda: SamplerConfig(iterations=10, burn_in=1.0),
     "^burn_in must be an integer"),
    (lambda: SamplerConfig(seed="1"), "^seed must be an integer"),
    (lambda: SamplerConfig(seed=-1), r"^seed \(-1\) must be >= 0"),
], ids=["3-D data", "one observation", "unknown example",
        "n below 4", "mu0 of wrong length", "b of wrong length", "no columns",
        "constant column",
        "c a list", "a a list", "alpha0 a matrix", "alpha_prior a number",
        "alpha_prior of three", "iterations a float", "burn_in a float",
        "seed a string", "negative seed"])
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestExactPosterior:
    POINTS = [-1.3, -1.0, 0.2, 1.4, 1.6]
    ALPHA = 1.5

    def config(self, seed):
        return SamplerConfig(
            mu0=0.0, c=0.5, a=2.0, b=0.5, alpha0=self.ALPHA,
            alpha_prior=None, iterations=5050, burn_in=50, seed=seed,
        )

    def total_variation(self, seed):
        """Total variation between the chain's partition frequencies and
        the exact posterior over all 52 partitions of the five points."""
        config = self.config(seed)
        logp = np.array([
            log_joint(p.labels, self.POINTS, config, self.ALPHA)
            for p in all_partitions(5)
        ])
        exact = np.exp(logp - logp.max())
        draws = gibbs_run(Dataset(self.POINTS), config).draws
        index = partition_index(5)
        freq = np.bincount(
            [index[canonicalize(row.tolist()).labels] for row in draws],
            minlength=len(all_partitions(5)),
        ) / draws.shape[0]
        return 0.5 * np.abs(freq - exact / exact.sum()).sum()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_total_variation_to_exact(self, seed):
        assert self.total_variation(seed) <= 0.06

    @pytest.mark.parametrize("seed", [1, 2])
    def test_detects_a_dropped_log_alpha(self, monkeypatch, seed):
        # a sampler that opens clusters at weight 1 instead of alpha fails
        # the bound above by a wide margin
        monkeypatch.setattr(_GibbsState, "set_alpha",
                            lambda self, alpha: self.log_crp.__setitem__(0, 0.0))
        assert self.total_variation(seed) > 0.1


class TestExactPosterior2D(TestExactPosterior):
    """The same two checks on five 2-D points, which take the general
    sweep: the first column is the 1-D points, the second the same values
    shifted by one item."""

    POINTS = [[-1.3, -1.0], [-1.0, 0.2], [0.2, 1.4], [1.4, 1.6], [1.6, -1.3]]


class TestOneColumnSweep:
    """The one-column loop against the general loop it stands for at D = 1:
    from the same state and uniform draws, every sweep leaves the same
    labels, counts, log marginals and sums, float for float."""

    @staticmethod
    def snapshot(state):
        (s1, h, _, _), = state.moves[0]
        return (list(state.labels), list(state.counts),
                *([v.hex() for v in column] for column in (state.logm, s1, h)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("alpha0, alpha_prior, b_scale, k_range", [
        (1.0, (1.0, 1.0), 1.0, (1, 12)),
        (2.0, None, 1.0, (1, 12)),
        (30.0, None, 1 / 50, (20, 45)),
        (30.0, (30.0, 1.0), 1 / 50, (15, 45)),
    ], ids=["gamma-small-k", "fixed-small-k", "fixed-large-k",
            "gamma-large-k"])
    def test_same_state_after_every_sweep(self, seed, alpha0, alpha_prior,
                                          b_scale, k_range):
        data = load_galaxy()
        config = SamplerConfig(
            mu0=float(data.points.mean()),
            b=float(data.points.var(ddof=1)) * b_scale,
            alpha0=alpha0, alpha_prior=alpha_prior, seed=seed,
        )
        one, general = _GibbsState(data, config), _GibbsState(data, config)
        rng = np.random.default_rng(seed)
        alpha, ks = alpha0, []
        for _ in range(41):  # the initial seating, then 40 sweeps
            us = rng.random(data.n).tolist()
            one._sweep_1d(us)
            general._sweep_dims(us)
            assert self.snapshot(one) == self.snapshot(general)
            if alpha_prior is not None:
                alpha = _update_alpha(alpha, one.k, data.n, alpha_prior, rng)
            one.set_alpha(alpha)
            general.set_alpha(alpha)
            ks.append(one.k)
        assert k_range[0] <= np.mean(ks[1:]) <= k_range[1]


class TestAlphaUpdate:
    def test_leaves_mass_posterior_invariant(self):
        k, n, prior = 3, 20, (1.0, 1.0)
        # Quadrature of Gamma(a; 1, 1) a^k Gamma(a) / Gamma(a + n).
        grid = np.linspace(1e-6, 40.0, 40_001)
        log_dens = np.array([
            -a + k * math.log(a) + math.lgamma(a) - math.lgamma(a + n)
            for a in grid
        ])
        dens = np.exp(log_dens - log_dens.max())
        exact_mean = (grid * dens).sum() / dens.sum()
        assert exact_mean == pytest.approx(0.8431, abs=5e-4)

        rng = np.random.default_rng(7)
        alpha = 1.0
        chain = np.empty(20_000)
        for t in range(chain.size):
            alpha = _update_alpha(alpha, k, n, prior, rng)
            chain[t] = alpha
        batches = chain.reshape(100, 200).mean(axis=1)
        stderr = batches.std(ddof=1) / math.sqrt(batches.size)
        assert abs(chain.mean() - exact_mean) <= 4 * stderr


def _chain_sha(config, data=None):
    draws = gibbs_run(data or load_galaxy(), config).draws
    return hashlib.sha256(draws.astype(np.int64).tobytes()).hexdigest()


class TestChainPin:
    """Sha256 of 60-sweep galaxy chains, recorded before the sweep was
    vectorised; a faster sampler must reproduce the same label arrays."""

    @staticmethod
    def base():
        pts = load_galaxy().points
        return dict(
            mu0=float(pts.mean()), c=0.5, a=2.0,
            b=float(pts.var(ddof=1)), iterations=60,
        )

    @pytest.mark.parametrize("extra, digest", [
        (dict(seed=1),
         "744cf64175ba8f1a04e8887fbed646dd70a1286972979b3c557c3bbfd77b85f3"),
        (dict(seed=3, alpha_prior=None, alpha0=2.0),
         "26555322c2e55e5552db9e5d06238ac9f8acbea951945707e37c72fe4a5c7039"),
    ], ids=["gamma-prior", "fixed-alpha"])
    def test_chain_is_pinned(self, extra, digest):
        assert _chain_sha(SamplerConfig(**self.base(), **extra)) == digest


class TestChainPin2D:
    """Sha256 of a 40-sweep chain on a simulated example2 data set (N=60,
    D=2, gamma prior), recorded before the per-slot state moved from numpy
    arrays to Python floats; it pins the sum over dimensions."""

    @staticmethod
    def chain():
        data = simulate_example("example2", 60, seed=0)[0]
        return data, SamplerConfig(
            mu0=data.points.mean(axis=0), c=0.5, a=2.0,
            b=data.points.var(axis=0, ddof=1), iterations=40, seed=1,
        )

    def test_chain_is_pinned(self):
        data, config = self.chain()
        assert _chain_sha(config, data) == (
            "1542efeffdefc4b9c101220e65314cc16f4fba5043b6ec104620d45a2128e68c"
        )


class TestChainPin3D:
    """Sha256 of a 30-sweep chain on three seeded Gaussian blobs in D=3
    (N=45, gamma prior): two dimensions are summed before the last one."""

    def test_chain_is_pinned(self):
        rng = np.random.default_rng(5)
        centres = np.array([[0.0, 0.0, 0.0], [3.0, -2.0, 1.0],
                            [-2.0, 3.0, -3.0]])
        pts = centres[rng.integers(0, 3, 45)] + rng.normal(size=(45, 3))
        config = SamplerConfig(
            mu0=pts.mean(axis=0), c=0.5, a=2.0,
            b=pts.var(axis=0, ddof=1), iterations=30, seed=4,
        )
        assert _chain_sha(config, Dataset(pts)) == (
            "d3098c0965749d4f3a1bd6037c8416aa8119662a4730efed8d443df112513c49"
        )


class TestChainPinLargeK:
    """Sha256 of a 15-sweep chain at mean k about 33 (example2, N=200,
    fixed alpha 80, b a twentieth of the variance): clusters open and empty
    every sweep, so the relabel and the empty-seat copy both run often."""

    def test_chain_is_pinned(self):
        data = simulate_example("example2", 200, seed=0)[0]
        config = SamplerConfig(
            mu0=data.points.mean(axis=0), c=0.5, a=2.0,
            b=data.points.var(axis=0, ddof=1) / 20, alpha0=80.0,
            alpha_prior=None, iterations=15, seed=2,
        )
        assert _chain_sha(config, data) == (
            "60854e19d040d9682f002a82c3554cfd306c501a322366c2e0ed3bcad8861dd8"
        )


class TestChainPinLargeK1D:
    """Sha256 of a 60-sweep galaxy chain at mean k about 32 (fixed alpha 30,
    b a fiftieth of the variance), recorded before one-column data took
    their own sweep: it reaches that loop's cluster openings, emptied
    slots and relabels."""

    def test_chain_is_pinned(self):
        base = TestChainPin.base()
        config = SamplerConfig(**dict(base, b=base["b"] / 50), alpha0=30.0,
                               alpha_prior=None, seed=2)
        assert _chain_sha(config) == (
            "909e973829f4b89c5dacbf88524acacc0786a67dcd4fa3628197e80b827aef17"
        )


class TestTrace:
    @pytest.mark.parametrize("chain", [
        lambda: (load_galaxy(), SamplerConfig(**TestChainPin.base(), seed=2)),
        TestChainPin2D.chain,
    ], ids=["galaxy-d1", "example2-d2"])
    def test_log_joint_matches_a_fresh_evaluation(self, chain):
        data, config = chain()
        trace = []
        draws = gibbs_run(data, config, trace=trace)
        sweep, k, alpha, logp = trace[-1]
        last = draws.draws[-1]
        assert (sweep, k) == (config.iterations - 1, len(set(last.tolist())))
        assert logp == pytest.approx(
            log_joint(last, data.points, config, alpha), rel=1e-9
        )

    @pytest.mark.parametrize("shift", [1e3, -2.5e4])
    def test_joint_shift_of_data_and_mu0(self, rng, shift):
        # the model sees only x - mu0: the same chain and log joints
        pts = rng.normal(0.0, 1.5, size=(30, 2))
        runs = []
        for offset in (0.0, shift):
            config = SamplerConfig(mu0=[0.2 + offset, -0.4 + offset], c=0.7,
                                   a=2.0, b=[1.0, 0.5], iterations=20, seed=3)
            trace = []
            draws = gibbs_run(Dataset(pts + offset), config, trace=trace).draws
            runs.append((draws, [row[3] for row in trace]))
        (base, base_joint), (moved, moved_joint) = runs
        np.testing.assert_array_equal(moved, base)
        assert moved_joint == pytest.approx(base_joint, rel=1e-9)


class TestDefaultPrior:
    """The library and the CLI share one default prior: mu0 and b from the
    data, c, a and the mass settings from ``SamplerConfig``."""

    def test_library_default_is_the_cli_chain(self, tmp_path):
        data, out = tmp_path / "galaxy.csv", tmp_path / "draws.csv"
        galaxy = load_galaxy()
        np.savetxt(data, galaxy.points, fmt="%.17g", delimiter=",")
        assert cli.main(["sample", str(data), str(out), "--iterations", "60",
                         "--burn-in", "0", "--seed", "1"]) == 0
        draws = gibbs_run(galaxy, SamplerConfig(iterations=60, seed=1)).draws
        np.testing.assert_array_equal(
            draws, np.loadtxt(out, delimiter=",", dtype=np.int64))
        assert np.mean([len(set(row)) for row in draws.tolist()]) > 1

    def test_cli_defaults_are_the_class_defaults(self):
        parser = cli.build_parser()
        sample = parser.parse_args(["sample", "data.csv", "draws.csv"])
        assert cli._parse_hyper(sample.mu0, "mu0", "mean") is SamplerConfig.mu0
        assert cli._parse_hyper(sample.b, "b", "var") is SamplerConfig.b
        assert (sample.c, sample.a, sample.alpha0, sample.seed) == (
            SamplerConfig.c, SamplerConfig.a, SamplerConfig.alpha0,
            SamplerConfig.seed)
        assert not sample.fixed_alpha
        assert (sample.alpha_shape, sample.alpha_rate) == SamplerConfig.alpha_prior
        estimate = parser.parse_args(["estimate", "draws.csv"])
        assert (cli.ESTIMATORS[estimate.estimator], estimate.l,
                estimate.max_iters, estimate.init) == (
            SearchConfig.estimator, SearchConfig.l, SearchConfig.max_iters,
            SearchConfig.init)


class TestSamplerConfig:
    @pytest.mark.parametrize("field, value", [
        ("mu0", math.inf),
        ("mu0", [0.0, math.nan]),
        ("c", math.nan),
        ("a", math.inf),
        ("b", math.nan),
        ("b", [1.0, math.inf]),
        ("alpha0", math.nan),
        ("alpha_prior", (math.nan, 1.0)),
        ("alpha_prior", (1.0, math.inf)),
    ])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SamplerConfig(**{field: value})
