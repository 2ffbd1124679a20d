"""Outside-in tracing: spans around the calls one postclust module makes into the next.

Each wrapped name is replaced, in the module that calls it, by a function
that records a span (name, start, end, parent span) in memory and then
calls the original.  Nothing under ``src/`` changes.  A name that a later
version of the package no longer has is skipped, so it reports zero calls
instead of failing the run.

A span's self time is its duration minus the part of it that its child
spans cover, so the self times of all spans add up to the time of the
root spans, which the benchmark opens around each CLI stage.
"""

import importlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# (module whose binding is wrapped, name, layer the called function belongs to)
WRAPPED = (
    ("postclust.cli", "gibbs_run", "dpm"),
    ("postclust.cli", "load_draws", "posterior"),
    ("postclust.cli", "greedy_search", "search"),
    ("postclust.cli", "similarity_matrix", "posterior"),
    ("postclust.cli", "expected_vi", "posterior"),
    ("postclust.cli", "expected_binder", "posterior"),
    ("postclust.cli", "credible_ball", "ball"),
    ("postclust.cli", "ball_bounds", "ball"),
    ("postclust.search", "best_sampled", "posterior"),
    ("postclust.search", "closest_neighbors", "metrics"),
    ("postclust.search", "expected_loss", "posterior"),
    ("postclust.search", "similarity_matrix", "posterior"),
    ("postclust.posterior", "expected_loss", "posterior"),
    ("postclust.metrics", "canonicalize", "partition"),
)
LAYERS = ("cli", "dpm", "posterior", "search", "metrics", "partition", "ball")

# Every per-layer metric the traced run reports, with its unit.
UNITS = {f"{layer}.self_s": "s" for layer in LAYERS} | {
    "dpm.gibbs_run_s": "s",
    "dpm.sweep_ms": "ms",
    "dpm.sweeps": "count",
    "dpm.mean_k": "count",
    "dpm.ess_k": "count",
    "posterior.load_draws_s": "s",
    "posterior.similarity_matrix_s": "s",
    "posterior.similarity_matrix_calls": "count",
    "posterior.best_sampled_s": "s",
    "posterior.best_sampled_evals": "count",
    "posterior.expected_loss_calls": "count",
    "posterior.expected_loss_ms": "ms",
    "posterior.distinct_draws": "count",
    "posterior.draws_k_mean": "count",
    "metrics.closest_neighbors_s": "s",
    "metrics.closest_neighbors_calls": "count",
    "metrics.candidates": "count",
    "partition.canonicalize_s": "s",
    "partition.canonicalize_calls": "count",
    "search.greedy_search_s": "s",
    "search.iterations": "count",
    "search.moves": "count",
    "search.loss_evals": "count",
    "search.loss_s": "s",
    "search.cache_hit_ratio": "ratio",
    "ball.credible_ball_s": "s",
    "ball.ball_bounds_s": "s",
    "ball.members": "count",
    "ball.distinct_members": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    name: str  # "<layer>.<function>", or "cli.<stage>" for a root span
    site: str  # module whose binding was called, e.g. "search"
    start: float
    end: float = 0.0
    parent: int = -1  # index of the parent span, -1 for a root

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and counters of one traced pipeline repetition."""

    spans: list[Span] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    sweep_stamps: list[float] = field(default_factory=list)
    sweep_k: list[int] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str, site: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, site, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount


class _SweepClock(list):
    """The ``trace`` list handed to ``gibbs_run``: each append stamps a sweep."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def append(self, item):
        self.tracer.sweep_stamps.append(time.perf_counter())
        self.tracer.sweep_k.append(int(item[1]))
        super().append(item)


def _probe(tracer: Tracer, name: str, args, kwargs, result):
    """Counters read off a wrapped call's arguments and result."""
    if name == "metrics.closest_neighbors":
        tracer.count("metrics.candidates", len(result))
    elif name == "search.greedy_search":
        tracer.count("search.moves", getattr(result, "iterations_used", 0))
    elif name == "ball.credible_ball":
        members = np.asarray(getattr(result, "member_indices", ()), dtype=np.int64)
        tracer.count("ball.members", members.size)
        rows = getattr(args[1] if len(args) > 1 else None, "draws", None)
        if rows is not None and members.size:
            tracer.count("ball.distinct_members",
                         np.unique(rows[members], axis=0).shape[0])
    elif name == "dpm.gibbs_run":
        config = args[1] if len(args) > 1 else kwargs.get("config")
        tracer.counters["dpm.burn_in"] = getattr(config, "burn_in", 0)


class Wrapping:
    """Installs the tracing wrappers for one tracer and restores the originals.

    Use as a context manager; ``missing`` lists the names the package no
    longer has, which report zero calls.
    """

    def __init__(self, tracer: Tracer, wrapped=WRAPPED):
        self.tracer = tracer
        self.wrapped = wrapped
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, attr, layer in self.wrapped:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            site = module_name.rsplit(".", 1)[-1]
            setattr(module, attr, self._wrapper(original, f"{layer}.{attr}", site))
            self._saved.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrapper(self, original, name: str, site: str):
        tracer = self.tracer

        def traced(*args, **kwargs):
            if name == "dpm.gibbs_run" and kwargs.get("trace") is None:
                kwargs["trace"] = _SweepClock(tracer)
            idx = tracer.open(name, site)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            _probe(tracer, name, args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[idx], key=lambda c: spans[c].start):
            lo = max(spans[child].start, reach, span.start)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def ess(values) -> float:
    """Effective sample size by Geyer's initial positive sequence."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n < 4 or np.all(x == x[0]):
        return float(n)
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conjugate(f))[:n]
    acf /= acf[0]
    tau = -1.0
    for lag in range(0, n - 1, 2):
        pair = acf[lag] + acf[lag + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
    return float(n / max(tau, 1.0 / n))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = tracer.spans
    selfs = self_times(spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def calls(name, site=None):
        return sum(1 for s in spans if s.name == name and site in (None, s.site))

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        out[f"{span.layer}.self_s"] = out.get(f"{span.layer}.self_s", 0.0) + own

    stamps = tracer.sweep_stamps
    kept_k = tracer.sweep_k[int(tracer.counters.get("dpm.burn_in", 0)):]
    loss_spans = [s.duration for s in spans if s.name == "posterior.expected_loss"]
    candidates = tracer.counters.get("metrics.candidates", 0)
    loss_evals = calls("posterior.expected_loss", "search")
    out.update({
        "dpm.gibbs_run_s": total("dpm.gibbs_run"),
        "dpm.sweep_ms": (1e3 * statistics.median(np.diff(stamps))
                         if len(stamps) > 1 else 0.0),
        "dpm.sweeps": len(stamps),
        "dpm.mean_k": float(np.mean(kept_k)) if kept_k else 0.0,
        "dpm.ess_k": ess(kept_k) if kept_k else 0.0,
        "posterior.load_draws_s": total("posterior.load_draws"),
        "posterior.similarity_matrix_s": total("posterior.similarity_matrix"),
        "posterior.similarity_matrix_calls": calls("posterior.similarity_matrix"),
        "posterior.best_sampled_s": total("posterior.best_sampled"),
        "posterior.best_sampled_evals": calls("posterior.expected_loss", "posterior"),
        "posterior.expected_loss_calls": len(loss_spans),
        "posterior.expected_loss_ms": (1e3 * float(np.mean(loss_spans))
                                       if loss_spans else 0.0),
        "metrics.closest_neighbors_s": total("metrics.closest_neighbors"),
        "metrics.closest_neighbors_calls": calls("metrics.closest_neighbors"),
        "metrics.candidates": candidates,
        "partition.canonicalize_s": total("partition.canonicalize"),
        "partition.canonicalize_calls": calls("partition.canonicalize"),
        "search.greedy_search_s": total("search.greedy_search"),
        "search.iterations": calls("metrics.closest_neighbors", "search"),
        "search.moves": tracer.counters.get("search.moves", 0),
        "search.loss_evals": loss_evals,
        "search.loss_s": sum(s.duration for s in spans
                             if s.name == "posterior.expected_loss" and s.site == "search"),
        "search.cache_hit_ratio": 1.0 - loss_evals / candidates if candidates else 0.0,
        "ball.credible_ball_s": total("ball.credible_ball"),
        "ball.ball_bounds_s": total("ball.ball_bounds"),
        "ball.members": tracer.counters.get("ball.members", 0),
        "ball.distinct_members": tracer.counters.get("ball.distinct_members", 0),
    })
    return out
