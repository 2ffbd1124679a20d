"""The three workloads, run stage by stage through ``postclust.cli.main``.

One repetition runs every CLI stage of a workload once, on inputs written
during set-up.  The benchmark repeats the workload until its time is up.

The speed of the shared machine changes by 10-20% from one tenth of a
second to the next and by up to 60% over minutes, more than the bounds
allow, so the wall time of a repetition cannot be compared across runs.
Each timed repetition therefore runs at the same time as a repetition of
the same stages by ``frozen``, a copy of the package as it was when the
benchmark was written, which no later change touches.  The two run in two
threads of this process, pinned to one CPU, so they take turns every few
milliseconds and see the same machine speed; each is timed by its thread's
CPU time.  The ratio of the two CPU times cancels the machine's speed.
``pipeline_s`` is the median ratio over the run times the frozen copy's
CPU time on the baseline machine (``FROZEN_S``), so it reads as seconds on
that machine.  The two threads of a pair start together; the one that
finishes first waits for the other.
"""

import json
import os
import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from postclust import cli, load_draws

from . import checks, inputs
from .frozen import cli as frozen_cli
from .tracing import Tracer, Wrapping, layer_metrics, self_times

ALPHA = 0.05
GALAXY_SWEEPS = 400
GALAXY_BURN_IN = 100
GALAXY_N = 82
CHILD_TIMEOUT_S = 170  # longest wait for the other thread of a pair
# CPU seconds of a repetition by ``frozen`` alone on the baseline machine
# (2 shared vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6), seed 1.
FROZEN_S = {
    "galaxy-pipeline": 2.1,
    "example2-vi-best": 1.9,
    "example2-binder-last": 2.7,
}


@dataclass(frozen=True)
class Workload:
    name: str
    metric: str
    init: str
    samples: bool  # runs ``postclust sample`` first
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("galaxy-pipeline", "vi", "best", True,
                 "sample -> estimate -> ball on the galaxy data; the Gibbs "
                 "sampler dominates, so sampler changes show here"),
        Workload("example2-vi-best", "vi", "best", False,
                 "the CLI's default estimate on an example2 posterior; scoring "
                 "every draw in best_sampled dominates"),
        Workload("example2-binder-last", "binder", "last", False,
                 "Binder search from the last draw, 15 greedy moves; "
                 "neighbour generation and Binder losses dominate"),
    )
}


@dataclass
class Rep:
    """One repetition: per-stage wall times and the files it wrote."""

    attempted: int = 0
    stage_s: dict[str, float] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)  # stage -> reason
    outputs: dict[str, Path] = field(default_factory=dict)  # stage -> file
    center: str | None = None
    tracer: Tracer | None = None

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


def stage_argv(workload: Workload, stage: str, files: dict, seed: int,
               center: str | None = None) -> list[str]:
    if stage == "sample":
        return ["sample", str(files["data"]), str(files["draws"]),
                "--iterations", str(GALAXY_SWEEPS), "--burn-in", str(GALAXY_BURN_IN),
                "--seed", str(seed)]
    if stage == "estimate":
        return ["estimate", str(files["draws"]), "--metric", workload.metric,
                "--estimator", "exact", "--init", workload.init,
                "--out", str(files["estimate"])]
    return ["ball", str(files["draws"]), center, "--metric", workload.metric,
            "--alpha", repr(ALPHA), "--out", str(files["ball"])]


def run_rep(workload: Workload, files: dict, seed: int,
            tracer: Tracer | None = None, main=cli.main,
            clock=time.perf_counter) -> Rep:
    """Run the workload's CLI stages once, timing each ``main`` call by ``clock``."""
    rep = Rep(tracer=tracer)
    stages = (["sample"] if workload.samples else []) + ["estimate", "ball"]
    rep.attempted = len(stages)
    for stage in stages:
        if stage == "ball" and rep.center is None:
            rep.failed[stage] = "no estimate to centre the ball on"
            continue
        argv = stage_argv(workload, stage, files, seed, rep.center)
        span = tracer.open(f"cli.{stage}", "bench") if tracer else None
        start = clock()
        try:
            code = main(argv)
        except Exception as exc:
            code = exc
        rep.stage_s[stage] = clock() - start
        if tracer:
            tracer.close(span)
        if isinstance(code, Exception):  # a crash is a failed call, not a failed benchmark
            code = "".join(traceback.format_exception(code, limit=3))
        if code != 0:
            rep.failed[stage] = f"exit {code}"
            continue
        if stage == "estimate":
            try:
                rep.center = json.loads(files["estimate"].read_text())["labels"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rep.failed[stage] = f"unreadable estimate: {exc!r}"
                continue
        rep.outputs[stage] = files["draws" if stage == "sample" else stage]
    return rep


@dataclass
class Checker:
    """Checks each distinct output once; repeats must hash to a checked file."""

    workload: Workload
    draws_path: Path
    verified: dict[str, str] = field(default_factory=dict)  # stage -> sha256
    hashes: dict[str, set] = field(default_factory=dict)
    draws: object = None
    final_loss: float | None = None
    loss_ratio: float | None = None  # final_loss over the best draw's

    def check(self, rep: Rep):
        for stage, path in rep.outputs.items():
            digest = checks.sha256(path)
            self.hashes.setdefault(stage, set()).add(digest)
            if self.verified.get(stage) == digest:
                continue
            try:
                problems = self._problems(stage, path, rep.center)
            except Exception:  # an unreadable output fails its stage
                problems = [traceback.format_exc(limit=3)]
            if problems:
                rep.failed[stage] = "; ".join(problems)
            else:
                self.verified[stage] = digest

    def _problems(self, stage: str, path: Path, center: str) -> list[str]:
        if stage == "sample" or self.draws is None:
            self.draws = load_draws(self.draws_path)
        if stage == "sample":
            return checks.check_draws(self.draws, GALAXY_SWEEPS - GALAXY_BURN_IN,
                                      GALAXY_N)
        payload = json.loads(path.read_text())
        if stage == "estimate":
            problems = checks.check_estimate(payload, self.draws, self.workload.metric)
            if not problems:
                metric = self.workload.metric
                self.final_loss = checks.exact_loss(payload["labels"], self.draws, metric)
                self.loss_ratio = self.final_loss / checks.best_draw_loss(self.draws, metric)
            return problems
        return checks.check_ball(payload, self.draws, center, self.workload.metric,
                                 ALPHA)


def frozen_files(workload: Workload, files: dict) -> dict:
    """Where ``frozen`` writes, so that it never overwrites the package's files."""
    out = {stage: files[stage].with_name("frozen-" + files[stage].name)
           for stage in ("estimate", "ball")}
    if workload.samples:
        out["draws"] = files["draws"].with_name("frozen-" + files["draws"].name)
    return dict(files, **out)


def pin_to_one_cpu():
    """Keep this process, and the threads it starts from now on, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def paired_reps(workload: Workload, files: dict, seed: int, deadline: float,
                checker: Checker, problems: list[str]) -> tuple[list[Rep], list[Rep]]:
    """Repetitions of the package in this thread, each at once with one of ``frozen``.

    Both threads must be on one CPU (see ``pin_to_one_cpu``).  Stage times
    are the threads' CPU times.  Returns the package's repetitions and
    ``frozen``'s, pair by pair.
    """
    barrier = threading.Barrier(2, timeout=CHILD_TIMEOUT_S)
    live: list[Rep] = []
    frozen: list[Rep] = []
    stop = False

    def frozen_loop():
        ffiles = frozen_files(workload, files)
        try:
            while True:
                barrier.wait()  # the start of a pair, or the stop
                if stop:
                    return
                rep = run_rep(workload, ffiles, seed, main=frozen_cli.main,
                              clock=time.thread_time)
                frozen.append(rep)
                if rep.failed:
                    problems.extend(f"frozen {stage}: {why}"
                                    for stage, why in rep.failed.items())
                    barrier.abort()
                    return
                barrier.wait()  # the end of the pair
        except threading.BrokenBarrierError:  # this thread's pair partner gave up
            pass
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            problems.append(f"frozen: {exc!r}")
            barrier.abort()

    thread = threading.Thread(target=frozen_loop, name="frozen")
    thread.start()
    took: list[float] = []
    try:
        # Start a pair only if a typical one still ends before the deadline.
        while not took or time.perf_counter() + statistics.median(took) < deadline:
            barrier.wait()  # the start of the pair
            started = time.perf_counter()
            rep = run_rep(workload, files, seed, clock=time.thread_time)
            live.append(rep)
            checker.check(rep)
            barrier.wait()  # the end of the pair
            took.append(time.perf_counter() - started)
        stop = True
        barrier.wait()
    except threading.BrokenBarrierError:
        problems.append("frozen: its repetitions ended early")
    finally:
        barrier.abort()
        thread.join()
    return live, frozen[: len(live)]


def measure(workload: Workload, files: dict, seed: int, seconds: float,
            traced: bool) -> dict:
    """Repeat the workload for ``seconds`` and summarise the repetitions.

    The first repetition runs alone, as a warm-up whose peak memory is
    taken.  Without ``traced``, the rest run in pairs with ``frozen`` (see
    the module's docstring).  With ``traced``, untraced and traced
    repetitions alternate, so the tracing overhead is measured on the same
    machine state.
    """
    checker = Checker(workload, files["draws"])
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    warm_up = run_rep(workload, files, seed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker.check(warm_up)
    plain: list[Rep] = [warm_up]
    with_trace: list[Rep] = []
    frozen: list[Rep] = []
    if traced:
        took: list[float] = []
        # Start a repetition only if a typical one still ends before the deadline.
        while (len(plain) < 2 or not with_trace
               or time.perf_counter() + statistics.median(took) < deadline):
            started = time.perf_counter()
            if len(with_trace) < len(plain):
                tracer = Tracer()
                with Wrapping(tracer):
                    rep = run_rep(workload, files, seed, tracer)
                with_trace.append(rep)
            else:
                rep = run_rep(workload, files, seed)
                plain.append(rep)
            checker.check(rep)
            took.append(time.perf_counter() - started)
        timed = plain
    else:
        pin_to_one_cpu()
        timed, frozen = paired_reps(workload, files, seed, deadline, checker, problems)
        plain += timed

    ratios = [r.pipeline_s / f.pipeline_s for r, f in zip(timed, frozen)]
    layers = traced_layers(with_trace, plain, checker, problems) if traced else None
    reps = plain + with_trace
    problems += sorted({f"{stage}: {why}" for r in reps for stage, why in r.failed.items()})
    return {
        "reps": len(timed),
        "traced_reps": len(with_trace),
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(len(r.failed) for r in reps),
        "problems": problems,
        "sha256": {stage: sorted(h) for stage, h in checker.hashes.items()},
        "warm_up_s": warm_up.pipeline_s,
        "cpu_s": statistics.median(r.pipeline_s for r in timed),
        "frozen_cpu_s": statistics.median(f.pipeline_s for f in frozen) if frozen else None,
        "ratios": ratios,
        "pipeline_s": FROZEN_S[workload.name] * statistics.median(ratios) if ratios else None,
        "peak_rss_mb": peak_mb,
        "stage_s": {stage: statistics.median(r.stage_s.get(stage, 0.0) for r in timed)
                    for stage in timed[0].stage_s},
        "final_loss": checker.final_loss or 0.0,
        "loss_ratio": checker.loss_ratio or 0.0,
        "layers": layers,
    }


def traced_layers(reps: list[Rep], plain: list[Rep], checker: Checker,
                  problems: list[str]) -> dict:
    """Per-layer medians over traced repetitions, plus the tracing overhead.

    Appends to ``problems`` when the span self times do not add up to the
    traced stage times.
    """
    per_rep = []
    for rep in reps:
        spans = rep.tracer.spans
        own = sum(self_times(spans))
        roots = sum(s.duration for s in spans if s.parent < 0)
        if abs(own - roots) > 1e-9 * max(roots, 1.0):
            problems.append(f"trace: self times sum to {own}, stages to {roots}")
        per_rep.append(layer_metrics(rep.tracer))
    layers = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    traced_s = statistics.median(r.pipeline_s for r in reps)
    plain_s = statistics.median(r.pipeline_s for r in plain)
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    shape = inputs.draws_shape(checker.draws.draws) if checker.draws is not None else {}
    layers["posterior.distinct_draws"] = shape.get("distinct_draws", 0)
    layers["posterior.draws_k_mean"] = shape.get("k_mean", 0.0)
    return layers
