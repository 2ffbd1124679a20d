"""Benchmark of the postclust ``sample -> estimate -> ball`` pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload example2-vi-best --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``pipeline.WORKLOADS``): ``galaxy-pipeline``,
``example2-vi-best`` and ``example2-binder-last``; ``all`` runs each in a
fresh process of its own.  The seed makes the inputs: the galaxy sampler
seed, or the chain of the generated example2 posterior.  Develop against
seed 1 and confirm a claim on seed 2, which no change should be tuned on.

Set-up (import the package, generate and write the inputs) runs in a fresh
process several times and ``setup_s`` is the median.  The workload then
repeats in this process for ``--seconds``.  With ``--trace 0`` the last
line of output holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of traced repetitions, which alternate with untraced
ones so that ``trace.overhead_frac`` compares like with like.  Every stage
output is checked; a stage that exits non-zero or fails its check counts as
failed.

The shared machine's speed drifts by more than the bounds allow, so the
end-to-end times are normalised to one fixed machine speed: ``pipeline_s``
by runs of a frozen copy of the package at the same time as the timed
repetitions (see ``pipeline``), ``setup_s`` by a speed probe (see
``speed``).  The times as measured are printed above the result.
"""

import os

# One thread per pool, before numpy is imported by anything.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
UNITS = {
    "pipeline_s": "s",
    "loss_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _commit() -> str:
    """The checked-out commit, read from ``.git`` inside the checkout only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
    }


def set_up(workload: str, seed: int, out: Path) -> tuple[dict, float, float]:
    """Write the inputs ``SETUP_REPEATS`` times, each in a fresh process.

    Returns the inputs' description and the median set-up time, normalised
    by the speed-probe samples each set-up process takes after its set-up,
    and not normalised.
    """
    from perfbench.speed import normalised

    times, norm_times = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.inputs", "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(info.pop("setup_s"))
        norm_times.append(normalised(times[-1], info.pop("kernel_s")))
    return info, statistics.median(norm_times), statistics.median(times)


def run_one(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    from perfbench import pipeline, tracing

    workload = pipeline.WORKLOADS[workload_name]
    work = ROOT / ".bench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        info, setup_s, setup_wall_s = set_up(workload_name, seed, work / "inputs")
        files = {
            "data": Path(info.get("data", "")),
            "draws": Path(info.get("draws", work / "draws.csv")),
            "estimate": work / "estimate.json",
            "ball": work / "ball.json",
        }
        summary = pipeline.measure(workload, files, seed, seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    if traced:
        metrics = {name: {"value": summary["layers"][name], "unit": unit}
                   for name, unit in tracing.UNITS.items()}
    else:
        values = {
            "pipeline_s": summary["pipeline_s"],
            "loss_ratio": summary["loss_ratio"],
            "peak_rss_mb": summary["peak_rss_mb"],
            "setup_s": setup_s,
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    print(f"workload {workload_name} seed {seed}: {summary['reps']} repetitions "
          f"+ {summary['traced_reps']} traced, "
          f"{summary['attempted']} stage calls, failed_frac "
          f"{summary['failed'] / summary['attempted']:.4f}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    # Stage medians are printed but not reported: a 0.1 s stage is too short
    # to be steady, and not every workload has every stage.
    for stage, seconds in summary["stage_s"].items():
        print(f"  {stage + '_s (stage median)':36s} {seconds:>14.6g} s")
    print(f"  {'final_loss':36s} {summary['final_loss']:>14.6g} "
          f"{'bits' if workload.metric == 'vi' else 'Binder'}")
    # Times as measured, before normalisation.
    print(f"  {'warm-up wall':36s} {summary['warm_up_s']:>14.6g} s")
    if summary["frozen_cpu_s"] is not None:
        print(f"  {'pipeline cpu in pairs (median)':36s} {summary['cpu_s']:>14.6g} s")
        print(f"  {'frozen cpu in pairs (median)':36s} {summary['frozen_cpu_s']:>14.6g} s")
        print("  pipeline cpu / frozen cpu, by pair: "
              + " ".join(f"{r:.4f}" for r in summary["ratios"]))
    print(f"  {'setup wall (median)':36s} {setup_wall_s:>14.6g} s")
    for problem in summary["problems"]:
        print(f"  FAILED {problem}")
    print("sha256 " + json.dumps(summary["sha256"], sort_keys=True))
    print("env " + json.dumps(environment(), sort_keys=True))
    return {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory belongs to one workload."""
    from perfbench.pipeline import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "postclust" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'postclust'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.pipeline import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
