"""Command-line interface wiring the full pipeline.

Subcommands: simulate -> sample -> estimate -> ball, plus the standalone
utilities dist (partition distance), psm (similarity-matrix export) and
pairclass (pairwise agreement codes against a reference partition).

Every file output gets a JSON sidecar manifest recording the command, its
inputs with the sha256 of each input file, the full parameter set
(including the original argv) and the Python and numpy versions, so
any artifact can be regenerated bit-for-bit.

Exit codes: 0 on success, 2 on usage errors, 3 on data errors.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ball import ball_bounds, credible_ball
from .dpm import Dataset, SamplerConfig, gibbs_run, simulate_example
from .metrics import Metric, binder, vi
from .partition import Partition
from .posterior import (
    DrawMatrix,
    expected_binder,
    expected_vi,
    load_draws,
    similarity_matrix,
)
from .search import SearchConfig, SearchResult, greedy_search

METRICS = {"vi": Metric.VI, "binder": Metric.BINDER}
ESTIMATORS = {"exact": "exact", "lb": "lower-bound"}


def _read_partition(spec: str) -> Partition:
    """The first label row of a partition file, or inline labels."""
    source = spec if os.path.exists(spec) else io.StringIO(spec)
    try:
        return load_draws(source).row(0)
    except ValueError as exc:
        raise ValueError(f"partition {spec!r}: {exc}") from None


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_manifest(out_path: str, args: argparse.Namespace, argv: list[str],
                    inputs: list[str], outputs: list[str]):
    config = {
        k: v for k, v in vars(args).items() if k != "func" and not callable(v)
    }
    config["argv"] = list(argv)
    manifest = {
        "command": args.command,
        "inputs": inputs,
        "input_sha256": {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                         for p in inputs if os.path.isfile(p)},
        "config": config,
        "outputs": outputs,
        "versions": {"postclust": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_result(payload: dict, args, argv: list[str], inputs: list[str],
                  extra_outputs: list[str]):
    """Print the JSON result, or write it to ``--out`` with its manifest."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _write_manifest(args.out, args, argv, inputs, [args.out] + extra_outputs)
    else:
        print(text)


def _cmd_dist(args, argv) -> int:
    a = _read_partition(args.partition_a)
    b = _read_partition(args.partition_b)
    fn = vi if METRICS[args.metric] is Metric.VI else binder
    print(repr(fn(a, b)))
    return 0


def _cmd_psm(args, argv) -> int:
    draws = load_draws(args.draws)
    psm = similarity_matrix(draws)
    np.savetxt(args.out, psm, fmt="%.17g", delimiter=",")
    _write_manifest(args.out, args, argv, [args.draws], [args.out])
    return 0


def _cmd_estimate(args, argv) -> int:
    init = args.init
    if init not in ("best", "last"):
        init = _read_partition(init)
    try:  # the command line alone decides these: a usage error
        config = SearchConfig(
            metric=METRICS[args.metric],
            estimator=ESTIMATORS[args.estimator],
            l=args.l,
            max_iters=args.max_iters,
            init=init,
        )
    except ValueError as exc:
        return _usage_error(exc)
    draws = load_draws(args.draws)
    psm = similarity_matrix(draws)
    result = greedy_search(draws, config)
    optimum = result.optimum
    payload = {
        "labels": str(optimum),
        "k": optimum.k,
        "metric": args.metric,
        "estimator": args.estimator,
        "expected_loss": result.expected_loss,
        "expected_binder": expected_binder(optimum, psm),
        "expected_vi": expected_vi(optimum, draws),
        "iterations_used": result.iterations_used,
    }
    if args.trajectory:
        _write_trajectory(args.trajectory, result)
    _write_result(payload, args, argv, [args.draws],
                  [args.trajectory] if args.trajectory else [])
    return 0


def _write_trajectory(path: str, result: SearchResult):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss", "k", "labels"])
        for step, (part, loss) in enumerate(result.trajectory):
            writer.writerow([step, repr(loss), part.k, str(part)])


def _cmd_ball(args, argv) -> int:
    if not 0.0 < args.alpha < 1.0:
        return _usage_error(f"--alpha ({args.alpha}) must lie strictly "
                            "between 0 and 1")
    draws = load_draws(args.draws)
    center = _read_partition(args.center)
    ball = credible_ball(center, draws, args.alpha, METRICS[args.metric])
    bounds = ball_bounds(ball, draws)
    payload = {
        "alpha": ball.alpha,
        "metric": args.metric,
        "center": str(ball.center),
        "epsilon_star": ball.epsilon_star,
        "coverage": ball.coverage,
        "bounds": {
            "upper": [str(p) for p in bounds.upper_vertical],
            "lower": [str(p) for p in bounds.lower_vertical],
            "horizontal": [str(p) for p in bounds.horizontal],
        },
    }
    _write_result(payload, args, argv, [args.draws, args.center], [])
    return 0


def _parse_hyper(value: str, data: np.ndarray, kind: str):
    if kind == "mu0" and value == "mean":
        return data.mean(axis=0)
    if kind == "b" and value == "var":
        return data.var(axis=0, ddof=1)
    try:
        parts = [float(f) for f in value.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse --{kind} value {value!r}") from None
    return parts[0] if len(parts) == 1 else np.asarray(parts)


def _cmd_sample(args, argv) -> int:
    if not 0 <= args.burn_in < args.iterations:
        return _usage_error(f"--burn-in ({args.burn_in}) must be >= 0 and "
                            f"below --iterations ({args.iterations})")
    raw = np.loadtxt(args.data, delimiter=",", ndmin=2)
    data = Dataset(raw)
    config = SamplerConfig(
        mu0=_parse_hyper(args.mu0, data.points, "mu0"),
        c=args.c,
        a=args.a,
        b=_parse_hyper(args.b, data.points, "b"),
        alpha0=args.alpha0,
        alpha_prior=None if args.fixed_alpha else (args.alpha_shape,
                                                   args.alpha_rate),
        iterations=args.iterations,
        burn_in=args.burn_in,
        seed=args.seed,
    )
    trace: list | None = [] if args.trace else None
    draws = gibbs_run(data, config, trace=trace)
    np.savetxt(args.out, draws.draws, fmt="%d", delimiter=",")
    outputs = [args.out]
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep", "clusters", "alpha"])
            writer.writerows(trace)
        outputs.append(args.trace)
    _write_manifest(args.out, args, argv, [args.data], outputs)
    return 0


def _cmd_simulate(args, argv) -> int:
    if args.n < 4:
        return _usage_error(f"--n ({args.n}) must be >= 4")
    data, truth = simulate_example(args.which, args.n, args.seed)
    np.savetxt(args.out_data, data.points, fmt="%.17g", delimiter=",")
    with open(args.out_labels, "w", encoding="utf-8") as fh:
        fh.write(str(truth) + "\n")
    _write_manifest(args.out_data, args, argv, [],
                    [args.out_data, args.out_labels])
    return 0


def _cmd_pairclass(args, argv) -> int:
    estimate = _read_partition(args.estimate)
    truth = _read_partition(args.truth)
    if estimate.n_items != truth.n_items:
        raise ValueError("estimate and truth cover different item counts")
    same_est = np.equal.outer(estimate.labels, estimate.labels)
    same_tru = np.equal.outer(truth.labels, truth.labels)
    # 2 = co-clustered in both, 0 = in neither, 1 = truth only, 3 = estimate only
    codes = np.where(same_tru, 1 + same_est, 3 * same_est)
    np.savetxt(args.out, codes, fmt="%d", delimiter=",")
    _write_manifest(args.out, args, argv, [args.estimate, args.truth],
                    [args.out])
    return 0


def _add_metric(parser, default="vi"):
    parser.add_argument("--metric", choices=sorted(METRICS), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postclust",
        description="Summarize a posterior over clusterings: point "
        "estimates, credible balls, and a bundled mixture sampler.",
    )
    parser.add_argument("--version", action="version",
                        version=f"postclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two partitions")
    p.add_argument("partition_a")
    p.add_argument("partition_b")
    _add_metric(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("psm", help="export the posterior similarity matrix")
    p.add_argument("draws")
    p.add_argument("out")
    p.set_defaults(func=_cmd_psm)

    p = sub.add_parser("estimate", help="greedy expected-loss minimization")
    p.add_argument("draws")
    _add_metric(p)
    p.add_argument("--estimator", choices=sorted(ESTIMATORS), default="exact")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--init", default="best",
                   help="'best', 'last', or a partition file/labels")
    p.add_argument("--out", default=None, help="write result JSON here")
    p.add_argument("--trajectory", default=None,
                   help="write the descent trajectory CSV here")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("ball", help="credible ball around a point estimate")
    p.add_argument("draws")
    p.add_argument("center", help="partition file or inline labels")
    p.add_argument("--alpha", type=float, default=0.05)
    _add_metric(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("sample", help="run the mixture sampler on a CSV")
    p.add_argument("data")
    p.add_argument("out", help="draw file to write")
    p.add_argument("--iterations", type=int, default=11000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu0", default="mean",
                   help="prior mean: number(s) or 'mean'")
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", default="var",
                   help="prior variance rate: number(s) or 'var'")
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--fixed-alpha", action="store_true",
                   help="keep the mass parameter at --alpha0")
    p.add_argument("--alpha-shape", type=float, default=1.0)
    p.add_argument("--alpha-rate", type=float, default=1.0)
    p.add_argument("--trace", default=None,
                   help="write per-sweep (clusters, alpha) CSV here")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("simulate", help="draw one of the bundled examples")
    p.add_argument("which", choices=["example1", "example2"])
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pairclass",
                       help="pairwise co-clustering agreement codes")
    p.add_argument("estimate")
    p.add_argument("truth")
    p.add_argument("out")
    p.set_defaults(func=_cmd_pairclass)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
