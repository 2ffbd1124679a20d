"""Seeded workload inputs: the galaxy velocities and an example2-shaped posterior.

The example2 posterior is generated here, without ``postclust.dpm``, so a
change to the sampler cannot change the inputs of the search workloads or
their losses.  Its shape is matched to what the package sampler gives on
example2 data (N=200): every draw distinct, about 6.5 clusters per draw on
average, between 4 and 15 clusters.  ``check_shape`` fails loudly when the
generator drifts from that target.

The chain itself is fixed; the workload seed shuffles the order of its
draws.  The posterior is then the same set of partitions on every seed, so
the searches on it do the same work and every seed times the same thing.
A search on chains of other seeds made 13 to 15 Binder moves, or 0 to 2 VI
moves, which moved ``pipeline_s`` across seeds by more than the run-to-run
noise it is meant to show.

Run as a module to time one set-up, as the benchmark does several times:

    python3 -m perfbench.inputs --workload example2-vi-best --seed 1 --out DIR
"""

import argparse
import time

T0 = time.perf_counter()  # before any import the set-up pays for

import json
import sys
from pathlib import Path

import numpy as np

EXAMPLE2_N = 200
EXAMPLE2_M = 1000
DATA_SEED = 20150513  # the data are fixed, as the galaxy data are
CHAIN_SEED = 1
# True mixture of the paper's example2: equal weights, isotropic spreads.
CENTERS = np.array([[2.0, 2.0], [2.0, -2.0], [-2.0, 2.0], [-2.0, -2.0]])
SPREADS = np.array([1.0, 1.5, 0.5, 1.0])
RELABEL_FRAC = 0.5  # share of items redrawn from their soft assignment per draw
SPURIOUS_BIRTH = 2.0  # mean number of spurious clusters born per draw
SPURIOUS_DEATH = 0.8  # chance per draw that each spurious cluster dies
SPURIOUS_MAX = 11  # so k stays at most 4 + 11 = 15

# Documented target shape, and how far a generated posterior may drift.
TARGET_DISTINCT_FRAC = 0.99
TARGET_K_MEAN = (6.0, 7.0)
TARGET_K_RANGE = (4, 15)
SPEED_SAMPLES = 20  # speed-probe samples after a set-up


def example2_points(rng: np.random.Generator, n: int):
    """n points of the example2 mixture and each point's soft assignment."""
    comp = rng.integers(0, 4, size=n)
    pts = CENTERS[comp] + SPREADS[comp, None] * rng.standard_normal((n, 2))
    sq = ((pts[:, None, :] - CENTERS[None, :, :]) ** 2).sum(axis=2)
    logp = -sq / (2.0 * SPREADS**2) - 2.0 * np.log(SPREADS)
    logp -= logp.max(axis=1, keepdims=True)
    soft = np.exp(logp)
    soft /= soft.sum(axis=1, keepdims=True)
    return pts, soft


def example2_draws(seed: int, n: int = EXAMPLE2_N, m: int = EXAMPLE2_M) -> np.ndarray:
    """The draws of ``example2_chain``, all but the last in an order drawn from ``seed``."""
    draws = example2_chain(n, m)
    order = np.random.default_rng(seed).permutation(m - 1)
    draws[: m - 1] = draws[order]
    return draws


def example2_chain(n: int = EXAMPLE2_N, m: int = EXAMPLE2_M) -> np.ndarray:
    """An (m, n) label matrix: a Markov chain of clusterings of example2 data.

    The data are fixed by ``DATA_SEED`` and the chain by ``CHAIN_SEED``.  Each
    draw redraws ``RELABEL_FRAC`` of the items from their soft assignment
    under the true mixture; most keep their component, items between
    components move.  Spurious clusters of 1-5 neighbouring items are born,
    ``SPURIOUS_BIRTH`` per draw on average, and each dies with probability
    ``SPURIOUS_DEATH``, returning its items to their component.

    The last draw, where a search with ``--init last`` starts, is every item
    in its most likely component, plus ``SPURIOUS_MAX`` spurious clusters
    placed by the data seed.
    """
    pts, soft = example2_points(np.random.default_rng(DATA_SEED), n)
    rng = np.random.default_rng(CHAIN_SEED)
    cum = np.cumsum(soft, axis=1)
    cum[:, -1] = 1.0
    order = np.argsort(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2), axis=1)
    main = (rng.random(n)[:, None] > cum).sum(axis=1)
    spur = np.full(n, -1)  # spurious cluster id per item, -1 when in main
    next_id = 0
    out = np.empty((m, n), dtype=np.int64)
    n_relabel = max(1, int(round(RELABEL_FRAC * n)))
    for t in range(m):
        idx = rng.choice(n, size=n_relabel, replace=False)
        main[idx] = (rng.random(n_relabel)[:, None] > cum[idx]).sum(axis=1)
        alive = np.unique(spur[spur >= 0])
        dying = alive[rng.random(alive.size) < SPURIOUS_DEATH]
        spur[np.isin(spur, dying)] = -1
        births = int(rng.poisson(SPURIOUS_BIRTH))
        if t == m - 1:
            # A start that the search has to clean up: see the docstring.
            main = soft.argmax(axis=1)
            spur[:] = -1
            births = SPURIOUS_MAX
            rng = np.random.default_rng(DATA_SEED)
        for _ in range(min(births, SPURIOUS_MAX - np.unique(spur[spur >= 0]).size)):
            size = int(rng.integers(1, 6))
            start = int(rng.integers(n))
            near = order[start]
            free = near[spur[near] < 0][:size]
            spur[free] = next_id
            next_id += 1
        out[t] = np.where(spur >= 0, 4 + spur, main)
    return out


def draws_shape(draws: np.ndarray) -> dict:
    """Distinct draws and the cluster count per draw (mean, min, max)."""
    k = np.array([np.unique(row).size for row in draws])
    return {
        "distinct_draws": int(np.unique(draws, axis=0).shape[0]),
        "draws": int(draws.shape[0]),
        "k_mean": float(k.mean()),
        "k_min": int(k.min()),
        "k_max": int(k.max()),
    }


def check_shape(shape: dict):
    """Raise when a generated posterior drifts from the documented target."""
    problems = []
    if shape["distinct_draws"] < TARGET_DISTINCT_FRAC * shape["draws"]:
        problems.append(f"{shape['distinct_draws']} of {shape['draws']} draws distinct")
    if not TARGET_K_MEAN[0] <= shape["k_mean"] <= TARGET_K_MEAN[1]:
        problems.append(f"mean k {shape['k_mean']:.2f} outside {TARGET_K_MEAN}")
    if shape["k_min"] < TARGET_K_RANGE[0] or shape["k_max"] > TARGET_K_RANGE[1]:
        problems.append(f"k in [{shape['k_min']}, {shape['k_max']}], "
                        f"outside {TARGET_K_RANGE}")
    if problems:
        raise ValueError("example2 posterior drifted from its target shape: "
                         + "; ".join(problems))


def write_draws(path: Path, draws: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        for row in draws:
            fh.write(",".join(map(str, row.tolist())))
            fh.write("\n")


def make_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files under ``out`` and describe them."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "galaxy-pipeline":
        from postclust.dpm import load_galaxy

        path = out / "galaxy.csv"
        values = ["%.17g" % v for v in load_galaxy().points[:, 0]]
        path.write_text("\n".join(values) + "\n", encoding="utf-8")
        return {"data": str(path)}
    draws = example2_draws(seed)
    shape = draws_shape(draws)
    check_shape(shape)
    path = out / "draws.csv"
    write_draws(path, draws)
    return {"draws": str(path), "shape": shape}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import postclust.cli  # noqa: F401  the import every stage pays for

    info = make_inputs(args.workload, args.seed, args.out)
    info["setup_s"] = time.perf_counter() - T0
    # The machine's speed just after the set-up, in this process.
    from perfbench.speed import kernel_times

    info["kernel_s"] = kernel_times(SPEED_SAMPLES)
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
