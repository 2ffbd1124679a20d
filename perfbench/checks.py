"""Checks of the CLI's outputs against the package's public functions.

Each check returns a list of problems; an empty list means the output is
correct.  Reported losses must equal the public estimators recomputed on the
same draws, up to a relative 1e-9 that allows a different summation order.
"""

import hashlib
import math

import numpy as np

from postclust import (
    Metric,
    canonicalize,
    draw_distances,
    expected_binder,
    expected_loss,
    expected_vi,
    similarity_matrix,
)

METRICS = {"vi": Metric.VI, "binder": Metric.BINDER}
REL_TOL = 1e-9


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _same(reported, expected) -> bool:
    return isinstance(reported, (int, float)) and math.isclose(
        reported, expected, rel_tol=REL_TOL, abs_tol=1e-12
    )


def parse_labels(text: str):
    return canonicalize([int(x) for x in text.split(",")])


def exact_loss(labels: str, draws, metric: str) -> float:
    """Exact posterior expected loss of a labelling under the named metric."""
    part = parse_labels(labels)
    if metric == "vi":
        return expected_vi(part, draws)
    return expected_binder(part, similarity_matrix(draws))


def best_draw_loss(draws, metric: str) -> float:
    """The smallest exact expected loss of any sampled draw."""
    rows = np.unique(draws.draws, axis=0)
    if metric == "vi":
        return min(expected_vi(canonicalize(row.tolist()), draws) for row in rows)
    sim = similarity_matrix(draws)
    return min(expected_binder(canonicalize(row.tolist()), sim) for row in rows)


def check_draws(draws, m: int, n: int) -> list[str]:
    """The sampler wrote ``m`` draws of ``n`` items."""
    if (draws.m, draws.n) != (m, n):
        return [f"sample wrote {draws.m} draws of {draws.n} items, "
                f"expected {m} of {n}"]
    return []


def check_estimate(payload: dict, draws, metric: str) -> list[str]:
    """Every loss in the estimate JSON equals its public recomputation."""
    try:
        part = parse_labels(payload["labels"])
    except (KeyError, ValueError, AttributeError) as exc:
        return [f"estimate labels unreadable: {exc!r}"]
    if part.n_items != draws.n:
        return [f"estimate covers {part.n_items} items, draws cover {draws.n}"]
    psm = similarity_matrix(draws)
    expected = {
        "expected_loss": expected_loss(part, draws, METRICS[metric], "exact", psm),
        "expected_vi": expected_vi(part, draws),
        "expected_binder": expected_binder(part, psm),
        "k": part.k,
    }
    problems = [
        f"estimate {key} is {payload.get(key)!r}, recomputed {value!r}"
        for key, value in expected.items()
        if not _same(payload.get(key), value)
    ]
    if payload.get("metric") != metric:
        problems.append(f"estimate metric is {payload.get('metric')!r}")
    return problems


def check_ball(payload: dict, draws, center: str, metric: str,
               alpha: float) -> list[str]:
    """Coverage, radius and bounds of a ball JSON against the draws."""
    problems = []
    try:
        part = parse_labels(center)
        coverage = payload["coverage"]
        eps = payload["epsilon_star"]
        bounds = payload["bounds"]
    except (KeyError, ValueError, TypeError) as exc:
        return [f"ball JSON incomplete: {exc!r}"]
    if payload.get("center") != str(part):
        problems.append("ball center differs from the estimate")
    if not coverage >= 1.0 - alpha:
        problems.append(f"coverage {coverage!r} below 1 - alpha = {1.0 - alpha!r}")
    d = draw_distances(part, draws, METRICS[metric])
    m = d.size
    needed = int(np.argmax(np.arange(1, m + 1) / m >= 1.0 - alpha))
    radius = float(np.sort(d)[needed])
    if not _same(eps, radius):
        problems.append(f"epsilon_star {eps!r}, recomputed quantile {radius!r}")
    inside = d <= radius
    if not _same(coverage, inside.sum() / m):
        problems.append(f"coverage {coverage!r}, recomputed {inside.sum() / m!r}")
    rows = draws.draws
    k = rows.max(axis=1) + 1
    index = {}
    for i in np.flatnonzero(inside):
        index.setdefault(rows[i].tobytes(), i)
    # Upper bounds: fewest clusters, then farthest; lower: most clusters,
    # then farthest; horizontal: farthest of all members.
    pools = {
        "upper": inside & (k == k[inside].min()),
        "lower": inside & (k == k[inside].max()),
        "horizontal": inside,
    }
    for side, pool in pools.items():
        listed = bounds.get(side) or []
        if not listed:
            problems.append(f"no {side} bound reported")
        for labels in listed:
            row = np.asarray(parse_labels(labels).labels, dtype=rows.dtype)
            i = index.get(row.tobytes())
            if i is None:
                problems.append(f"{side} bound is not a draw within epsilon_star")
            elif not (pool[i] and _same(d[i], d[pool].max())):
                problems.append(f"{side} bound is not extreme among members")
    return problems
