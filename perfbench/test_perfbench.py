"""Tests of the benchmark's own parts, at tiny sizes."""

import json
import sys
import time
import types

import numpy as np
import pytest

from postclust import DrawMatrix, cli

from perfbench import checks, inputs, pipeline, speed
from perfbench.tracing import Span, Tracer, Wrapping, layer_metrics, self_times


def test_generator_is_seeded():
    a = inputs.example2_draws(5, n=30, m=40)
    b = inputs.example2_draws(5, n=30, m=40)
    c = inputs.example2_draws(6, n=30, m=40)
    assert a.shape == (40, 30)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_shape_check_rejects_drift():
    shape = {"distinct_draws": 600, "draws": 1000, "k_mean": 6.5, "k_min": 4,
             "k_max": 12}
    with pytest.raises(ValueError, match="distinct"):
        inputs.check_shape(shape)
    inputs.check_shape(dict(shape, distinct_draws=1000))


@pytest.fixture
def tiny_run(tmp_path):
    """A tiny posterior with its estimate and ball written by the CLI."""
    draws_path = tmp_path / "draws.csv"
    inputs.write_draws(draws_path, inputs.example2_draws(3, n=24, m=60))
    est, ball = tmp_path / "est.json", tmp_path / "ball.json"
    assert cli.main(["estimate", str(draws_path), "--out", str(est)]) == 0
    center = json.loads(est.read_text())["labels"]
    assert cli.main(["ball", str(draws_path), center, "--out", str(ball)]) == 0
    draws = DrawMatrix(np.loadtxt(draws_path, delimiter=",", dtype=np.int64))
    return draws, json.loads(est.read_text()), json.loads(ball.read_text()), center


def test_checker_accepts_cli_output(tiny_run):
    draws, est, ball, center = tiny_run
    assert checks.check_estimate(est, draws, "vi") == []
    assert checks.check_ball(ball, draws, center, "vi", 0.05) == []


def test_checker_rejects_tampered_estimate(tiny_run):
    draws, est, _, _ = tiny_run
    tampered = dict(est, expected_loss=est["expected_loss"] * 1.001)
    assert any("expected_loss" in p for p in checks.check_estimate(tampered, draws, "vi"))


def test_checker_rejects_low_coverage(tiny_run):
    draws, _, ball, center = tiny_run
    thin = dict(ball, coverage=0.5)
    problems = checks.check_ball(thin, draws, center, "vi", 0.05)
    assert any("below 1 - alpha" in p for p in problems)


def test_self_times_on_hand_built_tree():
    # root [0, 10] with children [1, 4] and [5, 9]; the second child has a
    # grandchild [6, 8].
    spans = [
        Span("cli.estimate", "bench", 0.0, 10.0, -1),
        Span("search.greedy_search", "cli", 1.0, 4.0, 0),
        Span("posterior.best_sampled", "search", 5.0, 9.0, 0),
        Span("posterior.expected_loss", "posterior", 6.0, 8.0, 2),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_missing_name_reports_zero_calls(monkeypatch):
    module = types.ModuleType("fake")
    module.present = original = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake", module)
    fake = (("fake", "present", "search"), ("fake", "closest_neighbors", "metrics"))
    tracer = Tracer()
    with Wrapping(tracer, fake) as wrapping:
        assert module.present(1) == 2
    assert wrapping.missing == ["fake.closest_neighbors"]
    assert module.present is original
    metrics = layer_metrics(tracer)
    assert metrics["metrics.closest_neighbors_calls"] == 0
    assert metrics["metrics.candidates"] == 0
    assert [s.name for s in tracer.spans] == ["search.present"]


def test_normalised_scales_by_median_kernel_time():
    assert speed.normalised(2.0, [speed.REF_S, 2 * speed.REF_S, 9 * speed.REF_S]) == 1.0


def test_paired_reps_run_package_and_frozen_side_by_side(tmp_path):
    draws_path = tmp_path / "draws.csv"
    inputs.write_draws(draws_path, inputs.example2_draws(3, n=24, m=60))
    files = {"draws": draws_path, "estimate": tmp_path / "estimate.json",
             "ball": tmp_path / "ball.json"}
    workload = pipeline.WORKLOADS["example2-vi-best"]
    checker = pipeline.Checker(workload, draws_path)
    problems = []
    # A deadline already past still runs one pair.
    live, frozen = pipeline.paired_reps(workload, files, 1, time.perf_counter(),
                                        checker, problems)
    assert problems == []
    assert len(live) == len(frozen) == 1
    assert not live[0].failed and not frozen[0].failed
    assert set(live[0].stage_s) == set(frozen[0].stage_s) == {"estimate", "ball"}
    assert (tmp_path / "frozen-estimate.json").is_file()
    assert (tmp_path / "frozen-ball.json").is_file()
    assert checker.verified.keys() == {"estimate", "ball"}
