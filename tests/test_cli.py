"""End-to-end CLI run and the exit-code contract (0 ok, 2 usage, 3 data)."""

import csv
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from postclust import __version__, cli, posterior


def test_simulate_sample_estimate_ball_round_trip(tmp_path):
    data, truth = tmp_path / "data.csv", tmp_path / "truth.txt"
    draws, est, ball = (tmp_path / name for name in
                        ("draws.csv", "est.json", "ball.json"))
    assert cli.main(["simulate", "example1", "--n", "12",
                     "--out-data", str(data), "--out-labels", str(truth)]) == 0
    assert cli.main(["sample", str(data), str(draws), "--iterations", "30",
                     "--burn-in", "5", "--seed", "4"]) == 0
    assert len(draws.read_text().splitlines()) == 25
    assert cli.main(["estimate", str(draws), "--out", str(est)]) == 0
    labels = json.loads(est.read_text())["labels"]
    assert len(labels.split(",")) == 12
    assert cli.main(["ball", str(draws), labels, "--out", str(ball)]) == 0
    assert json.loads(ball.read_text())["coverage"] >= 0.95

    for out, command, inputs in [
        (data, "simulate", []),
        (draws, "sample", [str(data)]),
        (est, "estimate", [str(draws)]),
        (ball, "ball", [str(draws), labels]),
    ]:
        manifest = json.loads(
            (tmp_path / (out.name + ".manifest.json")).read_text()
        )
        assert manifest["command"] == command
        assert manifest["inputs"] == inputs
        # the ball's centre is inline labels, not a file: it has no hash
        assert manifest["input_sha256"] == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in inputs[:1]
        }
        assert manifest["versions"] == {
            "postclust": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        assert "seed" not in manifest  # a seed is an option: in "config"
    sample_manifest = json.loads(
        (tmp_path / "draws.csv.manifest.json").read_text()
    )
    assert sample_manifest["config"]["seed"] == 4
    assert sample_manifest["config"]["iterations"] == 30


def test_non_finite_data_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("1.0\n2.5\nnan\n4.0\n")
    code = cli.main(["sample", str(data), str(tmp_path / "d.csv"),
                     "--iterations", "3", "--burn-in", "0"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_non_finite_hyperparameter_is_a_data_error(tmp_path):
    data = tmp_path / "ok.csv"
    data.write_text("1.0\n2.5\n3.0\n4.0\n")
    code = cli.main(["sample", str(data), str(tmp_path / "d.csv"),
                     "--iterations", "3", "--burn-in", "0", "--b", "nan"])
    assert code == 3


def test_unknown_metric_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", str(tmp_path / "draws.csv"), "--metric", "rand"])
    assert exc.value.code == 2


@pytest.mark.parametrize("extra", [[], ["--burn-in", "3"]])  # default 1000
def test_burn_in_not_below_iterations_is_a_usage_error(tmp_path, capsys, extra):
    data = tmp_path / "ok.csv"
    data.write_text("1.0\n2.5\n3.0\n4.0\n")
    code = cli.main(["sample", str(data), str(tmp_path / "d.csv"),
                     "--iterations", "3", *extra])
    assert code == 2
    assert "--burn-in" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_estimate_builds_the_similarity_matrix_once(tmp_path, monkeypatch):
    draws = tmp_path / "draws.csv"
    draws.write_text("0,0,1,1,2\n0,0,1,2,2\n0,1,1,2,2\n0,0,0,1,1\n")
    built = []
    original = posterior._co_clustering
    monkeypatch.setattr(posterior, "_co_clustering",
                        lambda *args, **kw: built.append(1) or original(*args, **kw))
    assert cli.main(["estimate", str(draws), "--metric", "binder",
                     "--out", str(tmp_path / "e.json")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("extra", [
    ["--l", "-1"],
    ["--max-iters", "-3"],
    ["--l", "0"],
    ["--max-iters", "0"],
    ["--metric", "binder", "--estimator", "lb"],
])
def test_bad_search_option_is_a_usage_error(tmp_path, capsys, extra):
    # the draw file does not exist: the options are checked before it is read
    code = cli.main(["estimate", str(tmp_path / "missing.csv"), *extra])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--seed", "1"],
    ["--restarts", "3"],
    ["--restarts", "0"],
])
def test_removed_search_option_is_rejected_by_argparse(tmp_path, capsys, extra):
    # the search has no seed and no restarts: the options are unknown
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", str(tmp_path / "missing.csv"), *extra])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ball", "{missing}", "0,0,1", "--alpha", "1.5"],
    ["ball", "{missing}", "0,0,1", "--alpha", "0"],
    ["simulate", "example1", "--n", "0",
     "--out-data", "{missing}", "--out-labels", "{missing}.txt"],
    ["sample", "{missing}", "{missing}.out", "--iterations", "10",
     "--burn-in", "-1"],
])
def test_bad_option_is_checked_before_any_file(tmp_path, capsys, argv):
    missing = tmp_path / "missing.csv"
    code = cli.main([arg.format(missing=missing) for arg in argv])
    assert code == 2
    assert "error: --" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_file_outputs_hold_what_they_promise(tmp_path):
    draws = tmp_path / "draws.csv"
    draws.write_text("0,0,1,1,2\n0,0,1,2,2\n0,1,1,2,2\n0,0,0,1,1\n")
    psm, codes = tmp_path / "psm.csv", tmp_path / "codes.csv"
    assert cli.main(["psm", str(draws), str(psm)]) == 0
    np.testing.assert_array_equal(
        np.loadtxt(psm, delimiter=","),
        posterior.similarity_matrix(posterior.load_draws(draws)),
    )

    assert cli.main(["pairclass", "0,0,1", "0,1,1", str(codes)]) == 0
    assert codes.read_text() == "2,3,0\n3,2,1\n0,1,2\n"

    est, path = tmp_path / "est.json", tmp_path / "path.csv"
    assert cli.main(["estimate", str(draws), "--init", "0,1,2,3,4",
                     "--out", str(est), "--trajectory", str(path)]) == 0
    result = json.loads(est.read_text())
    rows = list(csv.reader(path.read_text().splitlines()))
    assert len(rows) > 2  # the walk moved from the singletons
    assert rows[0] == ["iteration", "loss", "k", "labels"]
    assert [int(row[0]) for row in rows[1:]] == list(
        range(result["iterations_used"] + 1))
    assert rows[-1][3] == result["labels"]
    assert float(rows[-1][1]) == result["expected_loss"]

    data, out, trace = (tmp_path / name for name in
                        ("data.csv", "d.csv", "trace.csv"))
    data.write_text("1.0\n2.5\n3.0\n4.0\n")
    assert cli.main(["sample", str(data), str(out), "--iterations", "6",
                     "--burn-in", "2", "--trace", str(trace)]) == 0
    rows = trace.read_text().splitlines()
    assert rows[0] == "sweep,clusters,alpha"
    assert len(rows) == 1 + 6


def test_label_beyond_int64_is_a_data_error(tmp_path, capsys):
    draws = tmp_path / "draws.csv"
    draws.write_text("0,0,1\n9223372036854775808,0,1\n")
    assert cli.main(["estimate", str(draws)]) == 3
    assert "non-integer label in row 2" in capsys.readouterr().err
    assert cli.main(["dist", "0,9223372036854775808,1", "0,0,1"]) == 3
    assert "non-integer label in row 1" in capsys.readouterr().err


@pytest.mark.parametrize("metric, value", [
    ("vi", 4 / 3), ("binder", 4 / 9),
])
def test_dist_prints_a_plain_float(capsys, metric, value):
    assert cli.main(["dist", "0,0,1", "0,1,1", "--metric", metric]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(value)


def test_partition_file_gives_its_first_row(tmp_path, capsys):
    center = tmp_path / "center.txt"
    center.write_text("# estimate\n7,7,3\n0,1,2\n")
    assert cli.main(["dist", str(center), "5,5,9", "--metric", "binder"]) == 0
    assert float(capsys.readouterr().out) == 0.0
