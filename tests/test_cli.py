"""End-to-end CLI run and the exit-code contract (0 ok, 2 usage, 3 data)."""

import csv
import hashlib
import json
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from postclust import Metric, Partition, __version__, cli, posterior


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


@pytest.mark.parametrize("text", ["", "\ufeff# no rows\n\n"],
                         ids=["empty", "comment-only"])
def test_empty_data_file_is_a_data_error(tmp_path, capsys, text):
    data = tmp_path / "empty.csv"
    data.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's own warning is not shown
        code = cli.main(["sample", str(data), str(tmp_path / "d.csv"),
                         "--iterations", "3", "--burn-in", "0"])
    assert code == 3
    assert capsys.readouterr().err == "error: empty data file\n"
    assert list(tmp_path.iterdir()) == [data]


def test_non_finite_hyperparameter_is_a_usage_error(tmp_path, capsys):
    data = tmp_path / "ok.csv"
    data.write_text("1.0\n2.5\n3.0\n4.0\n")
    code = cli.main(["sample", str(data), str(tmp_path / "d.csv"),
                     "--iterations", "3", "--burn-in", "0", "--b", "nan"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --b must be finite")
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("option", ["--mu0", "--b"])
def test_hyperparameter_of_wrong_length_is_a_data_error(tmp_path, capsys,
                                                        option):
    data = tmp_path / "ok.csv"
    data.write_text("1.0\n2.5\n3.0\n4.0\n")
    code = cli.main(["sample", str(data), str(tmp_path / "d.csv"),
                     "--iterations", "5", "--burn-in", "1", option, "1,2"])
    assert code == 3  # D comes from the data
    assert f"{option[2:]} holds 2 values" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()
    assert not (tmp_path / "d.csv.manifest.json").exists()


def test_constant_column_is_a_data_error(tmp_path, capsys):
    # b is the column's variance, 0 here: the prior taken from the data is
    # checked as a given one is
    data, draws = tmp_path / "flat.csv", tmp_path / "d.csv"
    data.write_text("1.0,2.0\n2.5,2.0\n3.0,2.0\n4.0,2.0\n")
    code = cli.main(["sample", str(data), str(draws), "--iterations", "5",
                     "--burn-in", "1"])
    assert code == 3
    assert "b must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data]  # no draws, no manifest


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 18.6 GiB for an array with shape "
                 "(50000, 50000) and data type float64"),
     "error: Unable to allocate 18.6 GiB"),
    (MemoryError(), "error: out of memory"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_is_a_data_error(tmp_path, capsys, monkeypatch,
                                               error, message):
    def no_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "load_draws", no_memory)
    code = cli.main(["psm", str(tmp_path / "draws.csv"), str(tmp_path / "p.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith(message)
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("options, builds", [
    (["--metric", "binder"], 1),
    (["--metric", "vi", "--estimator", "lb"], 1),
    (["--metric", "vi"], 0),
], ids=["binder", "vi-lb", "vi-exact"])
def test_estimate_builds_the_similarity_matrix_once(tmp_path, monkeypatch,
                                                    options, builds):
    # the Binder search and the lower bound read P, built once; the exact
    # VI search and its report read the draws alone
    draws = tmp_path / "draws.csv"
    draws.write_text("0,0,1,1,2\n0,0,1,2,2\n0,1,1,2,2\n0,0,0,1,1\n")
    built = []
    original = posterior._co_clustering
    monkeypatch.setattr(posterior, "_co_clustering",
                        lambda *args, **kw: built.append(1) or original(*args, **kw))
    assert cli.main(["estimate", str(draws), *options,
                     "--out", str(tmp_path / "e.json")]) == 0
    assert len(built) == builds


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


SAMPLER_ERRORS = [("--c", "0"), ("--a", "-1"), ("--alpha0", "0"),
                  ("--alpha-shape", "0"), ("--c", "nan"), ("--b", "-1"),
                  ("--b", "nan"), ("--b", "inf"), ("--mu0", "nan"),
                  ("--b", "1,x")]


@pytest.mark.parametrize("option, value", SAMPLER_ERRORS)
def test_bad_sampler_option_is_named(tmp_path, capsys, option, value):
    code = cli.main(["sample", str(tmp_path / "missing.csv"),
                     str(tmp_path / "d.csv"), option, value])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {option}")


@pytest.mark.parametrize("argv", [
    ["ball", "{missing}", "0,0,1", "--alpha", "1.5"],
    ["ball", "{missing}", "0,0,1", "--alpha", "0"],
    ["simulate", "example1", "--n", "0",
     "--out-data", "{missing}", "--out-labels", "{missing}.txt"],
    ["sample", "{missing}", "{missing}.out", "--iterations", "10",
     "--burn-in", "-1"],
    *(["sample", "{missing}", "{missing}.out", option, value]
      for option, value in SAMPLER_ERRORS),
    ["sample", "{missing}", "{missing}.out", "--seed", "-1"],
    ["simulate", "example1", "--seed", "-1",
     "--out-data", "{missing}", "--out-labels", "{missing}.txt"],
    # a bad --init is not read when the command line is already wrong
    ["estimate", "{missing}", "--max-iters", "0", "--init", "{missing}"],
    ["estimate", "{missing}", "--l", "0", "--init", "0,x,1"],
])
def test_bad_option_is_checked_before_any_file(tmp_path, capsys, argv):
    missing = tmp_path / "missing.csv"
    code = cli.main([arg.format(missing=missing) for arg in argv])
    assert code == 2
    assert "error: --" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("outputs", [
    ["{tmp}/nodir/d.csv"],
    ["{tmp}/d.csv", "--trace", "{tmp}/nodir/trace.csv"],
], ids=["draws", "trace"])
def test_unwritable_output_is_found_before_sampling(tmp_path, capsys,
                                                   monkeypatch, outputs):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(cli, "gibbs_run", no_sampling)
    data = tmp_path / "data.csv"
    data.write_text("1.0\n2.5\n3.0\n4.0\n")
    code = cli.main(["sample", str(data), "--iterations", "2000",
                     *(arg.format(tmp=tmp_path) for arg in outputs)])
    assert code == 3
    assert "nodir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("argv, stage", [
    (["estimate", "{draws}", "--out", "{tmp}/nodir/e.json"], "greedy_search"),
    (["estimate", "{draws}", "--out", "{tmp}/e.json",
      "--trajectory", "{tmp}/nodir/t.csv"], "greedy_search"),
    (["estimate", "{draws}", "--init", "{draws}",
      "--out", "{tmp}/nodir/e.json"], "_read_partition"),
    (["ball", "{draws}", "{draws}", "--out", "{tmp}/nodir/b.json"],
     "credible_ball"),
], ids=["estimate", "trajectory", "init", "ball"])
def test_unwritable_output_is_found_before_the_search(tmp_path, capsys,
                                                      monkeypatch, argv, stage):
    def no_search(*args, **kwargs):
        raise AssertionError(f"{stage} ran")

    monkeypatch.setattr(cli, stage, no_search)
    draws = tmp_path / "draws.csv"
    draws.write_text("0,0,1,1\n0,1,1,1\n")
    code = cli.main([arg.format(tmp=tmp_path, draws=draws) for arg in argv])
    assert code == 3
    assert "nodir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [draws]


@pytest.mark.parametrize("argv, reader", [
    (["simulate", "example1", "--out-data", "{tmp}/d.csv",
      "--out-labels", "{tmp}/nodir/t.txt"], "simulate_example"),
    (["simulate", "example1", "--out-data", "{tmp}/nodir/d.csv",
      "--out-labels", "{tmp}/t.txt"], "simulate_example"),
    (["psm", "{tmp}/draws.csv", "{tmp}/nodir/p.csv"], "load_draws"),
    (["pairclass", "0,0,1", "0,1,1", "{tmp}/nodir/pc.csv"], "_read_partition"),
], ids=["simulate-labels", "simulate-data", "psm", "pairclass"])
def test_unwritable_output_is_found_before_any_input(tmp_path, capsys,
                                                     monkeypatch, argv, reader):
    def no_input(*args, **kwargs):
        raise AssertionError(f"{reader} ran")

    monkeypatch.setattr(cli, reader, no_input)
    code = cli.main([arg.format(tmp=tmp_path) for arg in argv])
    assert code == 3
    assert "nodir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no data file, no manifest


@pytest.mark.parametrize("metric, estimator, rescored", [
    ("vi", "exact", ["draw_distances"]),
    ("binder", "exact", ["expected_vi"]),
    ("vi", "lb", ["draw_distances", "expected_vi"]),
], ids=["vi-exact", "binder-exact", "vi-lb"])
def test_estimate_scores_its_optimum_once_per_loss(tmp_path, monkeypatch,
                                                   metric, estimator, rescored):
    # the exact loss the search minimized is its result's; only the
    # other losses are computed again, and every one equals a fresh score:
    # a VI estimate's Binder loss is the mean of its Binder distances to
    # the draws, which needs no similarity matrix
    calls = []
    for name in ("draw_distances", "expected_vi"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, name=name, f=original:
                            calls.append(name) or f(*a))
    draws, out = tmp_path / "draws.csv", tmp_path / "e.json"
    pinned_draws(draws)
    assert cli.main(["estimate", str(draws), "--metric", metric,
                     "--estimator", estimator, "--out", str(out)]) == 0
    assert sorted(calls) == rescored
    payload = json.loads(out.read_text())
    sample = posterior.load_draws(draws)
    optimum = Partition(tuple(map(int, payload["labels"].split(","))))
    assert payload["expected_vi"] == posterior.expected_vi(optimum, sample)
    if metric == "vi":
        assert payload["expected_binder"] == float(posterior.draw_distances(
            optimum, sample, Metric.BINDER).mean())
    else:
        assert payload["expected_binder"] == posterior.expected_binder(
            optimum, posterior.similarity_matrix(sample))
    if estimator == "exact":
        assert payload[f"expected_{metric}"] == payload["expected_loss"]


@pytest.mark.parametrize("command", ["estimate", "ball"])
def test_stdout_holds_the_bytes_out_would_write(tmp_path, capsys, command):
    draws, out = tmp_path / "draws.csv", tmp_path / "result.json"
    pinned_draws(draws)
    # the ball's centre: the first draw, read from the draw file
    argv = [command, str(draws)] + ([str(draws)] if command == "ball" else [])
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert printed.encode() == out.read_bytes()


def test_pairclass_of_different_sizes_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "pc.csv"
    assert cli.main(["pairclass", "0,1", "0,1,2", str(out)]) == 3
    err = capsys.readouterr().err
    assert "different item counts" in err
    assert "different item counts: 2 vs 3" in err
    assert list(tmp_path.iterdir()) == []


def test_a_posterior_of_copies_is_at_distance_zero(tmp_path):
    # 40 copies of one partition of 60 items into 12 clusters: every loss
    # of the estimate and the ball's radius are exactly 0.0, for each
    # metric and estimator
    row = ("0,1,2,2,3,0,4,5,1,6,0,7,7,8,7,9,0,2,1,8,4,9,5,1,10,0,7,3,7,1,2,"
           "7,8,2,4,7,5,1,3,5,2,3,9,6,7,11,6,3,11,10,0,11,0,0,4,9,3,11,0,4")
    draws, out = tmp_path / "copies.csv", tmp_path / "out.json"
    draws.write_text((row + "\n") * 40)
    for extra in ([], ["--estimator", "lb"], ["--metric", "binder"]):
        assert cli.main(["estimate", str(draws), *extra, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["labels"] == row
        assert payload["expected_loss"] == payload["expected_vi"] == 0.0
        assert payload["expected_binder"] == 0.0
    for metric in ("vi", "binder"):
        assert cli.main(["ball", str(draws), row, "--metric", metric,
                         "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["epsilon_star"], payload["coverage"]) == (0.0, 1.0)


def test_start_of_wrong_size_is_a_data_error(tmp_path, capsys):
    draws, out = tmp_path / "draws.csv", tmp_path / "e.json"
    pinned_draws(draws)  # 30 items
    assert cli.main(["estimate", str(draws), "--init", "0,0,1",
                     "--out", str(out)]) == 3
    assert "candidate covers 3 items, posterior covers 30" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [draws]  # no result, no manifest


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
    for extra in ([], ["--fixed-alpha", "--alpha0", "2.5"]):
        assert cli.main(["sample", str(data), str(out), "--iterations", "6",
                         "--burn-in", "2", "--trace", str(trace), *extra]) == 0
        rows = list(csv.reader(trace.read_text().splitlines()))
        assert rows[0] == ["sweep", "clusters", "alpha", "log_joint"]
        assert len(rows) == 1 + 6
    assert [float(row[2]) for row in rows[1:]] == [2.5] * 6  # alpha held fixed


def test_estimate_manifest_hashes_an_init_file(tmp_path):
    draws, init = tmp_path / "draws.csv", tmp_path / "init.txt"
    draws.write_text("0,0,1,1,2\n0,0,1,2,2\n0,1,1,2,2\n0,0,0,1,1\n")
    init.write_text("0,1,2,3,4\n")
    est = tmp_path / "est.json"
    assert cli.main(["estimate", str(draws), "--init", str(init),
                     "--out", str(est)]) == 0
    manifest = json.loads((tmp_path / "est.json.manifest.json").read_text())
    assert manifest["inputs"] == [str(draws), str(init)]
    assert manifest["input_sha256"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (draws, init)
    }


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


def test_byte_order_mark_changes_no_result(tmp_path, capsys):
    # every input file, read once as written and once behind a UTF-8 BOM:
    # the sample data, the draws, the --init file, the ball's centre and
    # the partitions of dist and pairclass
    plain, marked = tmp_path / "plain", tmp_path / "bom"
    plain.mkdir()
    marked.mkdir()

    def mark(name):
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (plain / name).read_bytes())

    assert cli.main(["simulate", "example1", "--n", "12",
                     "--out-data", str(plain / "data.csv"),
                     "--out-labels", str(plain / "truth.txt")]) == 0
    mark("data.csv")
    for d in (plain, marked):
        assert cli.main(["sample", str(d / "data.csv"), str(d / "draws.csv"),
                         "--iterations", "30", "--burn-in", "5"]) == 0
    assert (marked / "draws.csv").read_bytes() == (plain / "draws.csv").read_bytes()
    mark("draws.csv")
    mark("truth.txt")
    for d in (plain, marked):
        assert cli.main(["estimate", str(d / "draws.csv"), "--init",
                         str(d / "truth.txt"), "--out", str(d / "est.json")]) == 0
    (plain / "center.txt").write_text(
        json.loads((plain / "est.json").read_text())["labels"])
    mark("center.txt")
    results = []
    for d in (plain, marked):
        draws, truth, center = (str(d / name) for name in
                                ("draws.csv", "truth.txt", "center.txt"))
        assert cli.main(["ball", draws, center,
                         "--out", str(d / "ball.json")]) == 0
        assert cli.main(["dist", center, truth]) == 0
        assert cli.main(["pairclass", center, truth, str(d / "pc.csv")]) == 0
        results.append([capsys.readouterr().out] + [
            (d / name).read_bytes() for name in ("est.json", "ball.json", "pc.csv")
        ])
    assert results[0] == results[1]


def pinned_draws(path):
    """80 draws resampled from 12 perturbations of clusters of 9, 8, 7 and
    6 items: repeated draws, and ties on every ball bound."""
    rng = np.random.default_rng(15)
    truth = np.repeat(np.arange(4), (9, 8, 7, 6))
    pool = np.tile(truth, (12, 1))
    for row in pool:
        moved = rng.choice(truth.size, size=3, replace=False)
        row[moved] = rng.integers(0, 6, size=3)
    rows = pool[rng.integers(0, len(pool), size=80)]
    np.savetxt(path, rows, fmt="%d", delimiter=",")


@pytest.mark.parametrize("metric, estimate_digest, ball_digest", [
    ("vi",
     "883c743a5dd41afd6667b2d5711ec2b19fd288453d0c960f172f80154e47bb2c",
     "1148c00a275793f365e11c815cfc9825276dbfb5b1ecc90d2311631cedbe7170"),
    ("binder",
     "2f580ec895ac9369b81b86c643067cabf76bae7dea1b8991f3999c00eeb8ef18",
     "685e380ec75bf764aea0041dc51760a21105262decf005ac9c9293ce9dc309f5"),
], ids=["vi", "binder"])
def test_estimate_and_ball_json_are_pinned(tmp_path, metric, estimate_digest,
                                           ball_digest):
    # sha256 of the result files, recorded before the similarity matrix,
    # the cluster bitmasks and the row dedupe were built from the draw
    # codes: the label order of tied bounds and the bits of every float.
    # The vi digest is that of an expected_binder read as the mean of the
    # optimum's Binder distances to the draws, 0.06041666666666665, 1.93
    # ulps from the exact 29/480 (from P it reads 0.06041666666666667).  Both
    # estimate digests hold an expected_vi read as the mean of the draw
    # distances summed cell by cell, 0.5523846420394162, the correctly
    # rounded 0.55238464203941619083... (a difference of sums per draw read
    # 0.5523846420394165).  The vi ball's two horizontal bounds sit at
    # exactly the same distance, whose floats round 1 ulp apart; its radius
    # is the lesser, 0.7307795731789298, the correctly rounded exact value
    draws, est, ball = (tmp_path / name for name in
                        ("draws.csv", "est.json", "ball.json"))
    pinned_draws(draws)
    assert cli.main(["estimate", str(draws), "--metric", metric,
                     "--out", str(est)]) == 0
    labels = json.loads(est.read_text())["labels"]
    assert cli.main(["ball", str(draws), labels, "--metric", metric,
                     "--alpha", "0.1", "--out", str(ball)]) == 0
    assert hashlib.sha256(est.read_bytes()).hexdigest() == estimate_digest
    assert hashlib.sha256(ball.read_bytes()).hexdigest() == ball_digest


def test_search_cut_off_by_max_iters_warns(tmp_path, capsys):
    # from singletons the first merge lowers the loss, so one iteration
    # stops a walk that is still improving; from the best draw it converges
    draws, start = tmp_path / "draws.csv", tmp_path / "singletons.txt"
    pinned_draws(draws)
    start.write_text(",".join(map(str, range(30))) + "\n")
    assert cli.main(["estimate", str(draws), "--init", str(start),
                     "--max-iters", "1", "--out", str(tmp_path / "cut.json")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning:") and "--max-iters (1)" in err
    assert err.count("\n") == 1
    assert cli.main(["estimate", str(draws),
                     "--out", str(tmp_path / "done.json")]) == 0
    assert capsys.readouterr().err == ""
