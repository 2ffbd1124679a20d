import io
import itertools
import math
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from postclust import (
    DrawMatrix,
    Metric,
    Partition,
    SearchConfig,
    best_sampled,
    binder,
    canonicalize,
    closest_neighbors,
    credible_ball,
    draw_distances,
    expected_binder,
    expected_loss,
    expected_vi,
    expected_vi_lower,
    load_draws,
    merge_delta,
    one_cluster,
    similarity_matrix,
    singletons,
    vi,
)

import postclust.posterior
from postclust.partition import _canonical_rows
from postclust.posterior import _scanned_losses, _unique_rows

from conftest import (all_partitions, canonical_labels, crp_row,
                      synthetic_draws)

TOL = 1e-12
ESTIMATES = [
    (Metric.BINDER, "exact"),
    (Metric.VI, "exact"),
    (Metric.VI, "lower-bound"),
]


def part_of_row(draws, m):
    return Partition(tuple(int(x) for x in draws.draws[m]))


class TestLoadDraws:
    def test_basic(self, tmp_path):
        f = tmp_path / "draws.txt"
        f.write_text("0,0,1\n0,1,1\n")
        draws = load_draws(f)
        assert draws.m == 2 and draws.n == 3

    def test_rows_canonicalized(self):
        draws = load_draws(io.StringIO("5,5,9\n9,5,5\n"))
        assert draws.draws.tolist() == [[0, 0, 1], [0, 1, 1]]

    def test_comments_and_blanks_skipped(self):
        draws = load_draws(io.StringIO("# chain A\n\n0,0\n# mid\n0,1\n"))
        assert draws.m == 2

    def test_ragged_row_reported(self):
        with pytest.raises(ValueError, match="ragged row 2"):
            load_draws(io.StringIO("0,0\n0,1,1\n"))

    def test_non_integer_label(self):
        with pytest.raises(ValueError, match="non-integer label"):
            load_draws(io.StringIO("0,x,1\n"))

    def test_empty_file(self):
        with pytest.raises(ValueError, match="empty draw file"):
            load_draws(io.StringIO("# nothing here\n"))

    @pytest.mark.parametrize("label", [
        "9223372036854775808", "-9223372036854775809", "1.5", "1e3", "0x1",
    ])
    def test_label_outside_int64_is_a_value_error(self, label):
        text = f"# header\n0,0\n\n{label},0\n"
        with pytest.raises(ValueError, match="non-integer label in row 2"):
            load_draws(io.StringIO(text))

    def test_rows_numbered_from_one_without_skipped_lines(self):
        with pytest.raises(ValueError, match="^ragged row 3$"):
            load_draws(io.StringIO("# a\n0,0\n\n1,1\n# b\n0\n0,x\n"))
        with pytest.raises(ValueError, match="non-integer label in row 3"):
            load_draws(io.StringIO("# a\n0,0\n1,1\n0,x\n0\n"))

    def test_int64_extremes_are_labels(self):
        low, high = -(2**63), 2**63 - 1
        draws = load_draws(io.StringIO(f"{high},{low},{high}\n"))
        assert draws.draws.tolist() == [[0, 1, 0]]

    def test_every_row_is_its_own_canonical_form(self, rng):
        draws = synthetic_draws(rng, 6, 40)
        for m in range(draws.m):
            row = draws.draws[m]
            assert canonicalize(row.tolist()).labels == tuple(row.tolist())


    def test_canonical_rows_match_per_row_relabelling(self, rng):
        ranges = [(0, 3), (-5, 5), (-(2**62), 2**62), (10**15, 10**15 + 4)]
        for shape in [(1, 1), (6, 1), (1, 9), (40, 12), (7, 200)]:
            for low, high in ranges:
                a = rng.integers(low, high, size=shape, dtype=np.int64)
                expect = [list(canonical_labels(row)) for row in a.tolist()]
                assert _canonical_rows(a).tolist() == expect
        big = np.array([[2**64 - 1, 0, 2**63, 0, 2**64 - 1]], dtype=np.uint64)
        assert _canonical_rows(big).tolist() == [[0, 1, 2, 1, 0]]

    def test_narrow_and_wide_blocks_relabel_alike(self, rng):
        # blocks spanning fewer than 2^16 labels sort 16-bit keys; the
        # range is checked per 64-row block, at the int64 and int8 limits
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        cases = [
            rng.integers(lo, lo + 2**16, size=(70, 30), dtype=np.int64),
            rng.integers(hi - 2**16, hi, size=(70, 30), dtype=np.int64,
                         endpoint=True),
            rng.integers(-128, 128, size=(70, 30)).astype(np.int8),
            rng.integers(2**64 - 9, 2**64 - 1, size=(3, 30), dtype=np.uint64,
                         endpoint=True),
        ]
        for rows in (130, 65, 128, 129):
            mixed = rng.integers(0, 2**16 - 1, size=(rows, 20), dtype=np.int64)
            # range 2^16 - 1: every block narrow
            mixed[:, 0] = np.arange(rows) % 2 * (2**16 - 1)
            cases.append(mixed)
            wide = mixed.copy()
            wide[64, :2] = 2**16, 0  # range 2^16: 16-bit keys would collide
            cases.append(wide)
        for a in cases:
            expect = [list(canonical_labels(row)) for row in a.tolist()]
            out = _canonical_rows(a)
            assert out.dtype == np.int32 and out.flags.c_contiguous
            assert out.tolist() == expect

    @pytest.mark.parametrize("rows", [63, 64, 65, 128, 129])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
    def test_block_seams(self, rng, rows, dtype):
        # 64-row blocks: a row count on either side of one or two seams,
        # small label ranges so that keys repeat across row ends, and
        # uint64 labels above 2^63
        info = np.iinfo(dtype)
        low = max(info.min, 2**63) if dtype == np.uint64 else info.min
        for span in (3, 100):
            for start in (low, info.max - span + 1):
                a = rng.integers(start, start + span, size=(rows, 17),
                                 dtype=dtype)
                out = _canonical_rows(a)
                assert out.dtype == np.int32 and out.flags.c_contiguous
                expect = [list(canonical_labels(row)) for row in a.tolist()]
                assert out.tolist() == expect

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain = "# chain\n5,5,9\n9,5,5\n"
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbf" + plain.replace("\n", "\r\n").encode())
        for source in (f, io.StringIO("\ufeff" + plain)):
            assert load_draws(source).draws.tolist() == [[0, 0, 1], [0, 1, 1]]
        # one mark only, and only at the start of the text
        for text in ("\ufeff\ufeff0,0\n", "0,0\n\ufeff0,1\n"):
            with pytest.raises(ValueError, match="non-integer label"):
                load_draws(io.StringIO(text))


class TestDrawMatrix:
    @pytest.mark.parametrize("draws, message", [
        ([0, 1, 1], "2-D array"),
        (np.zeros((0, 3), np.int64), "one row and one item"),
        (np.zeros((2, 0), np.int64), "one row and one item"),
        ([[0.0, 1.0, 1.0]], "integers"),
    ], ids=["1-D", "no rows", "no items", "float labels"])
    def test_rejects(self, draws, message):
        with pytest.raises(ValueError, match=message):
            DrawMatrix(draws)


class TestRowCode:
    @pytest.mark.parametrize("n, dtype", [(46340, np.int32), (46341, np.int64)])
    def test_dtype_at_the_int32_bound(self, n, dtype):
        # one draw of n singletons: n cells, so the bound is n * (n + 1)
        draws = DrawMatrix(np.arange(n)[None, :])
        assert (int(draws._cellptr[-1]) * (n + 1) < 2**31 - 1) == (dtype == np.int32)
        assert draws._rowcode.dtype == dtype
        np.testing.assert_array_equal(draws._rowcode, np.arange(n)[None, :])
        center = one_cluster(n)
        assert draw_distances(center, draws, Metric.VI)[0] == pytest.approx(
            math.log2(n), abs=TOL)
        assert draw_distances(center, draws, Metric.BINDER)[0] == pytest.approx(
            1 - 1 / n, abs=TOL)

    def test_equals_int64_codes(self, rng):
        for m, n in ((1, 1), (5, 9), (70, 40)):
            draws = synthetic_draws(rng, n, m)
            expect = draws._cellptr[:-1, None] + draws.draws.astype(np.int64)
            assert draws._rowcode.dtype == np.int32
            np.testing.assert_array_equal(draws._rowcode, expect)


class TestSimilarityMatrix:
    def test_single_draw_block_structure(self):
        draws = DrawMatrix(np.array([[0, 0, 1, 1]]))
        psm = similarity_matrix(draws)
        expect = np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
            dtype=float,
        )
        np.testing.assert_array_equal(psm, expect)

    def test_two_draw_average(self):
        draws = DrawMatrix(np.array([[0, 0], [0, 1]]))
        psm = similarity_matrix(draws)
        np.testing.assert_array_equal(
            psm, np.array([[1.0, 0.5], [0.5, 1.0]])
        )

    def test_repeated_row_gives_zero_one_entries(self):
        draws = DrawMatrix(np.tile(np.array([0, 1, 0, 2]), (7, 1)))
        psm = similarity_matrix(draws)
        assert set(np.unique(psm)) == {0.0, 1.0}

    def test_symmetry_and_unit_diagonal(self, rng):
        draws = synthetic_draws(rng, 9, 33)
        psm = similarity_matrix(draws)
        np.testing.assert_array_equal(psm, psm.T)
        np.testing.assert_array_equal(psm.diagonal(), np.ones(9))
        assert psm.min() >= 0 and psm.max() <= 1

    def test_built_once_per_draw_matrix(self, rng):
        draws = synthetic_draws(rng, 6, 20)
        psm = similarity_matrix(draws)
        assert similarity_matrix(draws) is psm
        assert draws.similarity is psm
        assert psm.shape == (6, 6) and not psm.flags.writeable

    def test_chunking_invariant(self, rng, monkeypatch):
        # the draws are summed in chunks of at most TILE_CELLS indicator
        # cells; one draw per chunk, several, or all at once, the counts
        # are integers and the matrix must be exact.  The last posterior
        # puts 4000 identical draws in one chunk: counts of 4000 in float32
        same = np.tile(np.array(crp_row(rng, 20)), (4000, 1))
        for rows, budgets in ((synthetic_draws(rng, 7, 300).draws,
                               (1, 40, 2**30)),
                              (same, (2**30,))):
            brute = np.mean([row[:, None] == row[None, :] for row in rows],
                            axis=0)
            for cells in budgets:
                monkeypatch.setattr(postclust.posterior, "TILE_CELLS", cells)
                np.testing.assert_array_equal(
                    similarity_matrix(DrawMatrix(rows)), brute)

    def test_memory_stays_within_chunks(self):
        # the indicators of all 2000 draws at once take some 11 MiB of
        # float32; one block of 4 x TILE_CELLS cells takes 512 KiB
        draws = spread_posterior(0, 200, 2000)
        draws._ks
        tracemalloc.start()
        try:
            draws.similarity
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("shape", [(5, 4), (4, 5), (4, 4), (6, 6), (25,)])
    def test_must_be_n_by_n_for_the_candidate(self, shape):
        draws = DrawMatrix(np.array([[0, 0, 1, 1, 2], [0, 1, 1, 2, 2]]))
        c, psm = canonicalize([0, 0, 1, 1, 1]), np.full(shape, 0.5)
        for estimate in (
            lambda: expected_binder(c, psm),
            lambda: expected_loss(c, draws, Metric.BINDER, "exact", psm),
        ):
            with pytest.raises(ValueError, match="similarity matrix"):
                estimate()


class TestExpectedBinder:
    def test_degenerate_posterior(self):
        c = canonicalize([0, 0, 1, 2])
        draws = DrawMatrix(np.tile(np.array(c.labels), (5, 1)))
        assert expected_binder(c, similarity_matrix(draws)) == 0.0

    def test_all_singleton_posterior_against_one_cluster(self):
        n = 6
        draws = DrawMatrix(np.tile(np.arange(n), (3, 1)))
        value = expected_binder(one_cluster(n), similarity_matrix(draws))
        assert value == pytest.approx(1 - 1 / n, abs=TOL)

    def test_two_draw_posterior(self):
        draws = DrawMatrix(np.array([[0, 0, 0, 0], [0, 1, 2, 3]]))
        value = expected_binder(singletons(4), similarity_matrix(draws))
        assert value == pytest.approx(0.375, abs=TOL)

    def test_equals_mean_of_per_draw_distances(self, rng):
        draws = synthetic_draws(rng, 8, 25)
        psm = similarity_matrix(draws)
        for _ in range(10):
            cand = canonicalize(rng.integers(0, 4, size=8).tolist())
            direct = np.mean(
                [binder(part_of_row(draws, m), cand) for m in range(draws.m)]
            )
            assert expected_binder(cand, psm) == pytest.approx(
                direct, abs=TOL
            )

    def test_dimension_mismatch(self):
        draws = DrawMatrix(np.array([[0, 0, 1]]))
        with pytest.raises(ValueError):
            expected_binder(one_cluster(4), similarity_matrix(draws))

    @pytest.mark.parametrize("n", [1, 2, 37, 200])
    def test_within_four_ulps_of_the_exact_rational(self, rng, n):
        # the loss is Σ_m Σ_ij |s_ij - s^m_ij| / (M N^2), and the inner sum
        # is the integer Σ_A |A|^2 + Σ_B |B|^2 - 2 Σ_AB |A ∩ B|^2 over the
        # clusters A of the candidate and B of draw m
        draws = (spread_posterior(0, n, 100) if n == 200
                 else synthetic_draws(rng, n, 30))
        psm = similarity_matrix(draws)
        cands = [canonicalize(rng.integers(0, 5, size=n).tolist())
                 for _ in range(10)]
        cands += [part_of_row(draws, m) for m in range(0, draws.m, 10)]
        for cand in cands:
            pairs = 0
            for row in draws.draws.tolist():
                cells = Counter(zip(cand.labels, row))
                pairs += (sum(a * a for a in cand.sizes)
                          + sum(b * b for b in Counter(row).values())
                          - 2 * sum(x * x for x in cells.values()))
            exact = Fraction(pairs, draws.m * n * n)
            error = abs(Fraction(expected_binder(cand, psm)) - exact)
            assert error <= 4 * Fraction(np.spacing(float(exact)))


class TestExpectedVi:
    def test_degenerate_posterior(self):
        c = canonicalize([0, 1, 1, 2])
        draws = DrawMatrix(np.tile(np.array(c.labels), (4, 1)))
        assert expected_vi(c, draws) == 0.0

    def test_degenerate_posterior_other_candidate(self):
        c = canonicalize([0, 1, 1, 2])
        d = canonicalize([0, 0, 1, 1])
        draws = DrawMatrix(np.tile(np.array(c.labels), (4, 1)))
        assert expected_vi(d, draws) == pytest.approx(vi(c, d), abs=TOL)

    def test_two_draw_posterior(self):
        draws = DrawMatrix(np.array([[0, 0, 0, 0], [0, 1, 2, 3]]))
        assert expected_vi(one_cluster(4), draws) == pytest.approx(
            1.0, abs=TOL
        )

    def test_equals_mean_of_per_draw_distances(self, rng):
        draws = synthetic_draws(rng, 8, 25)
        for _ in range(10):
            cand = canonicalize(rng.integers(0, 4, size=8).tolist())
            direct = np.mean(
                [vi(part_of_row(draws, m), cand) for m in range(draws.m)]
            )
            assert expected_vi(cand, draws) == pytest.approx(direct, abs=TOL)

    def test_dimension_mismatch(self):
        draws = DrawMatrix(np.array([[0, 0, 1]]))
        with pytest.raises(ValueError):
            expected_vi(one_cluster(4), draws)


class TestExpectedViLower:
    def test_degenerate_posterior_tight(self):
        c = canonicalize([0, 1, 1, 2, 2])
        draws = DrawMatrix(np.tile(np.array(c.labels), (6, 1)))
        assert expected_vi_lower(c, draws) == pytest.approx(0.0, abs=TOL)
        assert expected_vi(c, draws) == pytest.approx(0.0, abs=TOL)

    def test_two_draw_posterior_hand_value(self):
        # the posterior term is the draws' mean of (1/N) sum_n log2|c_n|:
        # (log2(4) + 0) / 2 = 1 bit.  The similarity matrix has unit
        # diagonal and 0.5 elsewhere; for the one-cluster candidate each
        # item sees mass 1 + 3 * 0.5, giving log2(4) - 2 * log2(2.5) per item
        draws = DrawMatrix(np.array([[0, 0, 0, 0], [0, 1, 2, 3]]))
        expect = 1.0 + math.log2(4) - 2 * math.log2(1 + 3 * 0.5)
        value = expected_vi_lower(one_cluster(4), draws)
        assert value == pytest.approx(expect, abs=TOL)
        assert value <= expected_vi(one_cluster(4), draws)

    def test_singletons_candidate_is_zero(self):
        # the Jensen gap is zero here: each item's own-cluster mass is
        # p_nn = 1, so the joint term is exact and the bound equals E[VI],
        # which is 1 bit for this posterior
        draws = DrawMatrix(np.array([[0, 0, 0, 0], [0, 1, 2, 3]]))
        value = expected_vi_lower(singletons(4), draws)
        assert value == pytest.approx(expected_vi(singletons(4), draws), abs=TOL)
        assert value == pytest.approx(1.0, abs=TOL)

    def test_jensen_bound_randomized(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 9))
            draws = synthetic_draws(rng, n, int(rng.integers(2, 51)))
            for cand in (
                one_cluster(n),
                singletons(n),
                canonicalize(rng.integers(0, 3, size=n).tolist()),
                part_of_row(draws, 0),
            ):
                assert expected_vi_lower(cand, draws) <= expected_vi(
                    cand, draws
                ) + 1e-9


class TestDrawDistances:
    def test_matches_scalar_metric(self, rng):
        # bit for bit: vi and binder of (draw, centre) are the draw's entry,
        # also at 10 to 20 clusters a side, where numpy's sum of a draw's
        # cell terms rounds apart from the sum the two share
        for draws, k in ((synthetic_draws(rng, 7, 30), 3),
                         (DrawMatrix(rng.integers(0, 20, size=(30, 60))), 20)):
            center = canonicalize(rng.integers(0, k, size=draws.n).tolist())
            for metric, fn in ((Metric.VI, vi), (Metric.BINDER, binder)):
                d = draw_distances(center, draws, metric)
                expect = [fn(part_of_row(draws, m), center) for m in range(30)]
                assert d.tolist() == expect

    def test_identical_rows_identical_distances(self):
        rows = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        d = draw_distances(one_cluster(4), DrawMatrix(rows), Metric.VI)
        assert d[0] == d[2]

    def test_binder_mean_and_psm_within_four_ulps(self):
        # the posterior expected Binder loss both ways, from P and as the
        # mean of the draw distances: the estimate's report reads the
        # latter for a VI optimum, the Binder search the former
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 41))
            draws = synthetic_draws(rng, n, int(rng.integers(1, 61)),
                                    None if seed % 2 else int(rng.integers(1, 6)))
            psm = similarity_matrix(draws)
            for cand in (canonicalize(rng.integers(0, 4, size=n).tolist()),
                         part_of_row(draws, draws.m - 1)):
                pairs = 0
                for row in draws.draws.tolist():
                    cells = Counter(zip(cand.labels, row))
                    pairs += (sum(a * a for a in cand.sizes)
                              + sum(b * b for b in Counter(row).values())
                              - 2 * sum(x * x for x in cells.values()))
                exact = Fraction(pairs, draws.m * n * n)
                ulp = Fraction(np.spacing(float(exact)))
                mean = draw_distances(cand, draws, Metric.BINDER).mean()
                for value in (expected_binder(cand, psm), float(mean)):
                    assert abs(Fraction(value) - exact) <= 4 * ulp

    def test_expected_vi_within_eight_ulps(self):
        # against E[VI] to 50 digits: (1/MN) Σ_m (Σ_A f(|A|) + Σ_B f(|B|) -
        # 2 Σ_AB f(|A ∩ B|)), f(n) = n log2 n, over the clusters A of the
        # candidate and B of draw m.  The posteriors of the Binder check
        # above, where the last draw's candidate holds the exact 0 of an M = 1
        # posterior or of a posterior of copies, and noisy copies of one
        # partition (N 10-60, M 5-80, 1-3 items moved per draw) with the last
        # draw as candidate: close draws, where a difference of sums cancels
        with localcontext() as ctx:
            ctx.prec = 50
            f = [Decimal(0)] + [Decimal(size) * Decimal(size).ln() / Decimal(2).ln()
                                for size in range(1, 61)]
        cases = []
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 41))
            draws = synthetic_draws(rng, n, int(rng.integers(1, 61)),
                                    None if seed % 2 else int(rng.integers(1, 6)))
            cases += [(draws, canonicalize(rng.integers(0, 4, size=n).tolist())),
                      (draws, part_of_row(draws, draws.m - 1))]
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 61))
            truth = rng.integers(0, int(rng.integers(1, 9)), size=n)
            rows = np.tile(truth, (int(rng.integers(5, 81)), 1))
            for row in rows:
                moved = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
                row[moved] = rng.integers(0, truth.max() + 2, size=moved.size)
            draws = DrawMatrix(rows)
            cases.append((draws, part_of_row(draws, draws.m - 1)))
        for draws, cand in cases:
            with localcontext() as ctx:
                ctx.prec = 50
                total = Decimal(0)
                for row in draws.draws.tolist():
                    cells = Counter(zip(cand.labels, row))
                    total += (sum(f[a] for a in cand.sizes)
                              + sum(f[b] for b in Counter(row).values())
                              - 2 * sum(f[x] for x in cells.values()))
                exact = total / (draws.m * draws.n)
                value = expected_vi(cand, draws)
                ulp = Decimal(np.spacing(float(exact)))
                assert abs(Decimal(value) - exact) <= 8 * ulp
            # one formula: the estimator is the mean of the distances
            mean = draw_distances(cand, draws, Metric.VI).mean()
            assert value == float(mean)

    def test_copies_are_at_exactly_zero(self):
        # k = 1...30 clusters of up to 300 items: every cell of a draw equal
        # to the centre holds a whole cluster, n_ab = n_a = n_b, and adds 0
        for k in range(1, 31):
            rng = np.random.default_rng(k)
            n = int(rng.integers(k, 301))
            c = canonicalize(rng.permutation(np.arange(n) % k).tolist())
            draws = DrawMatrix(np.tile(c.labels, (int(rng.integers(1, 41)), 1)))
            for metric in Metric:
                assert (draw_distances(c, draws, metric) == 0.0).all()
            assert expected_vi(c, draws) == 0.0
            assert expected_vi_lower(c, draws) == 0.0

    def test_no_distance_is_negative(self):
        # copies of a centre among perturbed and random draws: the copies
        # are at exactly 0 and nothing lies below it, E[VI] included
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(2, 301)), int(rng.integers(1, 31))
            c = canonicalize(rng.integers(0, k, size=n).tolist())
            rows = np.tile(c.labels, (int(rng.integers(2, 41)), 1))
            copy = rng.random(len(rows)) < 0.5
            for m in np.flatnonzero(~copy):
                moved = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                rows[m, moved] = rng.integers(0, k + 1, size=moved.size)
            draws = DrawMatrix(rows)
            for metric in Metric:
                d = draw_distances(c, draws, metric)
                assert (d >= 0.0).all() and (d[copy] == 0.0).all()
            for cand in (c, part_of_row(draws, 0), one_cluster(n), singletons(n)):
                assert expected_vi(cand, draws) >= 0.0


class TestBestSampled:
    def test_single_draw(self):
        draws = DrawMatrix(np.array([[0, 1, 1]]))
        part, loss = best_sampled(draws, Metric.VI)
        assert part.labels == (0, 1, 1)
        assert loss == 0.0

    def test_degenerate_posterior_zero_loss(self):
        draws = DrawMatrix(np.tile(np.array([0, 0, 1]), (4, 1)))
        for metric in (Metric.VI, Metric.BINDER):
            part, loss = best_sampled(draws, metric)
            assert part.labels == (0, 0, 1)
            assert loss == pytest.approx(0.0, abs=TOL)

    def test_brute_force_oracle_over_all_candidates(self):
        # posterior: every partition of 4 items once, plus 8 extra copies
        # of one target; the target must win under both metrics
        target = canonicalize([0, 0, 1, 1])
        rows = [p.labels for p in all_partitions(4)]
        rows += [target.labels] * 8
        draws = DrawMatrix(np.asarray(rows))
        psm = similarity_matrix(draws)
        for metric, estimator in (
            (Metric.VI, "exact"),
            (Metric.BINDER, "exact"),
            (Metric.VI, "lower-bound"),
        ):
            part, loss = best_sampled(draws, metric, estimator)
            oracle = min(
                (expected_loss(p, draws, metric, estimator, psm), p.labels)
                for p in all_partitions(4)
            )
            assert loss == pytest.approx(oracle[0], abs=TOL)
            assert part.labels == oracle[1] == target.labels

    def test_tie_broken_by_first_occurrence(self):
        # two singleton draws at equal distance from each other: each has
        # the same expected loss, so the first row must win
        rows = np.array([[0, 1, 2, 2], [0, 1, 1, 2]])
        part, _ = best_sampled(DrawMatrix(rows), Metric.VI)
        assert part.labels == (0, 1, 2, 2)

    def test_lower_bound_requires_vi(self):
        draws = DrawMatrix(np.array([[0, 0, 1]]))
        with pytest.raises(ValueError):
            best_sampled(draws, Metric.BINDER, "lower-bound")

    @pytest.mark.parametrize("metric,estimator", ESTIMATES)
    def test_tie_broken_by_first_occurrence_for_every_estimator(
        self, metric, estimator
    ):
        # the two draws mirror each other (swap items 1 and 3), so every
        # estimator gives them the same loss: the first row wins
        rows = np.array([[0, 1, 2, 2], [0, 1, 1, 2]])
        for order in (rows, rows[::-1]):
            draws = DrawMatrix(order)
            part, loss = best_sampled(draws, metric, estimator)
            assert part.labels == tuple(order[0])
            assert loss == expected_loss(part, draws, metric, estimator)

    @pytest.mark.parametrize("metric,estimator", ESTIMATES)
    @pytest.mark.parametrize("rows", [
        [[0], [0], [0]],  # one item
        [[0, 1, 1, 0, 2]],  # one draw
        [[0, 0, 1, 2, 2]] * 6,  # degenerate posterior
    ])
    def test_edge_posteriors(self, metric, estimator, rows):
        draws = DrawMatrix(np.array(rows))
        part, loss = best_sampled(draws, metric, estimator)
        assert part.labels == tuple(rows[0])
        assert loss == pytest.approx(0.0, abs=TOL)
        assert loss == expected_loss(part, draws, metric, estimator)


def reference_best(draws, metric, estimator):
    """The draw of smallest public expected loss, one call per distinct
    draw in chain order, ties to the first."""
    _, first = np.unique(draws.draws, axis=0, return_index=True)
    best = None
    for m in np.sort(first):
        c = draws.row(m)
        loss = expected_loss(c, draws, metric, estimator)
        if best is None or loss < best[1]:
            best = (c, loss)
    return best


def shared_cluster_draws(rng):
    """Items 0-11 form one cluster in every draw; items 12-19 vary."""
    rows = np.zeros((60, 20), dtype=np.int64)
    rows[:, 12:] = rng.integers(1, 5, size=(60, 8))
    return DrawMatrix(rows)


def weighted_draws(rng):
    """Four distinct draws, all singletons among them, repeated 9, 4, 2
    and 1 times in a shuffled chain."""
    pool = [list(range(10)), [0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
            [0] * 5 + [1] * 5, [0, 1, 2, 3, 4, 0, 0, 0, 5, 6]]
    rows = np.repeat(np.asarray(pool), [9, 4, 2, 1], axis=0)
    return DrawMatrix(rows[rng.permutation(len(rows))])


def odd_cluster_draws(rng):
    """N = 12 and eleven distinct clusters of more than one item, so one
    tile holds them all and its last column packs a single cluster."""
    pairs, triples = np.repeat(np.arange(6), 2), np.repeat(np.arange(4), 3)
    rows = np.array([pairs, triples, np.r_[np.arange(9), 9, 9, 9],
                     np.zeros(12, int), triples, np.arange(12)])
    draws = DrawMatrix(rows)
    clusters = {frozenset(np.flatnonzero(row == k).tolist())
                for row in draws.draws for k in range(row.max() + 1)}
    assert sum(len(c) > 1 for c in clusters) == 11
    return draws


def split_block_draws(rng):
    """Items 0-11 and 12-23 are clustered apart in every draw, each block by
    its own CRP, so no cluster holds items of both blocks."""
    rows = [crp_row(rng, 12) + [12 + x for x in crp_row(rng, 12)]
            for _ in range(80)]
    return DrawMatrix(np.asarray(rows))


def with_last_draw(row):
    """A posterior of 60 random draws over 15 items, ``row`` the last."""
    def posterior(rng):
        rows = synthetic_draws(rng, 15, 60).draws.copy()
        rows[-1] = row
        return DrawMatrix(rows)
    return posterior


def spread_posterior(seed, n, m):
    """Five base clusters; each draw moves 6 random items to any of 7
    labels, so nearly every draw and cluster is distinct."""
    rng = np.random.default_rng(seed)
    rows = np.tile(rng.integers(0, 5, size=n), (m, 1))
    for row in rows:
        row[rng.choice(n, size=6, replace=False)] = rng.integers(0, 7, size=6)
    return DrawMatrix(rows)


class TestScan:
    @pytest.mark.parametrize("metric,estimator", ESTIMATES)
    def test_scanned_loss_of_every_draw_matches_the_estimator(
        self, rng, metric, estimator
    ):
        for n, m, support in ((6, 40, 5), (9, 120, 30), (30, 200, 60)):
            draws = synthetic_draws(rng, n, m, support=support)
            scanned = _scanned_losses(draws, metric, estimator)
            exact = [expected_loss(draws.row(u), draws, metric, estimator)
                     for u in range(draws.m)]  # every draw, in chain order
            np.testing.assert_allclose(scanned, exact, rtol=0, atol=TOL)

    @pytest.mark.parametrize("metric,estimator", ESTIMATES)
    @pytest.mark.parametrize("cells", [1, 64, 2**30])
    def test_any_tile_budget_gives_the_reference_draw(
        self, rng, monkeypatch, metric, estimator, cells
    ):
        # 1 cell puts every draw in a tile of its own, wider than the
        # budget; 64 packs a few draws per tile and walks off-diagonal
        # tiles; 2**30 scans everything as one diagonal tile
        monkeypatch.setattr(postclust.posterior, "TILE_CELLS", cells)
        for n, m, support in ((5, 30, 4), (8, 60, 25), (12, 80, None)):
            draws = synthetic_draws(rng, n, m, support=support)
            part, loss = best_sampled(draws, metric, estimator)
            ref_part, ref_loss = reference_best(draws, metric, estimator)
            assert part == ref_part and loss == ref_loss

    @pytest.mark.parametrize("metric,estimator", ESTIMATES)
    @pytest.mark.parametrize("cells", [1, 64, 2**30])
    @pytest.mark.parametrize("posterior", [
        shared_cluster_draws,
        lambda rng: synthetic_draws(rng, 13, 50, support=20),
        lambda rng: synthetic_draws(rng, 203, 30, support=12),
        lambda rng: DrawMatrix(np.tile(np.arange(9), (7, 1))),
        weighted_draws,
        # 256 items: a decode table of 257^2 rows passes 2^16, so tile J
        # holds one cluster per column; up to 255 it packs two
        lambda rng: synthetic_draws(rng, 256, 30, support=12),
        odd_cluster_draws,
        # the exact-VI scan sorts the clusters by the last draw's cluster of
        # most of their items and multiplies each tile pair over the items
        # both tiles hold.  Split blocks leave tile pairs with no item in
        # common, which are skipped (1 and 64 cells); a last draw of one
        # cluster gives every cluster the same key, and one of singletons
        # gives N keys
        split_block_draws,
        with_last_draw(np.zeros(15, int)),
        with_last_draw(np.arange(15)),
    ], ids=["shared-cluster", "n13", "n203", "all-singletons", "weighted",
            "n256-one-per-column", "odd-last-column", "split-blocks",
            "last-one-cluster", "last-singletons"])
    def test_scan_and_best_draw_match_the_estimator(
        self, rng, monkeypatch, metric, estimator, cells, posterior
    ):
        monkeypatch.setattr(postclust.posterior, "TILE_CELLS", cells)
        draws = posterior(rng)
        scanned = _scanned_losses(draws, metric, estimator)
        exact = [expected_loss(draws.row(u), draws, metric, estimator)
                 for u in range(draws.m)]
        np.testing.assert_allclose(scanned, exact, rtol=0, atol=TOL)
        assert best_sampled(draws, metric, estimator) == reference_best(
            draws, metric, estimator)

    def test_largest_packed_counts_decode_exactly(self, monkeypatch):
        # at N = 255 a column packing two clusters that hold every item
        # meets a row cluster of every item in the cell 255 + 256 * 255 =
        # 2^16 - 1, the last row of the decode table.  Distinct clusters
        # cannot both hold every item, so every cluster is kept apart here:
        # the all-in-one clusters of draws 0 and 1 share the first column
        def every_row_distinct(rows):
            order = np.arange(len(rows))
            return order, order, np.ones(len(rows), np.int64)

        monkeypatch.setattr(postclust.posterior, "_unique_rows",
                            every_row_distinct)
        halves = np.repeat([0, 1], [128, 127])
        draws = DrawMatrix(np.array([np.zeros(255, int), np.zeros(255, int),
                                     halves, np.arange(255)]))
        scanned = _scanned_losses(draws, Metric.VI, "exact")
        exact = [expected_vi(draws.row(u), draws) for u in range(draws.m)]
        np.testing.assert_allclose(scanned, exact, rtol=0, atol=TOL)

    def test_memory_stays_within_tiles(self):
        # the draws hold about 7000 distinct clusters: a product of all of
        # them against all would take some 190 MiB, and unpacking all their
        # indicators at once (5.5 MiB of float32) takes the peak past 8 MiB.
        # With a last draw of 200 singletons, a table of every cluster's
        # votes for each cluster of the last draw would pass 8 MiB too
        spread = spread_posterior(0, 200, 2000)
        for draws in (spread, DrawMatrix(np.vstack([spread.draws[:-1],
                                                    np.arange(200)]))):
            draws._row_xlogx  # the per-draw statistics every estimator shares
            tracemalloc.start()
            try:
                _scanned_losses(draws, Metric.VI, "exact")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20


class TestArgminConsistency:
    def test_binder_matches_sum_of_squares_form(self, rng):
        # the pair-counting expected loss and the squared-deviation form
        # around the similarity matrix must rank all 15 candidates alike
        draws = synthetic_draws(rng, 4, 40)
        psm = similarity_matrix(draws)
        iu = np.triu_indices(4, 1)

        def sum_sq(cand):
            same = (
                np.asarray(cand.labels)[:, None]
                == np.asarray(cand.labels)[None, :]
            )
            return ((same[iu] - psm[iu]) ** 2).sum()

        parts = all_partitions(4)
        by_loss = min(
            parts, key=lambda p: (expected_binder(p, psm), p.labels)
        )
        by_sq = min(parts, key=lambda p: (sum_sq(p), p.labels))
        assert by_loss == by_sq


@pytest.mark.parametrize("metric, estimator", [
    (Metric.VI, "exact"), (Metric.VI, "lower-bound"), (Metric.BINDER, "exact"),
])
def test_candidate_of_wrong_size_is_named(metric, estimator):
    # every loss rejects it by the item counts, before any loss is formed
    draws = DrawMatrix([[0, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError,
                       match="^candidate covers 2 items, posterior covers 3$"):
        expected_loss(canonicalize([0, 1]), draws, metric, estimator)


class TestMetricType:
    """A metric given as its name, not a ``Metric``, would take the other
    loss's branch (``"binder"`` would score the VI lower bound), so every
    entry point that branches on the metric rejects it."""

    @pytest.mark.parametrize("call", [
        lambda c, d, m: expected_loss(c, d, m),
        lambda c, d, m: best_sampled(d, m),
        lambda c, d, m: SearchConfig(metric=m),
        lambda c, d, m: draw_distances(c, d, m),
        lambda c, d, m: credible_ball(c, d, 0.05, m),
        lambda c, d, m: merge_delta((1, 2), 4, m),
        lambda c, d, m: closest_neighbors(c, m, 5),
    ], ids=["expected_loss", "best_sampled", "SearchConfig", "draw_distances",
            "credible_ball", "merge_delta", "closest_neighbors"])
    @pytest.mark.parametrize("metric", ["vi", "binder"])
    def test_metric_name_rejected(self, call, metric):
        draws = DrawMatrix([[0, 0, 1, 1], [0, 1, 1, 1], [0, 0, 0, 1]])
        with pytest.raises(ValueError, match="must be a Metric"):
            call(draws.row(0), draws, metric)


class TestUniqueRows:
    @pytest.mark.parametrize("n", [1, 9, 300])
    def test_matches_np_unique(self, rng, n):
        # 300 items: labels pass 255, so the keys are two bytes wide.  Two
        # rows share labels 0-255 and then hold 256 and 7, which a
        # little-endian key would sort by their low bytes 0 and 7
        pool = np.array([crp_row(rng, n, alpha=n / 4) for _ in range(12)])
        pool[1] = np.arange(n)
        pool[2] = np.where(np.arange(n) < 256, np.arange(n), 7)
        rows = _canonical_rows(pool[rng.integers(0, len(pool), size=90)])
        for row in pool[1:3]:
            assert (rows == row).all(axis=1).any()
        members = rng.permutation(len(rows))[:50]
        for sample in (rows, rows[members], rows[:1]):
            first, _, counts = _unique_rows(sample)
            _, want_first, want_counts = np.unique(
                sample, axis=0, return_index=True, return_counts=True)
            np.testing.assert_array_equal(first, want_first)
            np.testing.assert_array_equal(counts, want_counts)

    @pytest.mark.parametrize("width", [1, 2, 300])
    def test_inverse_of_packed_bytes(self, rng, width):
        # packed bitmasks, as the exact-VI scan dedupes its clusters: every
        # byte value 0-255 is a key, whatever the row length
        pool = rng.integers(0, 256, size=(6, width), dtype=np.uint8)
        pool[0] = 255
        rows = pool[rng.integers(0, len(pool), size=40)]
        first, inverse, counts = _unique_rows(rows)
        _, want_first, want_inverse, want_counts = np.unique(
            rows, axis=0, return_index=True, return_inverse=True,
            return_counts=True)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(inverse, want_inverse.ravel())
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(rows[first][inverse], rows)
