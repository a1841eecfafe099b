import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from copaug import rng
from copaug.evaluation import (
    PROJECTION_STATISTICS,
    band_depth,
    error_metrics,
    random_projection_report,
    write_depth_report,
    write_level_quantiles,
    write_projection_report,
)


def read_table(path):
    """The header and the float cells after the first column of a written CSV."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return header, [r[0] for r in rows], np.array([[float(c) for c in r[1:]] for r in rows])


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), np.asarray(want, dtype=float).view(np.uint64))


def reference_projection(real, synth, iters, seed):
    """Iteration i takes the next d normals of one stream as its direction; (iters, 2, statistics)."""
    gen = rng.stream(seed)
    stats = []
    for _ in range(iters):
        w = ndtri(np.clip(gen.random(real.shape[1]), rng._UNIT_LO, rng._UNIT_HI))
        stats.append([[p.mean(), p.var(ddof=1), p.std(ddof=1), *(np.quantile(p, q) for q in (0.1, 0.5, 0.9))]
                      for p in (real @ w, synth @ w)])
    return np.array(stats)


class TestProjectionReport:
    @pytest.mark.parametrize("n_real, n_synth, d, iters", [(30, 45, 1, 9), (120, 80, 17, 30), (64, 300, 140, 5)])
    def test_matches_the_per_iteration_reference(self, n_real, n_synth, d, iters):
        gen = np.random.default_rng(d)
        real, synth = gen.normal(size=(n_real, d)), 3.0 * gen.normal(size=(n_synth, d)) + 1.0
        rep = random_projection_report(real, synth, iters, seed=d + 1)
        got = np.array([[rep.stats[name][side] for name in PROJECTION_STATISTICS] for side in (0, 1)])
        assert_same_bits(got, reference_projection(real, synth, iters, d + 1).transpose(1, 2, 0))

    def test_identical_matrices_exact_diagonal(self):
        x = np.random.default_rng(0).normal(size=(40, 6))
        rep = random_projection_report(x, x, iters=20, seed=3)
        for name in PROJECTION_STATISTICS:
            s_real, s_synth = rep.stats[name]
            np.testing.assert_array_equal(s_real, s_synth)

    def test_row_permutation_invariance(self):
        gen = np.random.default_rng(1)
        x = gen.normal(size=(30, 4))
        rep = random_projection_report(x, x[gen.permutation(30)], iters=10, seed=5)
        for name in PROJECTION_STATISTICS:
            s_real, s_synth = rep.stats[name]
            np.testing.assert_allclose(s_real, s_synth, rtol=1e-12)

    def test_column_mismatch(self):
        with pytest.raises(ValueError, match="column"):
            random_projection_report(np.zeros((5, 3)), np.zeros((5, 4)), 2, 0)

    def test_deterministic(self):
        x = np.random.default_rng(2).normal(size=(25, 5))
        y = np.random.default_rng(3).normal(size=(20, 5))
        a = random_projection_report(x, y, iters=7, seed=11)
        b = random_projection_report(x, y, iters=7, seed=11)
        for name in PROJECTION_STATISTICS:
            np.testing.assert_array_equal(a.stats[name][1], b.stats[name][1])

    @pytest.mark.parametrize("n_real, n_synth, d, iters, seed, digest", [
        (200, 150, 33, 25, 9, "6c373344d50ee0e4897eb9b6ab541652ac9047d26499dc756164c9101e58062b"),
        (40, 60, 3, 7, 2, "53c2bc33225f279bfb6984389ccff9da6837e0b7edfb2359174c2dcad9c8b9ce"),
    ])
    def test_stats_match_recorded_sha256(self, n_real, n_synth, d, iters, seed, digest):
        # Recorded when each iteration drew its own direction from one generator.
        gen = np.random.default_rng(d)
        rep = random_projection_report(gen.normal(size=(n_real, d)), gen.normal(size=(n_synth, d)),
                                       iters, seed)
        stats = b"".join(a.tobytes() for name in PROJECTION_STATISTICS for a in rep.stats[name])
        assert hashlib.sha256(stats).hexdigest() == digest

    def test_report_file(self, tmp_path):
        x = np.random.default_rng(4).normal(size=(10, 3))
        rep = random_projection_report(x, 2.0 * x[::-1] + 1.0, iters=3, seed=1)
        path = tmp_path / "proj.csv"
        write_projection_report(path, rep)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "statistic,iteration,s_real,s_synth"
        assert len(lines) == 1 + len(PROJECTION_STATISTICS) * 3
        _, names, values = read_table(path)
        assert names == [name for name in PROJECTION_STATISTICS for _ in range(3)]
        assert_same_bits(values[:, 0], np.tile(np.arange(3.0), len(PROJECTION_STATISTICS)))
        for k, name in enumerate(PROJECTION_STATISTICS):
            assert_same_bits(values[3 * k:3 * k + 3, 1:].T, rep.stats[name])


class TestBandDepth:
    def test_three_nested_curves(self):
        curves = np.array([[1.0, 1, 1], [2, 2, 2], [3, 3, 3]])
        np.testing.assert_allclose(band_depth(curves), [2 / 3, 1.0, 2 / 3])

    def test_four_ordered_curves(self):
        curves = np.array([[1.0, 1], [2, 2], [3, 3], [4, 4]])
        np.testing.assert_allclose(band_depth(curves), [0.5, 5 / 6, 5 / 6, 0.5])

    def test_identical_curves_all_one(self):
        curves = np.ones((5, 4))
        np.testing.assert_array_equal(band_depth(curves), np.ones(5))

    def test_crossing_curve_outside(self):
        # A curve leaving the band at a single point is not enveloped there.
        a = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 3.0]])
        depths = band_depth(a)
        assert depths[2] < 1.0

    def test_needs_three(self):
        with pytest.raises(ValueError):
            band_depth(np.zeros((2, 4)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=-10.0, max_value=10.0))
    def test_positive_affine_invariance(self, seed, scale, shift):
        curves = np.random.default_rng(seed).normal(size=(6, 5))
        np.testing.assert_array_equal(band_depth(curves), band_depth(scale * curves + shift))


def depth_report(tmp_path, curves):
    """The (level, 3) values of the depth report written for `curves`."""
    path = tmp_path / "depth.csv"
    write_depth_report(path, curves)
    _, levels, values = read_table(path)
    assert levels == [str(t) for t in range(curves.shape[1])]
    return values


def reference_envelope(curves):
    """q_low, q_mid, q_high from band_depth and a plain sort: deepest first, ties by index."""
    depth = band_depth(curves)
    order = sorted(range(len(curves)), key=lambda i: (-depth[i], i))
    central = curves[order[:math.ceil(len(curves) / 4)]]
    return np.column_stack([central.min(axis=0), curves[order[0]], central.max(axis=0)])


class TestDepthReport:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=3, max_value=13))
    def test_central_set_is_deepest_quarter(self, tmp_path_factory, seed, n):
        # Small integer curves tie often, in depth and in value.
        curves = np.random.default_rng(seed).integers(0, 4, size=(n, 4)).astype(float)
        values = depth_report(tmp_path_factory.mktemp("depth"), curves)
        assert_same_bits(values, reference_envelope(curves))

    def test_tie_breaks_by_index(self, tmp_path):
        # Five parallel lines: depths 0.4, 0.7, 0.8, 0.7, 0.4.  The central pair is
        # the middle line and, of the tied lines 1 and 3, the lower index.
        curves = np.arange(1.0, 6.0)[:, None] * np.ones(3)
        values = depth_report(tmp_path, curves)
        assert_same_bits(values, np.column_stack([curves[1], curves[2], curves[2]]))
        assert_same_bits(values, reference_envelope(curves))

    def test_nested_median(self, tmp_path):
        # The middle of three nested curves is the deepest, and the central set alone.
        curves = np.array([[1.0, 1, 1], [2, 2, 2], [3, 3, 3]])
        assert_same_bits(depth_report(tmp_path, curves), np.full((3, 3), 2.0))


class TestErrorMetrics:
    def test_perfect_prediction(self):
        y = np.random.default_rng(0).normal(size=(8, 3))
        em = error_metrics(y, y)
        assert em.mb == 0.0 and em.mae == 0.0

    def test_cancellation(self):
        em = error_metrics(np.array([[1.0], [-1.0]]), np.zeros((2, 1)))
        assert em.mb == 0.0 and em.mae == 1.0

    def test_arithmetic(self):
        em = error_metrics(np.array([[2.0], [4.0]]), np.zeros((2, 1)))
        assert em.mb == 3.0 and em.mae == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_metrics(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_level_quantiles_shape(self):
        em = error_metrics(np.random.normal(size=(40, 6)), np.zeros((40, 6)))
        assert em.level_quantiles.shape == (6, 3)
        assert np.all(em.level_quantiles[:, 0] <= em.level_quantiles[:, 2])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_mae_dominates_bias(self, seed):
        gen = np.random.default_rng(seed)
        yt = gen.normal(size=(7, 4))
        yp = gen.normal(size=(7, 4))
        em = error_metrics(yt, yp)
        assert em.mae >= abs(em.mb)

    def test_quantile_file(self, tmp_path):
        em = error_metrics(np.random.normal(size=(10, 4)), np.zeros((10, 4)))
        path = tmp_path / "levels.csv"
        write_level_quantiles(path, em)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "level,q_low,q_mid,q_high"
        assert len(lines) == 5
        _, levels, values = read_table(path)
        assert levels == ["0", "1", "2", "3"]
        assert_same_bits(values, em.level_quantiles)


def test_depth_report_file(tmp_path):
    curves = np.random.default_rng(5).normal(size=(9, 4))
    values = depth_report(tmp_path, curves)
    assert (tmp_path / "depth.csv").read_text().splitlines()[0] == "level,q_low,q_mid,q_high"
    assert_same_bits(values, reference_envelope(curves))
