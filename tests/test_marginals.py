import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp, rankdata

from copaug import rng
from copaug.dataset import LevelGrid, flatten, generate_surrogate
from copaug.marginals import pseudo_observations, quantile
from copaug.dataset import SchemaError
from copaug.multicop import CopulaSpec, fit_synth_model, model_from_dict, model_to_dict


def interp_reference(table, U):
    """The per-column quantile: one np.interp on each column's own grid."""
    out = np.empty_like(U)
    for j, row in enumerate(table):
        probs = np.arange(1, row.size + 1) / (row.size + 1.0)
        out[:, j] = np.interp(np.ascontiguousarray(U[:, j]), probs, np.ascontiguousarray(row))
    return out


class TestFit:
    def test_sorts_input(self):
        train = generate_surrogate(30, LevelGrid(4), 3)
        model = fit_synth_model(train, CopulaSpec(kind="gaussian"))
        X = flatten(train).values
        assert model.marginals.shape == (X.shape[1], 30)
        for j in range(X.shape[1]):
            np.testing.assert_array_equal(model.marginals[j], np.sort(X[:, j]))

    def test_constant_column_accepted(self):
        table = np.full((1, 3), 5.0)
        np.testing.assert_array_equal(quantile(table, [[0.1], [0.5], [0.9]], [0]), [[5.0]] * 3)

    def test_large_column(self):
        table = np.arange(10_000, dtype=float)[None, :]
        probs = np.arange(1, 10_001) / 10_001.0
        np.testing.assert_array_equal(quantile(table, probs[:, None], [0])[:, 0], table[0])

    def test_too_small(self):
        one = generate_surrogate(1, LevelGrid(4), 3)
        with pytest.raises(ValueError, match="at least 2 values"):
            fit_synth_model(one, CopulaSpec(kind="gaussian"))

    def test_non_finite(self):
        model = fit_synth_model(generate_surrogate(20, LevelGrid(3), 1), CopulaSpec(kind="gaussian"))
        for bad in (np.inf, -np.inf):
            doc = model_to_dict(model)
            doc["marginals"][0][-1] = bad
            with pytest.raises(SchemaError, match="^marginals: values must be finite"):
                model_from_dict(doc)


class TestPseudoObservations:
    def test_rank_values(self):
        u = pseudo_observations(np.array([5.0, 1.0, 9.0]))
        np.testing.assert_allclose(u, [0.50, 0.25, 0.75])

    def test_ties_average(self):
        u = pseudo_observations(np.array([7.0, 7.0]))
        np.testing.assert_allclose(u, [0.5, 0.5])

    def test_increasing_column(self):
        n = 17
        u = pseudo_observations(np.arange(n, dtype=float))
        np.testing.assert_allclose(u, np.arange(1, n + 1) / (n + 1))

    def test_strictly_inside_unit_interval(self):
        u = pseudo_observations(np.random.default_rng(0).normal(size=(50, 3)))
        assert np.all(u > 0) and np.all(u < 1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=30))
    def test_monotone_transform_invariance(self, vals):
        x = np.array(vals, dtype=float)
        transformed = np.exp(x / 25.0) + 3.0 * x  # strictly increasing
        np.testing.assert_array_equal(pseudo_observations(x), pseudo_observations(transformed))

    def test_rank_recovery_without_ties(self):
        x = np.random.default_rng(1).permutation(20).astype(float)
        u = pseudo_observations(x)
        ranks = np.round(u * 21).astype(int)
        np.testing.assert_array_equal(np.sort(ranks), np.arange(1, 21))


@st.composite
def tied_matrices(draw):
    """A 1-d or 2-d matrix of n >= 2 rows whose values repeat: runs of ties
    mixing 0.0 and -0.0, a few other integers and arbitrary floats, with
    some columns made constant."""
    n = draw(st.integers(2, 40))
    d = draw(st.one_of(st.none(), st.integers(1, 6)))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0]), st.floats(-1e6, 1e6))
    x = np.array(draw(st.lists(value, min_size=n * (d or 1), max_size=n * (d or 1))))
    if d is None:
        return x
    x = x.reshape(n, d)
    for j in draw(st.sets(st.integers(0, d - 1))):
        x[:, j] = x[0, j]
    return x


@settings(max_examples=300, deadline=None)
@given(tied_matrices())
@example(np.array([0.0, -0.0]))
@example(np.array([[-0.0, 3.0, 1.0], [0.0, 3.0, -0.0], [-0.0, 3.0, 0.0], [2.0, 3.0, -0.0]]))
def test_pseudo_observations_are_scipy_average_ranks_to_the_bit(x):
    expected = rankdata(x, method="average", axis=0) / (x.shape[0] + 1.0)
    u = pseudo_observations(x)
    assert u.shape == expected.shape and u.dtype == expected.dtype
    assert u.tobytes() == expected.tobytes()


@st.composite
def tables_and_uniforms(draw):
    """A sorted (d, n) table with ties and constant rows, and a (rows, d) U
    drawn from the grid points k/(n+1), one ulp either side of them, the
    extreme doubles inside (0, 1) and arbitrary values.  d reaches past two
    of quantile's column blocks, so each table row is a copy of one of up
    to four drawn rows or of a constant -0.0 row, and each U column a copy
    of one of four drawn columns."""
    d = draw(st.integers(1, 40))
    n = draw(st.integers(2, 25))
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6))
    rows = np.sort(np.array(draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                          min_size=1, max_size=4))), axis=1)
    for j in draw(st.sets(st.integers(0, len(rows) - 1))):
        rows[j] = rows[j, 0]
    rows = np.vstack([rows, np.full(n, -0.0)])
    table = rows[draw(st.lists(st.integers(0, len(rows) - 1), min_size=d, max_size=d))]
    probs = np.arange(1, n + 1) / (n + 1.0)
    points = np.concatenate([probs, np.nextafter(probs, 0.0), np.nextafter(probs, 1.0),
                             [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]])
    u = st.one_of(st.sampled_from(points.tolist()),
                  st.floats(min_value=np.nextafter(0.0, 1.0), max_value=np.nextafter(1.0, 0.0)))
    n_rows = draw(st.integers(1, 12))
    U = np.array(draw(st.lists(st.lists(u, min_size=4, max_size=4), min_size=n_rows, max_size=n_rows)))
    return table, U[:, draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))]


def desk_table():
    """The sorted marginal table of 1,000 surrogate profiles at 20 levels:
    60 columns, the constant ones among them."""
    return np.sort(flatten(generate_surrogate(1000, LevelGrid(20), 7)).values.T, axis=1)


class TestCdfQuantile:
    """The quantile, inverse of the CDF through (k/(n+1), z_(k))."""

    def setup_method(self):
        self.table = np.array([[1.0, 2.0, 3.0]])

    def test_quantile_at_node(self):
        assert quantile(self.table, [[0.5]], [0]) == 2.0

    def test_quantile_clamps(self):
        assert quantile(self.table, [[0.001]], [0]) == 1.0
        assert quantile(self.table, [[0.999]], [0]) == 3.0

    def test_quantile_inverts_cdf_example(self):
        assert quantile(self.table, [[0.375]], [0]) == 1.5

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, np.nan):
            with pytest.raises(ValueError, match="strictly inside"):
                quantile(self.table, [[bad]], [0])
        for columns in ([0, 0], [1], [-1]):
            with pytest.raises(ValueError, match="^quantile needs 1 column indices"):
                quantile(self.table, [[0.5]], columns)
        with pytest.raises(ValueError, match="at least 2 samples"):
            quantile(np.array([[1.0]]), [[0.5]], [0])

    @settings(max_examples=200, deadline=None)
    @given(tables_and_uniforms())
    def test_quantile_bitwise_matches_interp(self, case):
        table, U = case
        got = quantile(table, U, np.arange(len(table)))
        assert np.array_equal(got.view(np.uint64), interp_reference(table, U).view(np.uint64))

    def test_quantile_bitwise_matches_interp_at_desk_shape(self):
        table = desk_table()
        assert np.count_nonzero(table[:, -1] == table[:, 0]) > 0
        probs = np.arange(1, 1001) / 1001.0
        U = rng.uniforms(11, (10_000, 60))
        U[:3002] = np.concatenate([probs, np.nextafter(probs, 0.0), np.nextafter(probs, 1.0),
                                   [1e-10, 1.0 - 1e-10]])[:, None]
        got = quantile(table, U, np.arange(len(table)))
        assert np.array_equal(got.view(np.uint64), interp_reference(table, U).view(np.uint64))

    def test_quantile_returns_each_sample_at_its_grid_point(self):
        # For some k, fl(k/(n+1)) * (n+1) rounds below k, so the bracket
        # estimate lands one segment low; the sample must come back exactly.
        for n in range(2, 200):
            table = np.sort(rng.normals(n, (3, n)), axis=1)
            probs = np.arange(1, n + 1) / (n + 1.0)
            got = quantile(table, np.repeat(probs[:, None], 3, axis=1), np.arange(3))
            assert np.array_equal(got.T.view(np.uint64), table.view(np.uint64)), n

    def test_quantile_special_rows_match_interp(self):
        # np.interp retries a NaN blend from the bracket's right end, then
        # falls back to a tied value; inf - inf in a slope or a blend takes
        # those paths.
        # A row of zeros returns -0.0 only at a grid point holding one.
        table = np.array([[-np.inf, -np.inf, 5.0], [1.0, 2.0, np.inf], [-np.inf, 0.0, np.inf],
                          [-1e308, 1e308, 1e308], [np.inf] * 3, [0.0, -0.0, 0.0], [-0.0] * 3])
        probs = np.arange(1, 4) / 4.0
        U = np.concatenate([probs, np.nextafter(probs, 0.0), np.nextafter(probs, 1.0),
                            rng.uniforms(2, 20)])[:, None].repeat(len(table), axis=1)
        got = quantile(table, U, np.arange(len(table)))
        assert np.array_equal(got.view(np.uint64), interp_reference(table, U).view(np.uint64))

    def test_quantile_of_a_column_slice(self):
        table = desk_table()
        U = rng.uniforms(4, (500, 90))[:, 10:70]
        assert not U.flags.c_contiguous
        got = quantile(table, U, np.arange(len(table)))
        assert np.array_equal(got.view(np.uint64), interp_reference(table, U).view(np.uint64))


class TestSamplingFidelity:
    def test_ks_against_source(self):
        source = np.random.default_rng(5).gamma(2.0, 1.5, size=10_000)
        draws = quantile(np.sort(source)[None, :], rng.uniforms(123, 10_000)[:, None], [0])[:, 0]
        assert ks_2samp(draws, source).statistic < 0.03
