import hashlib
import math
import os

import numpy as np
import pytest
from scipy.special import ndtri

from copaug import dataset as ds, rng
from copaug.dataset import (
    LevelGrid,
    Profile,
    ProfileSet,
    SchemaError,
    SplitSpec,
    flatten,
    generate_surrogate,
    load_profiles,
    save_profiles,
    split_shuffle,
    strictly_increasing,
)


def make_set(n, n_full=3, seed=0):
    gen = np.random.default_rng(seed)
    profs = []
    for _ in range(n):
        T = 200.0 + 100.0 * gen.random(n_full)
        p = np.sort(gen.uniform(1e4, 1e5, n_full))
        p += np.arange(n_full)  # guard against ties
        tau = np.abs(gen.random(n_full)) * (gen.random(n_full) < 0.3)
        profs.append(Profile(T, p, tau))
    return ProfileSet(LevelGrid(n_full), np.array([np.concatenate([pr.T, pr.p, pr.tau_c]) for pr in profs]))


class TestProfileInvariants:
    def test_rejects_nonmonotone_pressure(self):
        with pytest.raises(ValueError, match="pressure"):
            Profile([250, 260, 270], [3e4, 2e4, 5e4], [0, 0, 0])

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="optical depth"):
            Profile([250, 260, 270], [1e4, 2e4, 3e4], [0, -1, 0])

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            Profile([250, 0, 270], [1e4, 2e4, 3e4], [0, 0, 0])

    def test_fluxes_shape_checked(self):
        s = make_set(2)
        with pytest.raises(ValueError, match="fluxes"):
            ProfileSet(s.grid, s.inputs, np.zeros((2, 3)))
        for wrong in (np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(8)):
            with pytest.raises(ValueError, match="fluxes"):
                s.with_fluxes(wrong)
        assert s.fluxes is None  # the failed calls left the set as it was

    def test_with_fluxes_keeps_the_set_and_checks_only_the_fluxes(self, monkeypatch):
        s = make_set(3)
        scans = []
        real = ds._first_invalid_row
        monkeypatch.setattr(ds, "_first_invalid_row", lambda *a: scans.append(1) or real(*a))
        out = s.with_fluxes([[1, 2, 3, 4]] * 3)
        assert not scans
        assert out.inputs is s.inputs and out.T is s.T and s.fluxes is None
        assert out.fluxes.dtype == float and out.fluxes.shape == (3, 4)
        out.subset([0, 2])
        assert len(scans) == 1  # subset still validates


class TestColumnarProfileSet:
    def test_invalid_row_named(self):
        s = make_set(5)
        p = s.p.copy()
        p[3, 2] = p[3, 1]
        with pytest.raises(ValueError, match="^row 3: pressure"):
            ProfileSet(s.grid, np.hstack([s.T, p, s.tau_c]))

    def test_first_bad_row_and_its_first_failed_check(self):
        s = make_set(5)
        T, tau = s.T.copy(), s.tau_c.copy()
        T[4, 0] = 0.0
        tau[2, 1] = -1.0
        T[2, 2] = np.nan
        with pytest.raises(ValueError, match="^row 2: profile contains non-finite"):
            ProfileSet(s.grid, np.hstack([T, s.p, tau]))

    def test_shape_checked(self):
        s = make_set(3, n_full=3)
        with pytest.raises(ValueError, match="shape"):
            ProfileSet(LevelGrid(4), s.inputs)
        with pytest.raises(ValueError, match="shape"):
            ProfileSet(s.grid, s.inputs[:, :8])
        with pytest.raises(ValueError, match="shape"):
            ProfileSet(s.grid, s.inputs[0])

    def test_quantities_are_views_of_inputs(self):
        s = make_set(4, n_full=3)
        assert s.inputs.shape == (4, 9) and s.inputs.flags.c_contiguous
        for k, name in enumerate(("T", "p", "tau_c")):
            assert np.shares_memory(getattr(s, name), s.inputs)
            np.testing.assert_array_equal(getattr(s, name), s.inputs[:, 3 * k:3 * k + 3])

    def test_profiles_are_row_views(self):
        s = make_set(4, n_full=3)
        rows = s.profiles
        assert len(rows) == 4 and all(isinstance(r, Profile) for r in rows)
        for k, r in enumerate(rows):
            assert np.shares_memory(r.T, s.T)
            np.testing.assert_array_equal(r.p, s.p[k])
            np.testing.assert_array_equal(r.tau_c, s.tau_c[k])

    def test_subset_is_fancy_indexing(self):
        s = make_set(6).with_fluxes(np.arange(24, dtype=float).reshape(6, 4))
        sub = s.subset([4, 0, 4])
        np.testing.assert_array_equal(sub.T, s.T[[4, 0, 4]])
        np.testing.assert_array_equal(sub.fluxes, s.fluxes[[4, 0, 4]])
        assert len(s.subset([])) == 0


HEADER_3 = "T_1,T_2,T_3,p_1,p_2,p_3,tauc_1,tauc_2,tauc_3"
GOOD_ROW_3 = "250,260,270,10000.0,20000.0,30000.0,0,0,0"


class TestProfileFile:
    def test_minimal_round_trip(self, tmp_path):
        path = tmp_path / "two.csv"
        original = make_set(2, n_full=3)
        save_profiles(path, original)
        loaded = load_profiles(path, LevelGrid(3))
        assert len(loaded) == 2
        for a, b in zip(original.profiles, loaded.profiles):
            np.testing.assert_array_equal(a.T, b.T)
            np.testing.assert_array_equal(a.p, b.p)
            np.testing.assert_array_equal(a.tau_c, b.tau_c)

    def test_flux_columns_round_trip(self, tmp_path):
        path = tmp_path / "flux.csv"
        s = make_set(2, n_full=3)
        s = s.with_fluxes(np.arange(8, dtype=float).reshape(2, 4))
        save_profiles(path, s)
        loaded = load_profiles(path, LevelGrid(3))
        np.testing.assert_array_equal(loaded.fluxes, s.fluxes)

    def test_decreasing_pressure_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = "250,260,270,10000.0,20000.0,30000.0,0,0,0"
        bad = "250,260,270,30000.0,20000.0,10000.0,0,0,0"
        path.write_text(
            "T_1,T_2,T_3,p_1,p_2,p_3,tauc_1,tauc_2,tauc_3\n" + good + "\n" + bad + "\n"
        )
        with pytest.raises(SchemaError, match="row 1"):
            load_profiles(path, LevelGrid(3))

    @pytest.mark.parametrize("bad,reason", [
        ("250,260,270,1e4,2e4,3e4,0,nan,0", "non-finite"),
        ("250,260,inf,1e4,2e4,3e4,0,0,0", "non-finite"),
        ("250,-3,270,1e4,2e4,3e4,0,0,0", "temperature"),
        ("250,260,270,0,2e4,3e4,0,0,0", "pressure must be positive everywhere"),
        ("250,260,270,-50,2e4,3e4,0,0,0", "pressure must be positive everywhere"),
        ("250,260,270,1e4,2e4,2e4,0,0,0", "pressure"),
        ("250,260,270,1e4,2e4,3e4,0,-0.5,0", "optical depth"),
        ("250,260,270,1e4,2e4,3e4,0,0", "expected 9 values, got 8"),
        ("250,260,270,1e4,2e4,3e4,0,0,0,1", "expected 9 values, got 10"),
        ("250,260,warm,1e4,2e4,3e4,0,0,0", "could not convert"),
    ])
    def test_invalid_row_named(self, tmp_path, bad, reason):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([HEADER_3, GOOD_ROW_3, GOOD_ROW_3, bad, GOOD_ROW_3]) + "\n")
        with pytest.raises(SchemaError, match=f"bad.csv: row 2: .*{reason}"):
            load_profiles(path, LevelGrid(3))

    def test_blank_lines_and_empty_body(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(HEADER_3 + "\n\n" + GOOD_ROW_3 + "\n   \n" + GOOD_ROW_3 + "\n")
        assert len(load_profiles(path, LevelGrid(3))) == 2
        path.write_text(HEADER_3 + "\n")
        empty = load_profiles(path, LevelGrid(3))
        assert len(empty) == 0 and empty.T.shape == (0, 3)

    def test_save_replaces_atomically(self, tmp_path, monkeypatch):
        path = tmp_path / "set.csv"
        save_profiles(path, make_set(2))
        assert [p.name for p in tmp_path.iterdir()] == ["set.csv"]
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="interrupted"):
            save_profiles(path, make_set(5, seed=1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["set.csv"]

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("T_1,p_1\n250,1000\n")
        with pytest.raises(SchemaError, match="header"):
            load_profiles(path, LevelGrid(3))

    def test_wrong_value_count_names_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "T_1,T_2,T_3,p_1,p_2,p_3,tauc_1,tauc_2,tauc_3\n250,260\n"
        )
        with pytest.raises(SchemaError, match="row 0"):
            load_profiles(path, LevelGrid(3))


class TestSplitShuffle:
    def test_paper_scale_sizes(self):
        # 25 000 single-level profiles keep the check cheap.
        profs = tuple(Profile([250.0], [1e5], [0.0]) for _ in range(25000))
        data = ProfileSet(LevelGrid(1), np.array([np.concatenate([pr.T, pr.p, pr.tau_c]) for pr in profs]))
        tr, va, te = split_shuffle(data, SplitSpec(0.4, 0.2, 0.4, seed=3))
        assert (len(tr), len(va), len(te)) == (10000, 5000, 10000)

    def test_small_rounding(self):
        tr, va, te = split_shuffle(make_set(10), SplitSpec(0.4, 0.2, 0.4, seed=1))
        assert (len(tr), len(va), len(te)) == (4, 2, 4)

    def test_deterministic(self):
        data = make_set(40)
        a = split_shuffle(data, SplitSpec(seed=9))
        b = split_shuffle(data, SplitSpec(seed=9))
        for s1, s2 in zip(a, b):
            assert all(np.array_equal(p1.T, p2.T) for p1, p2 in zip(s1.profiles, s2.profiles))

    def test_partition_disjoint_exhaustive(self):
        data = make_set(23)
        tagged = {tuple(p.T) for p in data.profiles}
        tr, va, te = split_shuffle(data, SplitSpec(0.5, 0.3, 0.2, seed=4))
        out = [tuple(p.T) for s in (tr, va, te) for p in s.profiles]
        assert len(out) == 23
        assert set(out) == tagged

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.6, 0.3, 0.4)

    def test_empty_test_split_refused(self):
        # Fractions summing to 1 are a valid SplitSpec, yet here train and
        # validation round to all 40 rows and would leave the test set empty.
        with pytest.raises(ValueError, match="^split fractions leave no room for the test set$"):
            split_shuffle(make_set(40), SplitSpec(0.5, 0.5, 1e-10, seed=2))
        tr, va, te = split_shuffle(make_set(40), SplitSpec(0.5, 0.475, 0.025, seed=2))
        assert (len(tr), len(va), len(te)) == (20, 19, 1)


class TestFlatten:
    def test_values_are_the_stored_arrays(self):
        s = make_set(3, n_full=3).with_fluxes(np.arange(12, dtype=float).reshape(3, 4))
        assert flatten(s, "inputs").values is s.inputs
        assert flatten(s, "outputs").values is s.fluxes

    def test_shape_and_order(self):
        s = make_set(2, n_full=3)
        m = flatten(s, "inputs")
        assert m.values.shape == (2, 9)
        assert m.columns[:3] == ("T_1", "T_2", "T_3")
        np.testing.assert_array_equal(m.values[0, 3:6], s.profiles[0].p)

    def test_paper_scale_widths(self):
        s = make_set(2, n_full=137)
        assert flatten(s, "inputs").values.shape[1] == 411
        s = s.with_fluxes(np.zeros((2, 138)))
        assert flatten(s, "outputs").values.shape[1] == 138


def test_full_scale_file_round_trip(tmp_path):
    # 25 000 rows on the 137-level grid: the capacity case (~25 s of I/O).
    grid = LevelGrid(137)
    data = generate_surrogate(25_000, grid, seed=8)
    path = tmp_path / "full.csv"
    save_profiles(path, data)
    loaded = load_profiles(path, grid)
    assert len(loaded) == 25_000
    np.testing.assert_array_equal(loaded.profiles[12_345].T, data.profiles[12_345].T)


class TestStrictlyIncreasing:
    def test_repairs_ties_and_collapsed_values(self):
        one_ulp = np.nextafter(1.0, np.inf)
        a = np.array([[0.0, 1.0, 1.0, 1.0, 5.0], [0.0, 1.0, one_ulp, one_ulp, 2.0]])
        out = strictly_increasing(a)
        assert out is a
        ulps = np.nextafter(np.nextafter(1.0, np.inf), np.inf)
        np.testing.assert_array_equal(a, [[0.0, 1.0, one_ulp, ulps, 5.0],
                                          [0.0, 1.0, one_ulp, ulps, 2.0]])
        assert np.all(np.diff(a) > 0)

    def test_increasing_rows_unchanged(self):
        a = np.array([[0.0, 1.0, np.nextafter(1.0, np.inf), 3.0], [-2.0, -1.0, 0.0, 7.5]])
        before = a.copy()
        assert strictly_increasing(a) is a
        np.testing.assert_array_equal(a, before)

    def test_only_the_offending_row_changes(self):
        a = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 3.0]])
        strictly_increasing(a)
        np.testing.assert_array_equal(a, [[1.0, 2.0, 3.0], [1.0, np.nextafter(1.0, np.inf), 3.0]])


def reference_surrogate(n, grid, seed):
    """The per-profile generator: profile k takes the next n_full + 13 uniforms of one stream."""
    nl, phi = grid.n_full, ds.SURROGATE_AR1
    sigma = ds.surrogate_sigma_grid(nl)
    t_base = ds.SURROGATE_T_TOP + (ds.SURROGATE_T_SURFACE - ds.SURROGATE_T_TOP) * sigma
    lo = int(np.searchsorted(sigma, ds.SURROGATE_CLOUD_SIGMA_LO))
    hi = max(int(np.searchsorted(sigma, ds.SURROGATE_CLOUD_SIGMA_HI)), lo + 1)
    gen = rng.stream(seed)
    T, p, tau_c = np.empty((n, nl)), np.empty((n, nl)), np.zeros((n, nl))
    for k in range(n):
        u = np.clip(gen.random(nl + 13), rng._UNIT_LO, rng._UNIT_HI)
        eps = ndtri(u[1:nl + 1])
        noise = np.empty(nl)
        noise[0] = eps[0]
        for i in range(1, nl):
            noise[i] = phi * noise[i - 1] + math.sqrt(1 - phi * phi) * eps[i]
        T[k] = t_base + ds.SURROGATE_T_OFFSET * ndtri(u[0]) + ds.SURROGATE_T_NOISE * noise
        p[k] = sigma * (ds.SURROGATE_P0_MEAN + ds.SURROGATE_P0_SPREAD * (2 * u[nl + 1] - 1))
        if u[nl + 2] < ds.SURROGATE_CLOUD_FRACTION:
            for b in range(1 + int(u[nl + 3] * 3)):
                start = lo + int(u[nl + 4 + 3 * b] * max(hi - lo, 1))
                length = 1 + int(u[nl + 5 + 3 * b] * 4)
                z = ds.SURROGATE_CLOUD_LOGMEAN + ds.SURROGATE_CLOUD_LOGSTD * ndtri(u[nl + 6 + 3 * b])
                tau_c[k, start:min(start + length, nl)] += math.exp(z)
    return T, p, tau_c


class TestSurrogate:
    @pytest.mark.parametrize("n_levels, n, seed", [(1, 300, 0), (2, 50, 9), (7, 400, 2**63 + 5), (30, 200, 3)])
    def test_matches_the_per_profile_reference(self, n_levels, n, seed):
        s = generate_surrogate(n, LevelGrid(n_levels), seed)
        for got, want in zip((s.T, s.p, s.tau_c), reference_surrogate(n, LevelGrid(n_levels), seed)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_invariants_hold(self):
        for seed in (0, 1, 99):
            s = generate_surrogate(20, LevelGrid(12), seed)
            assert len(s) == 20  # Profile validation runs in the constructor

    def test_determinism_and_seed_sensitivity(self):
        a = generate_surrogate(5, LevelGrid(8), 42)
        b = generate_surrogate(5, LevelGrid(8), 42)
        c = generate_surrogate(5, LevelGrid(8), 43)
        assert all(np.array_equal(x.T, y.T) for x, y in zip(a.profiles, b.profiles))
        assert any(not np.array_equal(x.T, y.T) for x, y in zip(a.profiles, c.profiles))

    def test_adjacent_level_temperature_correlation(self):
        s = generate_surrogate(1000, LevelGrid(20), 7)
        T = np.array([p.T for p in s.profiles])
        cors = [np.corrcoef(T[:, i], T[:, i + 1])[0, 1] for i in range(19)]
        assert min(cors) > 0.5

    def test_cloud_fraction_sane(self):
        s = generate_surrogate(500, LevelGrid(15), 3)
        cloudy = sum(1 for p in s.profiles if p.tau_c.sum() > 0)
        assert 0.25 < cloudy / 500 < 0.55

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            generate_surrogate(0, LevelGrid(5), 1)

    @pytest.mark.parametrize("n_levels, n, seed, digests", [
        (1, 200, 5, ("04c9d2bc812735da2b0fdfbce8961e20e4bed928ac46332910c9434d44b0a4dc",
                     "ccf6a80532e49eb4808c6b6b3b0524c5a12f7f14b9d5f4ff32aa476d3baaf721",
                     "6a502855057ac216f7bfeb9e97b5a89b4ca1ad96f945fa08434a103d9e5ca014")),
        (20, 300, 7, ("289feaf6edfc48fd040925ae611ceea94fc90fc41338084b00bbd529115b0a4d",
                      "b4d532915e51c79247ff19df745d3801e535f60ba5d62cd2193b8393df0a9325",
                      "6379839483368925991f64171892712a9e27aa20ad74fe9884cfbeb4542f2731")),
        (137, 60, 11, ("a98c5cf87a21c41d5bdd8c3cf5ffdbaafe08f425d46af569867a9f81aee552c2",
                      "03b019dae4316066347e3011f9e4c5ffe5bd0519be5d25cc0fef1dda34f03e3f",
                      "15b3ad3d5da1a63be059bd4f482f43939d6adf960394bbc4515e37f679fed22c")),
    ])
    def test_matches_recorded_sha256(self, n_levels, n, seed, digests):
        # Recorded when each profile drew its own uniforms in a Python loop;
        # the one-matrix draw must give the same bits.
        s = generate_surrogate(n, LevelGrid(n_levels), seed)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (s.T, s.p, s.tau_c)) == digests

    def test_rows_do_not_depend_on_the_profile_count(self):
        a = generate_surrogate(100, LevelGrid(20), 4)
        b = generate_surrogate(40, LevelGrid(20), 4)
        for q in ("T", "p", "tau_c"):
            np.testing.assert_array_equal(getattr(a, q)[:40], getattr(b, q))
