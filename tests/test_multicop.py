import hashlib
import json
import tracemalloc
from collections import namedtuple
from functools import cached_property

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ks_2samp, rankdata

from copaug import bicop, multicop, rng
from copaug.bicop import Family, PairCopula, h_func, h_inv, kendall_tau
from copaug.dataset import SchemaError
from copaug.dataset import LevelGrid, Profile, ProfileSet, SplitSpec, flatten, generate_surrogate, split_shuffle
from copaug.evaluation import random_projection_report
from copaug.experiment import make_config, resolve_dataset
from copaug.marginals import pseudo_observations
from copaug.multicop import (
    CopulaSpec,
    fit_gaussian,
    fit_synth_model,
    fit_vine,
    load_model,
    sample_synth_model,
    save_model,
    simulate_gaussian,
    simulate_vine,
)


def gaussian_umatrix(R, n, seed):
    z = rng.normals(seed, (n, len(R)))
    return np.clip(ndtr(z @ np.linalg.cholesky(np.asarray(R)).T), 1e-10, 1 - 1e-10)


def known_three_dim_vine(n, seed):
    """C12 = Gaussian(0.7), C23 = Clayton(2), C13|2 = Independence."""
    W = rng.uniforms(seed, (n, 3))
    c12 = PairCopula(Family.GAUSSIAN, 0, 0.7)
    c23 = PairCopula(Family.CLAYTON, 0, 2.0)
    u2 = W[:, 1]
    u1 = h_inv(c12, W[:, 0], u2, direction=1)
    u3 = h_inv(c23, W[:, 2], u2, direction=2)
    return np.column_stack([u1, u2, u3])


class TestGaussianCopula:
    def test_independent_columns(self):
        u = rng.uniforms(4, (5000, 4))
        R = fit_gaussian(u).R
        off = R[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_recovers_correlation(self):
        u = gaussian_umatrix([[1.0, 0.8], [0.8, 1.0]], 5000, 11)
        assert abs(fit_gaussian(u).R[0, 1] - 0.8) < 0.03

    def test_single_feature(self):
        u = rng.uniforms(1, (50, 1))
        np.testing.assert_array_equal(fit_gaussian(u).R, [[1.0]])

    def test_constant_column_rejected(self):
        u = rng.uniforms(2, (50, 2))
        u[:, 0] = 0.5
        with pytest.raises(ValueError, match="constant"):
            fit_gaussian(u)

    def test_nan_rejected(self):
        u = rng.uniforms(2, (50, 3))
        u[7, 1] = np.nan
        with pytest.raises(ValueError, match="finite and strictly inside"):
            fit_gaussian(u)

    def test_cholesky_reconstruction(self):
        u = gaussian_umatrix(0.6 ** np.abs(np.subtract.outer(range(5), range(5))), 500, 7)
        m = fit_gaussian(u)
        assert np.abs(m.L @ m.L.T - m.R).max() < 1e-10

    def test_degenerate_correlation_regularized(self):
        base = rng.uniforms(9, (200, 1))
        u = np.column_stack([base, base, rng.uniforms(10, 200)])  # two identical columns
        m = fit_gaussian(np.clip(u, 1e-10, 1 - 1e-10))
        assert np.all(np.isfinite(m.L))

    def test_simulation_identity_matrix(self):
        from copaug.multicop import GaussianCopulaModel
        m = GaussianCopulaModel(np.eye(3), np.eye(3))
        sim = simulate_gaussian(m, 2000, 5)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(kendall_tau(sim[:, i], sim[:, j])) < 0.05

    def test_simulation_greiner_relation(self):
        u = gaussian_umatrix([[1.0, 0.8], [0.8, 1.0]], 4000, 2)
        sim = simulate_gaussian(fit_gaussian(u), 5000, 3)
        expected = 2.0 / np.pi * np.arcsin(0.8)
        assert abs(kendall_tau(sim[:, 0], sim[:, 1]) - expected) < 0.04

    def test_simulation_deterministic_and_open_interval(self):
        m = fit_gaussian(rng.uniforms(1, (100, 2)))
        a = simulate_gaussian(m, 500, 9)
        b = simulate_gaussian(m, 500, 9)
        np.testing.assert_array_equal(a, b)
        assert a.min() > 0.0 and a.max() < 1.0

    def test_simulation_recovers_correlation_matrix(self):
        from scipy.special import ndtri
        from copaug.multicop import GaussianCopulaModel
        R = np.array([[1.0, 0.6, -0.3], [0.6, 1.0, 0.1], [-0.3, 0.1, 1.0]])
        m = GaussianCopulaModel(R, np.linalg.cholesky(R))
        sim = simulate_gaussian(m, 5000, 77)
        R_hat = np.corrcoef(ndtri(sim), rowvar=False)
        assert np.abs(R_hat - R).max() < 0.05

    def test_simulation_peak_memory(self):
        # Only the normal draws and their product with L are full size; ndtr
        # and the clip run in place.  numpy reports its buffers to tracemalloc.
        from copaug.multicop import GaussianCopulaModel
        R = np.corrcoef(np.random.default_rng(0).standard_normal((40, 120)))
        m = GaussianCopulaModel(R, np.linalg.cholesky(R))
        tracemalloc.start()
        try:
            sim = simulate_gaussian(m, 5000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * sim.nbytes


VineStructure = namedtuple("VineStructure", "trees truncation")


def vine_structure(u, truncation=None) -> VineStructure:
    """The fitted vine's (cond, given) pairs, tree by tree, and its truncation."""
    vine = fit_vine(u, CopulaSpec(kind="vine", truncation=truncation))
    trees = tuple(tuple((e.cond, e.given) for e in tree) for tree in vine.trees)
    return VineStructure(trees, vine.truncation)


class TestStructureSelection:
    def test_hand_checkable_mst(self):
        # |tau| targets: (0,1)=0.8, (1,2)=0.7, (0,2)=0.56 -> tree 1 is {01, 12}.
        rho = lambda tau: np.sin(np.pi * tau / 2.0)
        R = np.array([
            [1.0, rho(0.8), rho(0.56)],
            [rho(0.8), 1.0, rho(0.7)],
            [rho(0.56), rho(0.7), 1.0],
        ])
        u = gaussian_umatrix(R, 4000, 21)
        structure = vine_structure(u)
        tree1 = {cond for cond, _ in structure.trees[0]}
        assert tree1 == {(0, 1), (1, 2)}

    def test_two_features(self):
        u = rng.uniforms(3, (200, 2))
        s = vine_structure(u)
        assert s.trees == (((((0, 1), frozenset()),))[0],) or s.trees[0][0][0] == (0, 1)
        assert len(s.trees) == 1

    def test_truncation_keeps_structure(self):
        u = gaussian_umatrix(0.6 ** np.abs(np.subtract.outer(range(5), range(5))), 800, 5)
        s = vine_structure(u, truncation=1)
        assert len(s.trees) == 4
        assert s.truncation == 1

    def test_deterministic(self):
        u = rng.uniforms(8, (300, 4))
        assert vine_structure(u) == vine_structure(u)

    def test_edge_count_quadratic(self):
        d = 7
        u = gaussian_umatrix(0.5 ** np.abs(np.subtract.outer(range(d), range(d))), 400, 3)
        s = vine_structure(u)
        assert sum(len(t) for t in s.trees) == d * (d - 1) // 2


class TestVineFit:
    def test_known_vine_recovery(self):
        data = known_three_dim_vine(3000, 11)
        vm = fit_vine(data, CopulaSpec(kind="vine"))
        tree1 = {e.cond: e for e in vm.trees[0]}
        assert set(tree1) == {(0, 1), (1, 2)}
        assert abs(tree1[(0, 1)].tau_hat - 2 / np.pi * np.arcsin(0.7)) < 0.05
        assert abs(tree1[(1, 2)].tau_hat - 0.5) < 0.05
        assert vm.trees[1][0].copula.family is Family.INDEPENDENCE

    def test_independent_uniforms_all_independence(self):
        u = rng.uniforms(77, (2000, 5))
        vm = fit_vine(u, CopulaSpec(kind="vine"))
        assert all(e.copula.family is Family.INDEPENDENCE for tree in vm.trees for e in tree)

    def test_catalogue_restriction(self):
        u = gaussian_umatrix(0.7 ** np.abs(np.subtract.outer(range(4), range(4))), 1500, 13)
        vm = fit_vine(u, CopulaSpec(kind="vine", catalogue=frozenset({Family.GAUSSIAN})))
        for tree in vm.trees:
            for e in tree:
                assert e.copula.family in (Family.GAUSSIAN, Family.INDEPENDENCE)

    def test_nan_rejected(self):
        u = known_three_dim_vine(200, 11)
        u[3, 2] = np.nan
        with pytest.raises(ValueError, match="finite and strictly inside"):
            fit_vine(u, CopulaSpec(kind="vine"))

    def test_truncation_gives_independence_beyond(self):
        u = gaussian_umatrix(0.7 ** np.abs(np.subtract.outer(range(5), range(5))), 1000, 17)
        vm = fit_vine(u, CopulaSpec(kind="vine", truncation=1))
        assert all(e.copula.family is Family.INDEPENDENCE for tree in vm.trees[1:] for e in tree)
        assert any(e.copula.family is not Family.INDEPENDENCE for e in vm.trees[0])


class TestVineSimulation:
    def test_round_trip_taus(self):
        data = known_three_dim_vine(3000, 19)
        vm = fit_vine(data, CopulaSpec(kind="vine"))
        sim = simulate_vine(vm, 5000, 23)
        assert sim.min() > 0.0 and sim.max() < 1.0
        expected12 = 2 / np.pi * np.arcsin(0.7)
        assert abs(kendall_tau(sim[:, 0], sim[:, 1]) - expected12) < 0.04
        assert abs(kendall_tau(sim[:, 1], sim[:, 2]) - 0.5) < 0.04

    def test_independence_vine_passthrough(self):
        u = rng.uniforms(31, (1500, 4))
        vm = fit_vine(u, CopulaSpec(kind="vine"))
        sim = simulate_vine(vm, 2000, 7)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(kendall_tau(sim[:, i], sim[:, j])) < 0.05

    def test_deterministic(self):
        vm = fit_vine(known_three_dim_vine(800, 3), CopulaSpec(kind="vine"))
        np.testing.assert_array_equal(simulate_vine(vm, 300, 5), simulate_vine(vm, 300, 5))

    def test_refit_recovers_tree1_taus(self):
        data = known_three_dim_vine(5000, 41)
        vm = fit_vine(data, CopulaSpec(kind="vine"))
        sim = simulate_vine(vm, 5000, 43)
        refit = fit_vine(sim, CopulaSpec(kind="vine"))
        orig = {frozenset(e.cond): abs(e.tau_hat) for e in vm.trees[0]}
        new = {frozenset(e.cond): abs(e.tau_hat) for e in refit.trees[0]}
        for pair, tau in orig.items():
            assert pair in new
            assert abs(new[pair] - tau) < 0.05

    def test_deeper_vine_pairwise_taus(self):
        R = 0.75 ** np.abs(np.subtract.outer(range(5), range(5)))
        u = gaussian_umatrix(R, 3000, 29)
        vm = fit_vine(u, CopulaSpec(kind="vine"))
        sim = simulate_vine(vm, 4000, 31)
        for i in range(5):
            for j in range(i + 1, 5):
                target = kendall_tau(u[:, i], u[:, j])
                assert abs(kendall_tau(sim[:, i], sim[:, j]) - target) < 0.06


# The D-vine 0-1-...-7 in matrix form, truncated at 4 trees; edge (t, j)
# takes edges[(3 t + j) % len(edges)], so every family recurs at several depths.
DVINE_MATRIX = ((6, 5, 4, 3, 2, 1, 0, 0), (5, 4, 3, 2, 1, 0, 1, -1), (4, 3, 2, 1, 0, 2, -1, -1),
                (3, 2, 1, 0, 3, -1, -1, -1), (2, 1, 0, 4, -1, -1, -1, -1), (1, 0, 5, -1, -1, -1, -1, -1),
                (0, 6, -1, -1, -1, -1, -1, -1), (7, -1, -1, -1, -1, -1, -1, -1))
CLOSED_FORM_EDGES = (PairCopula(Family.STUDENT_T, 0, 0.6, 4.0), PairCopula(Family.GAUSSIAN, 0, -0.5),
                     PairCopula(Family.STUDENT_T, 0, -0.4, 6.0), PairCopula(Family.FRANK, 0, 4.0),
                     PairCopula(Family.STUDENT_T, 0, 0.3, 2.0), bicop.INDEPENDENCE)


def dvine(edges) -> multicop.VineModel:
    return multicop.VineModel(DVINE_MATRIX, tuple(tuple((edges[(3 * t + j) % len(edges)], 0.0)
                                                        for j in range(7 - t)) for t in range(4)))


class TestVineSamplingTraffic:
    def test_closed_form_edges_match_recorded_sha256(self):
        # Recorded before simulate_vine shared one PseudoObs per conditioning
        # vector.  No edge is Gumbel or Joe, whose h-inverse is iterative, so
        # every bit of the sample is pinned.
        sim = simulate_vine(dvine(CLOSED_FORM_EDGES), 500, 9)
        assert hashlib.sha256(sim.tobytes()).hexdigest() == (
            "2be36129d9192ade4bab10e255ba03694cb50f63b119538625974634c065622e")

    def test_each_conditioning_vector_scored_once_per_nu(self, monkeypatch):
        vm = dvine([PairCopula(Family.STUDENT_T, 0, r, nu) for r, nu in ((0.6, 4.0), (-0.4, 6.0), (0.3, 4.0))])
        expected = simulate_vine(vm, 400, 9)
        real_stdtrit, real_h_inv, real_h_func = bicop.stdtrit, multicop.h_inv, multicop.h_func
        scored, h_calls = [], []

        def counting_h_inv(c, w, z, direction=1):
            h_calls.append("h_inv")
            return real_h_inv(c, w, z, direction)

        def counting_h_func(c, u, v, direction=1):
            h_calls.append("h_func")
            return real_h_func(c, u, v, direction)

        monkeypatch.setattr(bicop, "stdtrit", lambda df, x: scored.append((x.tobytes(), df)) or real_stdtrit(df, x))
        monkeypatch.setattr(multicop, "h_inv", counting_h_inv)
        monkeypatch.setattr(multicop, "h_func", counting_h_func)
        np.testing.assert_array_equal(simulate_vine(vm, 400, 9), expected)
        assert len(set(scored)) == len(scored)  # one stdtrit per (vector, nu)
        # Each call reads two scores; the readers of one vector share them.
        assert h_calls.count("h_inv") == 22 and len(scored) < 2 * len(h_calls)


# Trees 1-3 of fit_vine(ar1_umatrix(0.7, 10, 120, 2), truncation=3) as fitted
# before the fitter stopped at the truncation level: (tree, conditioned pair,
# conditioning set, family, rotation, theta, nu, tau_hat), each pair
# ascending with its rotation oriented to match.  Re-recorded when the fit
# became Kendall tau inversion: the trees kept their edges, every theta moved,
# two edges changed family (1-2 Gaussian to Gumbel, 5-8 given 6, 7 rotated
# Clayton to Frank) and the taus of trees 2 and 3 moved with their
# conditional pseudo-observations.
REFERENCE_TREES = [
    (1, (0, 1), (), 'gaussian', 0, 0.6910626489868645, None, 0.48571428571428565),
    (1, (1, 2), (), 'gumbel', 0, 1.773472429210134, None, 0.43613445378151255),
    (1, (2, 3), (), 'gaussian', 0, 0.5585847937003224, None, 0.37731092436974784),
    (1, (3, 4), (), 'gaussian', 0, 0.6193530695767987, None, 0.42521008403361343),
    (1, (4, 5), (), 'gaussian', 0, 0.6989714048856571, None, 0.49271708683473386),
    (1, (5, 6), (), 'gaussian', 0, 0.7052375617051652, None, 0.4983193277310924),
    (1, (6, 7), (), 'gaussian', 0, 0.6888331717014289, None, 0.48375350140056017),
    (1, (7, 8), (), 'gaussian', 0, 0.7086607000228281, None, 0.5014005602240895),
    (1, (8, 9), (), 'gaussian', 0, 0.7530714660036109, None, 0.5428571428571428),
    (2, (0, 2), (1,), 'independence', 0, 0.0, None, -0.046498599439775905),
    (2, (1, 3), (2,), 'independence', 0, 0.0, None, -0.0361344537815126),
    (2, (2, 4), (3,), 'independence', 0, 0.0, None, 0.010364145658263305),
    (2, (3, 5), (4,), 'independence', 0, 0.0, None, 0.0014005602240896356),
    (2, (4, 6), (5,), 'independence', 0, 0.0, None, -0.08963585434173668),
    (2, (5, 7), (6,), 'independence', 0, 0.0, None, -0.02072829131652661),
    (2, (6, 8), (7,), 'independence', 0, 0.0, None, 0.10196078431372549),
    (2, (7, 9), (8,), 'gumbel', 90, 1.1868351063829787, None, -0.15742296918767504),
    (3, (0, 3), (1, 2), 'independence', 0, 0.0, None, -0.010084033613445377),
    (3, (1, 4), (2, 3), 'independence', 0, 0.0, None, 0.012605042016806721),
    (3, (2, 5), (3, 4), 'independence', 0, 0.0, None, 0.08067226890756302),
    (3, (3, 6), (4, 5), 'independence', 0, 0.0, None, 0.08039215686274509),
    (3, (4, 7), (5, 6), 'independence', 0, 0.0, None, 0.07675070028011204),
    (3, (5, 8), (6, 7), 'frank', 0, -1.1650373716840223, None, -0.12773109243697478),
    (3, (6, 9), (7, 8), 'independence', 0, 0.0, None, 0.047058823529411764),
]


def ar1_umatrix(phi, d, n, seed):
    return gaussian_umatrix(phi ** np.abs(np.subtract.outer(range(d), range(d))), n, seed)


class TestTruncatedVine:
    def test_fitted_trees_match_reference(self):
        vm = fit_vine(ar1_umatrix(0.7, 10, 120, 2), CopulaSpec(kind="vine", truncation=3))
        got = [(t, e) for t, tree in enumerate(vm.trees[:3], start=1) for e in tree]
        assert len(got) == len(REFERENCE_TREES)
        for (t, e), (rt, cond, given, family, rotation, theta, nu, tau) in zip(got, REFERENCE_TREES):
            assert (t, e.cond, tuple(sorted(e.given))) == (rt, cond, given)
            assert (e.copula.family.value, e.copula.rotation, e.copula.nu) == (family, rotation, nu)
            assert abs(e.copula.theta - theta) <= 1e-12
            assert abs(e.tau_hat - tau) <= 1e-12

    def test_completion_is_proximity_valid_independence(self):
        vm = fit_vine(ar1_umatrix(0.6, 8, 300, 4), CopulaSpec(kind="vine", truncation=2))
        assert [len(tree) for tree in vm.trees] == list(range(7, 0, -1))
        for t, tree in enumerate(vm.trees[2:], start=3):
            below = {frozenset(e.cond) | e.given for e in vm.trees[t - 2]}
            for e in tree:
                assert len(e.given) == t - 1
                a, b = e.cond
                whole = frozenset(e.cond) | e.given
                assert whole - {a} in below and whole - {b} in below
                assert e.copula == bicop.INDEPENDENCE and e.tau_hat == 0.0

    def test_sampler_matches_hand_derived_dvine(self):
        # The D-vine 0-1-2-3 in matrix form; each copula's first argument is
        # its column's own variable (the antidiagonal).  Rotated families
        # make an argument or direction mix-up visible.
        c01, c12, c23 = (PairCopula(Family.CLAYTON, 90, 1.5), PairCopula(Family.GUMBEL, 270, 1.6),
                         PairCopula(Family.JOE, 0, 1.8))
        c02_1, c13_2 = PairCopula(Family.FRANK, 0, -3.0), PairCopula(Family.CLAYTON, 270, 1.2)
        c03_12 = PairCopula(Family.GUMBEL, 90, 1.3)
        matrix = ((1, 2, 3, 3), (2, 3, 2, -1), (3, 1, -1, -1), (0, -1, -1, -1))
        copulas = (((c01, 0.0), (c12, 0.0), (c23, 0.0)), ((c02_1, 0.0), (c13_2, 0.0)), ((c03_12, 0.0),))
        sim = simulate_vine(multicop.VineModel(matrix, copulas), 300, 12)
        # Sequential inversion (Aas et al. 2009), variable v driven by column v.
        W = rng.uniforms(12, (300, 4))
        u3 = W[:, 3]
        u2 = h_inv(c23, W[:, 2], u3)
        f3_2 = h_func(c23, u2, u3, direction=2)
        f1_2 = h_inv(c13_2, W[:, 1], f3_2)
        u1 = h_inv(c12, f1_2, u2)
        f3_12 = h_func(c13_2, f1_2, f3_2, direction=2)
        f2_1 = h_func(c12, u1, u2, direction=2)
        u0 = h_inv(c01, h_inv(c02_1, h_inv(c03_12, W[:, 0], f3_12), f2_1), u1)
        np.testing.assert_array_equal(sim, np.column_stack([u0, u1, u2, u3]))

    def test_work_stops_at_the_truncation_level(self, monkeypatch):
        d, k = 12, 2
        u = ar1_umatrix(0.7, 9, 400, 8)
        u = np.column_stack([u, rng.uniforms(9, (400, 3))])  # three independent features
        calls = {"tau": 0, "h_inv": []}
        real_tau, real_h_inv = bicop.kendall_tau, multicop.h_inv

        def counting_tau(a, b):
            calls["tau"] += 1
            return real_tau(a, b)

        def counting_h_inv(c, w, z, direction=1):
            calls["h_inv"].append(c.family)
            return real_h_inv(c, w, z, direction)

        monkeypatch.setattr(multicop, "kendall_tau", counting_tau)
        monkeypatch.setattr(bicop, "kendall_tau", counting_tau)  # fit_pair's own tau
        monkeypatch.setattr(multicop, "h_inv", counting_h_inv)
        vm = fit_vine(u, CopulaSpec(kind="vine", truncation=k))
        # Tree 1 scores every variable pair; tree 2 every pair of tree-1 edges
        # sharing a variable; no tree past k, and no second tau per fitted edge.
        degree = np.bincount([v for e in vm.trees[0] for v in e.cond], minlength=d)
        assert calls["tau"] == d * (d - 1) // 2 + int((degree * (degree - 1) // 2).sum())
        fitted = [e.copula.family for tree in vm.trees[:k] for e in tree]
        assert Family.INDEPENDENCE in fitted
        simulate_vine(vm, 50, 3)
        assert len(calls["h_inv"]) <= d * k
        assert Family.INDEPENDENCE not in calls["h_inv"]
        assert len(calls["h_inv"]) == sum(f is not Family.INDEPENDENCE for f in fitted)


def student_umatrix(d, n, seed):
    """Pseudo-observations of a 4-dof multivariate t with AR(1) correlation 0.7."""
    z = rng.normals(seed, (n, d + 4))
    L = np.linalg.cholesky(0.7 ** np.abs(np.subtract.outer(range(d), range(d))))
    t = (z[:, :d] @ L.T) / np.sqrt((z[:, d:] ** 2).mean(axis=1, keepdims=True))
    return pseudo_observations(t)


class TestVineFitTraffic:
    @staticmethod
    def three_equal_columns():
        u = student_umatrix(7, 300, 1)
        return np.column_stack([u[:, :1], u[:, :1], u])

    @staticmethod
    def with_independent_columns():
        # Two columns independent of the rest: their edges fit the independence copula.
        u = student_umatrix(7, 300, 1)
        return np.column_stack([u[:, :3], rng.uniforms(5, (300, 2)), u[:, 3:]])

    @pytest.mark.parametrize("columns", ["three-equal", "distinct"])
    def test_edges_refitted_from_plain_arrays(self, monkeypatch, columns):
        # The distinct columns include two independent ones, so independence edges hand vectors on.
        u, trunc = self.three_equal_columns() if columns == "three-equal" else self.with_independent_columns(), 3
        spec = CopulaSpec(kind="vine", truncation=trunc)
        expected = fit_vine(u, spec)
        real_kruskal, real_proximity = multicop._kruskal_max, multicop._proximity_pairs
        candidate_lists, node_lists = [], []

        def kruskal(n, edges):
            candidate_lists.append([e[4] for e in edges])
            return real_kruskal(n, edges)

        def proximity(nodes):  # the previous tree's edges, in the order of their node vectors
            node_lists.append([(*node.pieces, *node.cond) for node in nodes])
            return real_proximity(nodes)

        monkeypatch.setattr(multicop, "_kruskal_max", kruskal)
        monkeypatch.setattr(multicop, "_proximity_pairs", proximity)
        assert fit_vine(u, spec) == expected
        # Every edge computes its own tau, fit and h-functions from plain arrays,
        # and its h-functions are the next tree's node vectors.
        vectors = [{i: u[:, i]} for i in range(u.shape[1])]
        for t, candidates, chosen in zip(range(trunc), candidate_lists, node_lists):
            taus = {(x, y): tau for x, y, a, b, tau in candidates}
            assert all(tau == kendall_tau(vectors[x][a], vectors[y][b]) for x, y, a, b, tau in candidates)
            fitted, next_vectors = {}, []
            for x, y, a, b in chosen:
                c = bicop.fit_pair(vectors[x][a], vectors[y][b], spec.catalogue, tau=taus[x, y])
                fitted[min(a, b), max(a, b)] = (c if a < b else bicop.swap_arguments(c)), taus[x, y]
                next_vectors.append({a: h_func(c, vectors[x][a], vectors[y][b], direction=1),
                                     b: h_func(c, vectors[x][a], vectors[y][b], direction=2)})
            assert fitted == {e.cond: (e.copula, e.tau_hat) for e in expected.trees[t]}
            vectors = next_vectors

    def test_one_wrapper_per_vector_and_independence_hands_on(self, monkeypatch):
        u, trunc = self.with_independent_columns(), 3
        spec = CopulaSpec(kind="vine", truncation=trunc)
        expected = fit_vine(u, spec)
        below = [e.copula.family for tree in expected.trees[:trunc - 1] for e in tree]
        assert Family.INDEPENDENCE in below and Family.STUDENT_T in below  # h_func reads scores
        real_tau, real_fit, real_h = multicop.kendall_tau, multicop.fit_pair, multicop.h_func
        real_kruskal, real_proximity, real_stdtrit = multicop._kruskal_max, multicop._proximity_pairs, bicop.stdtrit
        trees, ranked, scored, h_trees = [{"tau": [], "fit": []}], [], [], []

        class CountingObs(bicop.PseudoObs):
            @cached_property
            def ranks(self):
                ranked.append(self)
                return bicop.PseudoObs.ranks.func(self)

        def tau(a, b):
            trees[-1]["tau"].append((a, b))
            return real_tau(a, b)

        def kruskal(n, edges):  # ends the candidate loop of a tree
            trees[-1]["candidates"] = [e[4] for e in edges]
            return real_kruskal(n, edges)

        def fit(a, b, *args, **kwargs):
            cop = real_fit(a, b, *args, **kwargs)
            trees[-1]["fit"].append((a, b, cop))
            return cop

        def h(c, a, b, direction):
            h_trees.append(len(trees))
            return real_h(c, a, b, direction=direction)

        def proximity(nodes):  # starts the next tree; nodes are the edges just fitted, in order
            trees[-1]["cond"] = [node.cond for node in nodes]
            trees.append({"tau": [], "fit": []})
            return real_proximity(nodes)

        def stdtrit(df, x):
            scored.append((x.tobytes(), df))
            return real_stdtrit(df, x)

        for name, f in [("PseudoObs", CountingObs), ("kendall_tau", tau), ("fit_pair", fit), ("h_func", h),
                        ("_kruskal_max", kruskal), ("_proximity_pairs", proximity)]:
            monkeypatch.setattr(multicop, name, f)
        monkeypatch.setattr(bicop, "stdtrit", stdtrit)
        assert fit_vine(u, spec) == expected
        # Each wrapper that a tau reads is ranked once over the whole fit, and no
        # vector is wrapped twice; stdtrit runs once per vector and nu.
        assert sorted(map(id, ranked)) == sorted({id(z) for tree in trees for pair in tree["tau"] for z in pair})
        assert len({obs.x.tobytes() for obs in ranked}) == len(ranked)
        assert len(set(scored)) == len(scored)
        # h_func runs twice per edge below the truncation level that is not independence.
        fitted = [sum(cop.family is not Family.INDEPENDENCE for *_, cop in tree["fit"]) for tree in trees[:trunc - 1]]
        assert sorted(h_trees) == [t + 1 for t, k in enumerate(fitted) for _ in range(2 * k)]
        # An independence edge hands its two input wrappers on to the next tree.
        handed = 0
        for tree, nxt in zip(trees[:trunc - 1], trees[1:trunc]):
            for (x, y, a, b, _), pair in zip(nxt["candidates"], nxt["tau"]):
                for node, var, z in zip((x, y), (a, b), pair):
                    wa, wb, cop = tree["fit"][node]
                    if cop.family is Family.INDEPENDENCE:
                        assert z is (wa if var == tree["cond"][node][0] else wb)
                        handed += 1
        assert handed

    def test_a_refused_edge_is_named(self, monkeypatch):
        u, spec = student_umatrix(7, 300, 1), CopulaSpec(kind="vine", truncation=2)
        refused = max(e.cond for e in fit_vine(u, spec).trees[0])
        columns = {u[:, i].tobytes() for i in refused}
        real_fit, calls = multicop.fit_pair, []

        def fit(a, b, *args, **kwargs):
            calls.append({a.x.tobytes(), b.x.tobytes()})
            if calls[-1] == columns:
                raise ValueError("refused")
            return real_fit(a, b, *args, **kwargs)

        monkeypatch.setattr(multicop, "fit_pair", fit)
        with pytest.raises(ValueError, match=rf"^tree 1 edge \({refused[0]},{refused[1]}\): refused$"):
            fit_vine(u, spec)
        assert calls.count(columns) == 1 and calls[-1] == columns


def synthesize(train, spec, factor, seed):
    synth, _ = sample_synth_model(fit_synth_model(train, spec), factor * len(train), seed)
    return synth


class TestSynthesize:
    def test_factor_and_validity(self):
        train = generate_surrogate(50, LevelGrid(6), 123)
        synth = synthesize(train, CopulaSpec(kind="gaussian"), factor=1, seed=9)
        assert len(synth) == 50
        assert synth.grid.n_full == 6  # Profile invariants hold by construction

    def test_factor_multiplies(self):
        train = generate_surrogate(40, LevelGrid(5), 3)
        assert len(synthesize(train, CopulaSpec(kind="gaussian"), 5, 1)) == 200

    def test_marginal_fidelity_ks(self):
        train = generate_surrogate(400, LevelGrid(8), 7)
        synth = synthesize(train, CopulaSpec(kind="gaussian"), 1, 2)
        Xt = flatten(train).values
        Xs = flatten(synth).values
        stats = [ks_2samp(Xt[:, j], Xs[:, j]).statistic for j in range(Xt.shape[1])]
        assert max(stats) < 0.1

    def test_tau_c_nonnegative(self):
        train = generate_surrogate(100, LevelGrid(8), 5)
        synth = synthesize(train, CopulaSpec(kind="gaussian"), 1, 77)
        assert all(np.all(p.tau_c >= 0.0) for p in synth.profiles)

    @staticmethod
    def overlapping_pressures():
        # Weakly dependent overlapping pressure columns force occasional
        # inversions that synthesis must repair.
        gen = np.random.default_rng(0)
        profs = []
        for _ in range(150):
            p = np.sort(gen.uniform(1e4, 1e5, 4))
            profs.append(Profile(200 + 50 * gen.random(4), p, np.zeros(4)))
        return ProfileSet(LevelGrid(4), np.array([np.concatenate([pr.T, pr.p, pr.tau_c]) for pr in profs]))

    def test_pressure_resort_counted(self):
        train = self.overlapping_pressures()
        model = fit_synth_model(train, CopulaSpec(kind="gaussian"))
        synth, diag = sample_synth_model(model, 400, 3)
        assert diag.pressure_resorted > 0
        assert all(np.all(np.diff(p.p) > 0) for p in synth.profiles)

    def test_resorted_pressures_are_in_inputs(self):
        model = fit_synth_model(self.overlapping_pressures(), CopulaSpec(kind="gaussian"))
        synth, diag = sample_synth_model(model, 400, 3)
        assert diag.pressure_resorted > 0
        assert np.shares_memory(synth.p, synth.inputs)
        assert np.all(np.diff(synth.inputs[:, 4:8], axis=1) > 0)

    @pytest.mark.parametrize("kind", ["gaussian", "vine"])
    def test_one_varying_column_rejected(self, kind):
        n = 30
        T = np.column_stack([np.linspace(200.0, 260.0, n), np.full(n, 280.0)])
        train = ProfileSet(LevelGrid(2), np.hstack([T, np.tile([5e4, 1e5], (n, 1)), np.zeros((n, 2))]))
        with pytest.raises(ValueError, match="^a copula needs at least 2 distinct rankings of non-constant "
                                             "columns, got 1$"):
            fit_synth_model(train, CopulaSpec(kind=kind))

    def test_vine_kind_works(self):
        train = generate_surrogate(120, LevelGrid(5), 11)
        synth = synthesize(train, CopulaSpec(kind="vine", truncation=2), 1, 13)
        assert len(synth) == 120

    def test_deterministic(self):
        train = generate_surrogate(60, LevelGrid(5), 2)
        a = synthesize(train, CopulaSpec(kind="gaussian"), 1, 5)
        b = synthesize(train, CopulaSpec(kind="gaussian"), 1, 5)
        assert all(np.array_equal(x.T, y.T) for x, y in zip(a.profiles, b.profiles))


class TestRankings:
    """Active columns of one ranking share one copula column."""

    @staticmethod
    def scaled_copies(n=150):
        # T_i = a_i x and p_i = b_i y: two rankings over eight active columns.
        gen = np.random.default_rng(4)
        x, y = gen.uniform(200.0, 300.0, n), gen.uniform(9e4, 1.1e5, n)
        T, p = np.outer(x, [1.0, 1.05, 1.1, 1.2]), np.outer(y, [0.2, 0.45, 0.7, 1.0])
        return ProfileSet(LevelGrid(4), np.hstack([T, p, np.zeros((n, 4))]))

    @pytest.mark.parametrize("kind", ["gaussian", "vine"])
    def test_one_ranking_rejected(self, kind):
        # T_i = a_i x and p_i = b_i x: eight active columns, one ranking.
        x = np.random.default_rng(4).uniform(200.0, 300.0, 150)
        train = ProfileSet(LevelGrid(4), np.hstack([np.outer(x, [1.0, 1.05, 1.1, 1.2]),
                                                    np.outer(400.0 * x, [0.2, 0.45, 0.7, 1.0]),
                                                    np.zeros((len(x), 4))]))
        with pytest.raises(ValueError, match="^a copula needs at least 2 distinct rankings of non-constant "
                                             "columns, got 1$"):
            fit_synth_model(train, CopulaSpec(kind=kind))

    @pytest.mark.parametrize("kind", ["gaussian", "vine"])
    def test_scaled_copies_sample_exactly_comonotone(self, kind):
        model = fit_synth_model(self.scaled_copies(), CopulaSpec(kind=kind))
        assert model.active == tuple(range(8)) and model.ranking == (0, 0, 0, 0, 1, 1, 1, 1)
        synth, diag = sample_synth_model(model, 500, 9)
        for block in (synth.T, synth.p):  # sorting one copy sorts the others (ties where u clamps)
            order = np.argsort(block[:, 0], kind="stable")
            assert all(np.all(np.diff(block[order, i]) >= 0) for i in range(4))
        # One u per ranking: the pressure copies come out increasing without the re-sort.
        assert diag.pressure_resorted == 0
        assert np.all(synth.tau_c == 0.0)

    def test_default_truncation_counts_active_columns(self):
        # vine-30's shape: 72 active columns over 43 rankings.  Counting the
        # rankings instead would fit all 42 trees.
        model = fit_synth_model(generate_surrogate(150, LevelGrid(30), 3), CopulaSpec(kind="vine"))
        assert (len(model.active), model.copula.d, model.copula.truncation) == (72, 43, multicop.DEFAULT_TRUNCATION)

    @pytest.fixture(scope="class")
    def desk_vine(self):
        """The untruncated vine of `copaug fit --kind vine` on the 20-level
        surrogate (seed 11, 300 profiles): 48 active columns, 29 rankings."""
        cfg = make_config({"master_seed": 11, "data": {"n_profiles": 300, "n_levels": 20}})
        train, _, test = split_shuffle(resolve_dataset(cfg), cfg.split)
        model = fit_synth_model(train, CopulaSpec(kind="vine"))
        synth, _ = sample_synth_model(model, 2000, 4242)
        return train, test, model, synth

    def test_untruncated_desk_vine_fits_every_tree(self, desk_vine):
        _, _, model, _ = desk_vine
        assert (len(model.active), model.copula.d, model.copula.truncation) == (48, 29, 28)

    def test_untruncated_desk_vine_passes_the_criterion_4_ks_bound(self, desk_vine):
        train, _, _, synth = desk_vine
        X, S = flatten(train).values, flatten(synth).values
        assert max(ks_2samp(X[:, j], S[:, j]).statistic for j in range(X.shape[1])) < 0.05

    def test_untruncated_desk_vine_projects_as_close_as_held_out_profiles(self, desk_vine):
        # On 100 shared random directions of the standardized inputs, each
        # statistic of the synthetic projections deviates from the training
        # set's by at most as much as the held-out test split's does.
        train, test, _, synth = desk_vine
        X = train.inputs
        mu, sd = X.mean(axis=0), np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)

        def worst(other):
            stats = random_projection_report((X - mu) / sd, (other.inputs - mu) / sd, iters=100, seed=7).stats
            return {name: np.max(np.abs(b - a)) for name, (a, b) in stats.items()}

        synthetic, held_out = worst(synth), worst(test)
        assert all(synthetic[name] <= held_out[name] for name in held_out), (synthetic, held_out)


@pytest.mark.parametrize("kind", ["gaussian", "vine"])
@pytest.mark.parametrize("seed", [11, 23])
def test_sample_spearman_stays_near_the_held_out_floor(seed, kind):
    # The held-out test split's own Spearman deviation from the training
    # split is the sampling-noise floor; a sample the size of the test split
    # may deviate by at most 2.5 times it.  Maximum likelihood on the mostly
    # tied tau_c columns once put the vine at 4.6-6 times the floor.
    train, _, test = split_shuffle(generate_surrogate(2000, LevelGrid(20), seed), SplitSpec(0.4, 0.2, 0.4, seed))
    model = fit_synth_model(train, CopulaSpec(kind=kind))
    synth, _ = sample_synth_model(model, len(test), 5)
    active = list(model.active)

    def spearman(profiles):
        return np.corrcoef(rankdata(profiles.inputs[:, active], axis=0), rowvar=False)

    floor = np.abs(spearman(test) - spearman(train)).max()
    deviation = np.abs(spearman(synth) - spearman(train)).max()
    assert deviation <= 2.5 * floor, (deviation, floor)


class TestModelArtifact:
    @pytest.mark.parametrize("kind,trunc", [("gaussian", None), ("vine", 2)])
    def test_round_trip_sampling_identical(self, tmp_path, kind, trunc):
        train = generate_surrogate(80, LevelGrid(5), 31)
        model = fit_synth_model(train, CopulaSpec(kind=kind, truncation=trunc))
        path = tmp_path / "model.json"
        save_model(path, model)
        reloaded = load_model(path)
        a, _ = sample_synth_model(model, 50, 7)
        b, _ = sample_synth_model(reloaded, 50, 7)
        np.testing.assert_array_equal(flatten(a).values, flatten(b).values)

    def test_version_field_required(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "gaussian"}')
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_save_deterministic_bytes(self, tmp_path):
        train = generate_surrogate(40, LevelGrid(4), 3)
        model = fit_synth_model(train, CopulaSpec(kind="gaussian"))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(p1, model)
        save_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def saved(tmp_path, kind="vine"):
        train = generate_surrogate(80, LevelGrid(5), 31)
        path = tmp_path / "model.json"
        save_model(path, fit_synth_model(train, CopulaSpec(kind=kind, truncation=2)))
        return path, json.loads(path.read_text())

    def test_version_1_rejected(self, tmp_path):
        path, doc = self.saved(tmp_path)
        doc["version"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="version 1"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["gaussian", "vine"])
    def test_out_of_range_active_rejected(self, tmp_path, kind):
        path, doc = self.saved(tmp_path, kind)
        doc["active"][-1] = len(doc["columns"]) + 3
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="^active:"):
            load_model(path)

    @staticmethod
    def edit_correlation(doc, edit):
        dc = max(doc["ranking"]) + 1  # copula columns, one per ranking
        R = np.asarray(doc["correlation"]).reshape(dc, dc)
        if edit == "asymmetric":
            R[0, 1] += 0.01  # upper triangle only: the Cholesky factor reads the lower one
        elif edit == "diagonal":
            R[1, 1] = 1.0 + 1e-12
        else:  # equicorrelation -0.9 in three or more dimensions is not positive-definite
            R = np.full((dc, dc), -0.9)
            np.fill_diagonal(R, 1.0)
        doc["correlation"] = R.ravel().tolist()

    @pytest.mark.parametrize("edit,reason", [("asymmetric", "symmetric"), ("diagonal", "unit diagonal"),
                                             ("not-pd", "positive-definite")])
    def test_bad_gaussian_correlation_rejected(self, tmp_path, edit, reason):
        path, doc = self.saved(tmp_path, "gaussian")
        assert max(doc["ranking"]) + 1 >= 3
        self.edit_correlation(doc, edit)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"^correlation: .*{reason}"):
            load_model(path)

    @staticmethod
    def active_row(doc):
        return doc["marginals"][doc["active"][0]]

    MALFORMED = {
        "no-kind": ("gaussian", lambda doc: doc.pop("kind"), "^model artifact is missing the kind field"),
        "no-columns": ("gaussian", lambda doc: doc.pop("columns"), "^model artifact is missing the columns field"),
        "no-marginals": ("vine", lambda doc: doc.pop("marginals"), "^model artifact is missing the marginals field"),
        "no-active": ("vine", lambda doc: doc.pop("active"), "^model artifact is missing the active field"),
        "no-correlation": ("gaussian", lambda doc: doc.pop("correlation"),
                           "^model artifact is missing the correlation field"),
        "no-vine": ("vine", lambda doc: doc.pop("vine"), "^model artifact is missing the vine field"),
        "unknown-kind": ("gaussian", lambda doc: doc.update(kind="foo"), "^kind: expected 'gaussian' or 'vine'"),
        "too-few-rows": ("gaussian", lambda doc: doc.update(marginals=doc["marginals"][:2]),
                         r"^marginals: expected shape \(15, n\)"),
        "one-value-rows": ("vine", lambda doc: doc.update(marginals=[r[:1] for r in doc["marginals"]]),
                           r"^marginals: expected shape \(15, n\) with n >= 2"),
        "ragged": ("gaussian", lambda doc: TestModelArtifact.active_row(doc).__delitem__(slice(5, None)),
                   "^marginals: "),
        "non-number": ("vine", lambda doc: TestModelArtifact.active_row(doc).__setitem__(3, "x"), "^marginals: "),
        "unsorted": ("gaussian", lambda doc: TestModelArtifact.active_row(doc).reverse(),
                     "^marginals: every row must be sorted"),
        "nan": ("vine", lambda doc: TestModelArtifact.active_row(doc).__setitem__(0, float("nan")),
                "^marginals: values must be finite"),
        "columns-not-list": ("gaussian", lambda doc: doc.update(columns=5), "^columns: expected T_1..T_k"),
        "columns-not-3k": ("vine", lambda doc: (doc["columns"].append("T_6"),
                                                doc["marginals"].append(doc["marginals"][0])),
                           "^columns: expected T_1..T_k"),
        "correlation-not-numeric": ("gaussian", lambda doc: doc.update(correlation="x"),
                                    "^correlation: expected a list of numbers"),
        "vine-not-object": ("vine", lambda doc: doc.update(vine=7), "^vine: expected an object with matrix"),
        "vine-no-matrix": ("vine", lambda doc: doc["vine"].pop("matrix"), "^vine: expected an object with matrix"),
        "copula-no-theta": ("vine", lambda doc: doc["vine"]["copulas"][0][1].pop("theta"),
                            r"^vine\.copulas\[0\]\[1\]: missing theta$"),
        "copula-theta-string": ("vine", lambda doc: doc["vine"]["copulas"][1][0].update(theta="x"),
                                r"^vine\.copulas\[1\]\[0\]: theta, loglik and tau_hat must be finite numbers"),
        "copula-nan-theta": ("vine", lambda doc: doc["vine"]["copulas"][0][2].update(theta=float("nan")),
                             r"^vine\.copulas\[0\]\[2\]: theta, loglik and tau_hat must be finite"),
        "matrix-not-list": ("vine", lambda doc: doc["vine"].update(matrix=3), r"^vine\.matrix: expected a list"),
        "copulas-not-list": ("vine", lambda doc: doc["vine"].update(copulas=3), r"^vine\.copulas: expected a list"),
        "copula-bad-family": ("vine", lambda doc: doc["vine"]["copulas"][0][0].update(family="normal"),
                              r"^vine\.copulas\[0\]\[0\]: 'normal' is not a valid Family"),
        "marginals-numeric-string": ("gaussian", lambda doc: doc["marginals"][0].__setitem__(0, "193.4"),
                                     "^marginals: expected a list of numbers"),
        "marginals-bool": ("vine", lambda doc: TestModelArtifact.active_row(doc).__setitem__(-1, True),
                           "^marginals: expected a list of numbers"),
        "correlation-numeric-string": ("gaussian", lambda doc: doc["correlation"].__setitem__(0, "1.0"),
                                       "^correlation: expected a list of numbers"),
        "active-list-entry": ("vine", lambda doc: doc["active"].__setitem__(0, [0]), "^active: expected distinct"),
        "active-object-entry": ("gaussian", lambda doc: doc["active"].__setitem__(1, {}), "^active: expected distinct"),
        # A constant column in the copula would sample at one value in every profile.
        "active-names-constant-column": ("gaussian", lambda doc: doc["active"].__setitem__(
            0, min(set(range(len(doc["columns"]))) - set(doc["active"]))), "^active: expected distinct"),
        "negative-temperature": ("gaussian", lambda doc: doc["marginals"][0].__setitem__(0, -5.0),
                                 r"^marginals: row 0 \(T_1\): T and p must be positive"),
        "zero-pressure": ("vine", lambda doc: doc["marginals"][5].__setitem__(0, 0.0),
                          r"^marginals: row 5 \(p_1\): T and p must be positive"),
        "no-ranking": ("gaussian", lambda doc: doc.pop("ranking"), "^model artifact is missing the ranking field"),
        "ranking-not-list": ("vine", lambda doc: doc.update(ranking=3), "^ranking: expected one integer per active"),
        "ranking-too-short": ("gaussian", lambda doc: doc["ranking"].pop(), "^ranking: expected one integer per active"),
        "ranking-too-long": ("vine", lambda doc: doc["ranking"].append(0), "^ranking: expected one integer per active"),
        "ranking-bool": ("vine", lambda doc: doc["ranking"].__setitem__(0, False), "^ranking: expected one integer"),
        "ranking-float": ("gaussian", lambda doc: doc["ranking"].__setitem__(0, 0.0), "^ranking: expected one integer"),
        "ranking-negative": ("gaussian", lambda doc: doc["ranking"].__setitem__(0, -1), "^ranking: expected one integer"),
        "ranking-not-in-first-use-order": ("vine", lambda doc: doc["ranking"].insert(0, doc["ranking"].pop(1)),
                                           "^ranking: .* in order of first use"),
        "ranking-skips-a-column": ("gaussian", lambda doc: doc["ranking"].__setitem__(-1, max(doc["ranking"]) + 1),
                                   "^ranking: .* in order of first use"),
        # A canonical map naming fewer copula columns than the copula has.
        # One ranking would be a copula on one column.
        "ranking-one-column": ("vine", lambda doc: doc.update(ranking=[0] * len(doc["ranking"])),
                               "^ranking: .* at least 2 of them$"),
        "ranking-merges-two-columns": ("gaussian", lambda doc: doc["ranking"].__setitem__(-1, doc["ranking"][-2]),
                                       "^correlation: 64 entries do not fit 7 copula columns"),
        "ranking-merges-two-vine-columns": ("vine", lambda doc: doc["ranking"].__setitem__(-1, doc["ranking"][-2]),
                                            r"^vine\.matrix: expected a list of 7 rows for 7 copula columns"),
        "version-true": ("gaussian", lambda doc: doc.update(version=True),
                         "^unsupported model format version True"),
        "version-float": ("vine", lambda doc: doc.update(version=2.0), "^unsupported model format version 2.0"),
        "negative-tauc": ("gaussian", lambda doc: doc["marginals"][10].__setitem__(0, -1e-3),
                          r"^marginals: row 10 \(tauc_1\): T and p must be positive, tauc nonnegative"),
        "copula-nu-not-student": ("vine", lambda doc: doc["vine"]["copulas"][0][0].update(
            family="gaussian", rotation=0, theta=0.5, nu=4.0),
            r"^vine\.copulas\[0\]\[0\]: gaussian copula takes no nu, got 4\.0$"),
        "copula-rotation-float": ("vine", lambda doc: doc["vine"]["copulas"][0][0].update(
            family="clayton", rotation=180.0, theta=2.0, nu=None),
            r"^vine\.copulas\[0\]\[0\]: rotation must be one of 0/90/180/270, got 180\.0$"),
        "copula-tau-hat-above-one": ("vine", lambda doc: doc["vine"]["copulas"][0][1].update(tau_hat=5.0),
                                     r"^vine\.copulas\[0\]\[1\]: tau_hat must lie in \[-1, 1\], got 5\.0$"),
    }

    @pytest.mark.parametrize("fault", MALFORMED)
    def test_malformed_artifact_rejected(self, tmp_path, fault):
        kind, edit, match = self.MALFORMED[fault]
        path, doc = self.saved(tmp_path, kind)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=match):
            load_model(path)

    def test_corrupted_matrix_entry_rejected(self, tmp_path):
        path, doc = self.saved(tmp_path)
        doc["vine"]["matrix"][1][0] = doc["vine"]["matrix"][0][0]  # a variable twice in column 0
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="^vine.matrix:"):
            load_model(path)

    def test_broken_proximity_rejected(self):
        # Tree 1 is {0,1}, {1,3}, {2,3}; column 0 then asks for 0 and 2 given 1
        # in tree 2, which needs a tree-1 edge {1, 2}.  With 3 in its place
        # the matrix is valid.
        tree1 = (((bicop.INDEPENDENCE, 0.0),) * 3,)
        valid = ((1, 3, 3, 3), (3, 2, 2, -1), (2, 1, -1, -1), (0, -1, -1, -1))
        assert multicop.VineModel(valid, tree1).trees[1][0].cond == (0, 3)
        broken = ((1, 3, 3, 3), (2, 2, 2, -1), (3, 1, -1, -1), (0, -1, -1, -1))
        with pytest.raises(ValueError, match="proximity"):
            multicop.VineModel(broken, tree1)
