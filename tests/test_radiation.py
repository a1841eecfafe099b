import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copaug import dataset
from copaug.dataset import LevelGrid, Profile, ProfileSet, generate_surrogate
from copaug.radiation import (
    RadiationConstants,
    STEFAN_BOLTZMANN,
    downwelling_longwave,
    half_level_pressures,
    layer_optical_depth,
    radiate_set,
    sigma_layers,
)


class TestHalfLevels:
    def test_three_levels(self):
        np.testing.assert_array_equal(half_level_pressures([100.0, 300.0, 500.0]),
                                      [0.0, 200.0, 400.0, 600.0])

    def test_single_level_mirror(self):
        np.testing.assert_array_equal(half_level_pressures([500.0]), [0.0, 1000.0])

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            half_level_pressures([300.0, 100.0])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=30))
    def test_output_strictly_increasing(self, raw):
        p = np.unique(np.asarray(raw))
        half = half_level_pressures(p)
        assert np.all(np.diff(half) > 0)
        assert half[0] == 0.0


class TestSigmaLayers:
    def test_equal_thirds(self):
        layers = sigma_layers([0.0, 200.0, 400.0, 600.0])
        np.testing.assert_allclose(layers.delta_sigma, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)

    def test_single_layer(self):
        np.testing.assert_array_equal(sigma_layers([0.0, 900.0]).delta_sigma, [1.0])

    def test_sum_to_one(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            p = np.concatenate([[0.0], np.sort(gen.uniform(10, 1e5, 25))])
            assert abs(sigma_layers(p).delta_sigma.sum() - 1.0) < 1e-9

    def test_requires_zero_top(self):
        with pytest.raises(ValueError):
            sigma_layers([10.0, 500.0])


def one_layer_flux(T, tau_c):
    """Surface flux L[1] of a one-layer column with no gas: B(T) * eps(tau_c)."""
    prof = Profile([T], [5e4], [tau_c])
    return downwelling_longwave(prof, RadiationConstants(gas_optical_depth=0.0))[1]


class TestPlanck:
    def test_known_values(self):
        # An opaque layer (eps rounds to 1) passes its Planck flux sigma T^4 down exactly.
        assert one_layer_flux(300.0, 100.0) == STEFAN_BOLTZMANN * 300.0 ** 4
        np.testing.assert_allclose(one_layer_flux(300.0, 100.0), 459.30, atol=0.01)
        np.testing.assert_allclose(one_layer_flux(255.0, 100.0), 239.76, atol=0.01)

    def test_stefan_boltzmann_not_overridable(self):
        assert RadiationConstants(diffusivity=1.3).sigma_sb == STEFAN_BOLTZMANN
        with pytest.raises(TypeError):
            RadiationConstants(sigma_sb=1.0)


class TestLayerOptics:
    def test_gas_contribution(self):
        np.testing.assert_allclose(layer_optical_depth(0.0, 0.5), 0.85, rtol=1e-15)

    def test_cloud_only(self):
        assert layer_optical_depth(2.0, 0.0) == 2.0

    def test_clear_column_sums_to_gas_depth(self):
        p = np.concatenate([[0.0], np.sort(np.random.default_rng(1).uniform(10, 1e5, 40))])
        ds = sigma_layers(p).delta_sigma
        total = math.fsum(layer_optical_depth(np.zeros(40), ds))
        assert abs(total - 1.7) < 1e-12

    def test_emissivity_values(self):
        B = STEFAN_BOLTZMANN * 280.0 ** 4
        assert one_layer_flux(280.0, 0.0) == 0.0
        np.testing.assert_allclose(one_layer_flux(280.0, 1.0) / B, 1.0 - math.exp(-1.66), rtol=1e-15)
        assert abs(one_layer_flux(280.0, 50.0) / B - 1.0) < 1e-9

    def test_emissivity_monotone(self):
        taus = np.linspace(0.0, 10.0, 100)[:, None]
        s = ProfileSet(LevelGrid(1), np.hstack([np.full_like(taus, 280.0), np.full_like(taus, 5e4), taus]))
        assert np.all(np.diff(radiate_set(s, RadiationConstants(gas_optical_depth=0.0)).fluxes[:, 1]) > 0)


def profile_from_radiances(B, eps, consts=RadiationConstants()):
    """Build a profile whose layers have the given Planck fluxes/emissivities."""
    T = (np.asarray(B) / consts.sigma_sb) ** 0.25
    tau = -np.log1p(-np.asarray(eps)) / consts.diffusivity
    n = len(B)
    p = np.linspace(1e4, 1e5, n)
    consts_gas_free = RadiationConstants(diffusivity=consts.diffusivity, gas_optical_depth=0.0)
    return Profile(T, p, tau), consts_gas_free


class TestDownwelling:
    def test_transparent_atmosphere(self):
        prof = Profile([250.0, 260.0, 270.0], [1e4, 5e4, 9e4], [0.0, 0.0, 0.0])
        consts = RadiationConstants(gas_optical_depth=0.0)
        np.testing.assert_array_equal(downwelling_longwave(prof, consts), np.zeros(4))

    def test_isothermal_opaque(self):
        prof = Profile([280.0], [5e4], [100.0])
        consts = RadiationConstants(gas_optical_depth=0.0)
        L = downwelling_longwave(prof, consts)
        np.testing.assert_allclose(L[-1], STEFAN_BOLTZMANN * 280.0 ** 4, rtol=1e-6)

    def test_two_layer_hand_case(self):
        prof, consts = profile_from_radiances([100.0, 200.0], [0.5, 0.25])
        L = downwelling_longwave(prof, consts)
        assert L[0] == 0.0
        assert abs(L[1] - 50.0) < 1e-12
        assert abs(L[2] - 87.5) < 1e-12

    def test_bounded_by_max_planck(self):
        s = generate_surrogate(30, LevelGrid(15), 5)
        for prof in s.profiles:
            L = downwelling_longwave(prof)
            assert L[0] == 0.0
            assert np.all(L >= 0.0)
            B = STEFAN_BOLTZMANN * prof.T ** 4
            for i in range(1, len(L)):
                assert L[i] <= B[:i].max() + 1e-9

    def test_monotone_in_cloud_depth(self):
        # Warm emitting layer: adding cloud there must increase flux below.
        base = Profile([230.0, 280.0, 250.0], [1e4, 5e4, 9e4], [0.0, 0.0, 0.0])
        more = Profile([230.0, 280.0, 250.0], [1e4, 5e4, 9e4], [0.0, 1.0, 0.0])
        L0 = downwelling_longwave(base)
        L1 = downwelling_longwave(more)
        assert np.all(L1[2:] >= L0[2:] - 1e-12)

    def test_matches_layer_recursion_oracle(self):
        # Independent re-derivation of the flux from the layer quantities.
        s = generate_surrogate(5, LevelGrid(12), 9)
        consts = RadiationConstants()
        for prof in s.profiles:
            ds = sigma_layers(half_level_pressures(prof.p)).delta_sigma
            tau = prof.tau_c + consts.gas_optical_depth * ds
            eps = 1.0 - np.exp(-consts.diffusivity * tau)
            B = STEFAN_BOLTZMANN * prof.T ** 4
            L = 0.0
            expected = [0.0]
            for i in range(12):
                L = L * (1.0 - eps[i]) + B[i] * eps[i]
                expected.append(L)
            np.testing.assert_allclose(downwelling_longwave(prof, consts), expected, rtol=1e-14)

    def test_grid_refinement_consistency(self):
        # Halving every layer (and its cloud depth) barely changes the flux
        # at shared interfaces of a smooth isothermal column.
        consts = RadiationConstants(gas_optical_depth=0.0)
        T = 272.0
        B = STEFAN_BOLTZMANN * T ** 4
        taus = np.full(8, 0.4)

        def march(taus):
            L, out = 0.0, [0.0]
            for t in taus:
                e = 1.0 - math.exp(-consts.diffusivity * t)
                L = L * (1.0 - e) + B * e
                out.append(L)
            return out

        coarse = march(taus)
        fine = march(np.repeat(taus / 2.0, 2))
        for i in range(1, 9):
            assert abs(fine[2 * i] - coarse[i]) <= 0.01 * max(coarse[i], 1e-12)


class TestRadiateSet:
    def test_shapes_and_order(self):
        s = generate_surrogate(12, LevelGrid(9), 2)
        out = radiate_set(s)
        assert out.fluxes.shape == (12, 10)
        assert np.all(np.isfinite(out.fluxes)) and np.all(out.fluxes >= 0.0)

    def test_shares_the_input_matrix(self):
        s = generate_surrogate(5, LevelGrid(4), 2)
        assert radiate_set(s).inputs is s.inputs

    def test_does_not_rescan_the_inputs(self, monkeypatch):
        s = generate_surrogate(5, LevelGrid(4), 2)
        scans = []
        real = dataset._first_invalid_row
        monkeypatch.setattr(dataset, "_first_invalid_row", lambda *a: scans.append(1) or real(*a))
        assert radiate_set(s).fluxes.shape == (5, 5)
        assert not scans

    def test_permutation_equivariance(self):
        s = generate_surrogate(8, LevelGrid(7), 3)
        out = radiate_set(s)
        perm = [3, 1, 0, 2, 7, 6, 5, 4]
        out_perm = radiate_set(s.subset(perm))
        np.testing.assert_array_equal(out_perm.fluxes, out.fluxes[perm])

    def test_paper_scale_count(self):
        s = generate_surrogate(2500, LevelGrid(10), 4)
        assert radiate_set(s).fluxes.shape == (2500, 11)

    def test_peak_memory(self):
        # Optical depth turns into eps in place, and T ** 4 into B: besides the
        # flux array, only eps and B are full size.  numpy reports its buffers
        # to tracemalloc.
        s = generate_surrogate(4000, LevelGrid(137), 4)
        tracemalloc.start()
        try:
            fluxes = radiate_set(s).fluxes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * fluxes.nbytes


def reference_fluxes(T, p, tau_c, consts):
    """Per-row flux recursion, one profile at a time: the reference the
    vectorised radiate_set must match bit for bit."""
    rows = []
    for t, q, c in zip(T, p, tau_c):
        n = q.shape[0]
        p_half = np.empty(n + 1)
        p_half[0] = 0.0
        p_half[1:n] = 0.5 * (q[:-1] + q[1:])
        p_half[n] = q[-1] + (q[-1] - p_half[n - 1])
        for i in range(1, n + 1):
            if p_half[i] <= p_half[i - 1]:
                p_half[i] = np.nextafter(p_half[i - 1], np.inf)
        ds = np.diff(p_half / p_half[-1])
        if np.any(ds <= 0):
            raise ValueError("delta_sigma must be positive elementwise")
        eps = -np.expm1(-consts.diffusivity * (c + consts.gas_optical_depth * ds))
        B = consts.sigma_sb * t ** 4
        L = np.empty(n + 1)
        L[0] = 0.0
        for i in range(1, n + 1):
            L[i] = L[i - 1] * (1.0 - eps[i - 1]) + B[i - 1] * eps[i - 1]
        rows.append(L)
    return np.array(rows).reshape(len(T), T.shape[1] + 1)


class TestRadiateSetBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([RadiationConstants(), RadiationConstants(diffusivity=1.3, gas_optical_depth=0.4)]))
    def test_matches_per_row_reference(self, n, n_full, seed, consts):
        gen = np.random.default_rng(seed)
        T = gen.uniform(150.0, 320.0, (n, n_full))
        tau_c = gen.exponential(1.0, (n, n_full)) * (gen.random((n, n_full)) < 0.4)
        p = np.sort(gen.uniform(10.0, 1.1e5, (n, n_full)), axis=1)
        p[:, 1:] += np.arange(1, n_full)  # no ties
        # Row 0 is consecutive floats, other rows get random one-ulp runs:
        # their half-level midpoints collapse, so the nextafter repair runs.
        for k in range(n):
            for j in range(1, n_full):
                if k == 0 or gen.random() < 0.5:
                    p[k, j] = np.nextafter(p[k, j - 1], np.inf)
        s = ProfileSet(LevelGrid(n_full), np.hstack([T, p, tau_c]))
        try:
            expected = reference_fluxes(s.T, s.p, s.tau_c, consts)
        except ValueError:
            # One-ulp pressure steps can also collapse a sigma difference.
            with pytest.raises(ValueError, match=r"delta_sigma must be positive elementwise \(row \d+\)"):
                radiate_set(s, consts)
            return
        out = radiate_set(s, consts).fluxes
        np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))
        for prof, row in zip(s.profiles, expected):
            np.testing.assert_array_equal(downwelling_longwave(prof, consts).view(np.uint64),
                                          row.view(np.uint64))

    def test_consecutive_float_pressures_need_the_repair(self):
        # Four consecutive floats: three midpoints, two of which round to the
        # same float, so the reference's repair branch is taken.
        p = np.array([5e4])
        for _ in range(3):
            p = np.append(p, np.nextafter(p[-1], np.inf))
        assert len(set((0.5 * (p[:-1] + p[1:])).tolist())) < 3
        s = ProfileSet(LevelGrid(4), np.hstack([np.full((1, 4), 250.0), p[None], np.zeros((1, 4))]))
        expected = reference_fluxes(s.T, s.p, s.tau_c, RadiationConstants())
        np.testing.assert_array_equal(radiate_set(s).fluxes.view(np.uint64), expected.view(np.uint64))
