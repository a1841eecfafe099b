import hashlib
import itertools

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kendalltau as scipy_kendalltau
from scipy.stats import multivariate_normal

from copaug import bicop, rng
from copaug.bicop import (
    DEFAULT_CATALOGUE,
    INDEPENDENCE,
    Family,
    PairCopula,
    PseudoObs,
    STUDENT_NU_GRID,
    fit_pair,
    h_func,
    h_inv,
    kendall_tau,
    pair_pdf,
    param_to_tau,
    sample_pair,
    swap_arguments,
    tau_independence_threshold,
    tau_to_param,
)
from copaug.bicop import EPS, _clip, _direction_one, _h1_base, _h1_given, _h1_inv_base

# One parameter set per family, used by the shared property tests.
CASES = [
    PairCopula(Family.GAUSSIAN, 0, 0.7),
    PairCopula(Family.STUDENT_T, 0, 0.6, 4.0),
    PairCopula(Family.CLAYTON, 0, 2.0),
    PairCopula(Family.CLAYTON, 90, 2.0),
    PairCopula(Family.GUMBEL, 0, 2.0),
    PairCopula(Family.GUMBEL, 180, 2.0),
    PairCopula(Family.FRANK, 0, 5.0),
    PairCopula(Family.FRANK, 0, -5.0),
    PairCopula(Family.JOE, 0, 2.5),
    PairCopula(Family.JOE, 270, 2.5),
    INDEPENDENCE,
]


# The midpoint rule cannot resolve the corner singularity of strongly
# dependent Clayton/Joe copulas at 1e-3 on a 200x200 grid, so the
# integration check runs on moderate parameters; correctness of the
# stronger parameters is covered by the CDF-derivative and round-trip tests.
INTEGRATION_CASES = [
    PairCopula(Family.GAUSSIAN, 0, 0.7),
    PairCopula(Family.STUDENT_T, 0, 0.6, 4.0),
    PairCopula(Family.CLAYTON, 0, 1.5),
    PairCopula(Family.CLAYTON, 90, 1.5),
    PairCopula(Family.GUMBEL, 0, 1.8),
    PairCopula(Family.GUMBEL, 180, 1.8),
    PairCopula(Family.FRANK, 0, 5.0),
    PairCopula(Family.FRANK, 0, -5.0),
    PairCopula(Family.JOE, 0, 2.0),
    PairCopula(Family.JOE, 270, 2.0),
    INDEPENDENCE,
]


def case_id(c):
    return f"{c.family.value}-r{c.rotation}"


class TestParameterValidation:
    def test_gaussian_rho_range(self):
        with pytest.raises(ValueError):
            PairCopula(Family.GAUSSIAN, 0, 1.0)

    def test_clayton_positive(self):
        with pytest.raises(ValueError):
            PairCopula(Family.CLAYTON, 0, -0.5)

    def test_gumbel_at_least_one(self):
        with pytest.raises(ValueError):
            PairCopula(Family.GUMBEL, 0, 0.9)

    def test_rotation_only_for_asymmetric(self):
        with pytest.raises(ValueError):
            PairCopula(Family.GAUSSIAN, 90, 0.5)

    def test_student_needs_nu(self):
        with pytest.raises(ValueError):
            PairCopula(Family.STUDENT_T, 0, 0.5)

    @pytest.mark.parametrize("family, theta", [
        (Family.GAUSSIAN, 0.5), (Family.CLAYTON, 2.0), (Family.INDEPENDENCE, 0.0),
    ])
    def test_only_student_takes_nu(self, family, theta):
        with pytest.raises(ValueError, match=f"^{family.value} copula takes no nu, got 4.0$"):
            PairCopula(family, 0, theta, 4.0)

    @pytest.mark.parametrize("rotation", [180.0, True])
    def test_rotation_must_be_an_int(self, rotation):
        with pytest.raises(ValueError, match="^rotation must be one of 0/90/180/270"):
            PairCopula(Family.CLAYTON, rotation, 2.0)

    @pytest.mark.parametrize("family, theta, nu", [
        (Family.JOE, np.nan, None), (Family.CLAYTON, np.inf, None), (Family.FRANK, -np.inf, None),
        (Family.GUMBEL, np.nan, None), (Family.STUDENT_T, 0.5, np.nan), (Family.STUDENT_T, 0.5, np.inf),
    ])
    def test_non_finite_parameters_rejected(self, family, theta, nu):
        with pytest.raises(ValueError, match="theta and nu must be finite"):
            PairCopula(family, 0, theta, nu)


class TestDensity:
    def test_independence_is_one(self):
        u, v = np.meshgrid(np.linspace(0.1, 0.9, 5), np.linspace(0.1, 0.9, 5))
        np.testing.assert_array_equal(pair_pdf(INDEPENDENCE, u, v), np.ones((5, 5)))

    def test_gaussian_zero_rho_is_one(self):
        c = PairCopula(Family.GAUSSIAN, 0, 0.0)
        np.testing.assert_allclose(pair_pdf(c, 0.3, 0.8), 1.0, atol=1e-14)

    def test_gaussian_median_point(self):
        c = PairCopula(Family.GAUSSIAN, 0, 0.5)
        np.testing.assert_allclose(pair_pdf(c, 0.5, 0.5), 1.0 / np.sqrt(0.75), rtol=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            pair_pdf(INDEPENDENCE, 0.0, 0.5)
        with pytest.raises(ValueError):
            pair_pdf(INDEPENDENCE, 0.5, 1.0)

    def test_nan_rejected(self):
        for u, v in ((np.nan, 0.5), (0.5, np.array([0.2, np.nan]))):
            with pytest.raises(ValueError, match="finite and strictly inside"):
                pair_pdf(CASES[0], u, v)

    @pytest.mark.parametrize("bad", [0.0, 1.0, np.nan, -np.inf])
    def test_a_bad_argument_raises_on_every_call(self, bad):
        # A PseudoObs makes its (0, 1) check once and keeps the answer.
        x = rng.uniforms(3, 20)
        x[7] = bad
        wrapped, good = PseudoObs(x), PseudoObs(rng.uniforms(4, 20))
        for arg in (x, wrapped, wrapped):
            for c in (CASES[1], CASES[4]):
                for call in (lambda: pair_pdf(c, arg, good), lambda: h_func(c, good, arg, 2),
                             lambda: h_inv(c, arg, good), lambda: fit_pair(good, arg)):
                    with pytest.raises(ValueError, match="finite and strictly inside"):
                        call()
        assert not wrapped.inside and good.inside

    @pytest.mark.parametrize("c", INTEGRATION_CASES, ids=case_id)
    def test_integrates_to_one(self, c):
        n = 200
        g = (np.arange(n) + 0.5) / n
        u, v = np.meshgrid(g, g)
        assert abs(pair_pdf(c, u, v).mean() - 1.0) < 1e-3

    def test_survival_rotation_identity(self):
        base = PairCopula(Family.CLAYTON, 0, 2.0)
        rot = PairCopula(Family.CLAYTON, 180, 2.0)
        u = np.linspace(0.05, 0.95, 9)
        v = np.linspace(0.9, 0.1, 9)
        np.testing.assert_array_equal(pair_pdf(rot, u, v), pair_pdf(base, 1 - u, 1 - v))


class TestHFunctions:
    def test_independence_passthrough(self):
        assert h_func(INDEPENDENCE, 0.3, 0.9, 1) == 0.3
        assert h_inv(INDEPENDENCE, 0.3, 0.9, 2) == 0.3

    def test_gaussian_median_any_rho(self):
        for rho in (-0.9, -0.3, 0.2, 0.8):
            c = PairCopula(Family.GAUSSIAN, 0, rho)
            np.testing.assert_allclose(h_func(c, 0.5, 0.5, 1), 0.5, atol=1e-12)

    def test_gaussian_closed_form(self):
        c = PairCopula(Family.GAUSSIAN, 0, 0.8)
        from scipy.special import ndtr
        expected = ndtr(ndtri(0.9) / 0.6)
        np.testing.assert_allclose(h_func(c, 0.9, 0.5, 1), expected, rtol=1e-12)
        np.testing.assert_allclose(h_inv(c, expected, 0.5, 1), 0.9, rtol=1e-9)

    @pytest.mark.parametrize("c", CASES, ids=case_id)
    @pytest.mark.parametrize("direction", [1, 2])
    def test_h_inv_round_trip(self, c, direction):
        gen = np.random.default_rng(0)
        w = gen.uniform(0.001, 0.999, 100)
        z = gen.uniform(0.001, 0.999, 100)
        if direction == 1:
            err = np.abs(h_func(c, h_inv(c, w, z, 1), z, 1) - w)
        else:
            err = np.abs(h_func(c, z, h_inv(c, w, z, 2), 2) - w)
        assert err.max() < 1e-9

    @pytest.mark.parametrize("c", CASES, ids=case_id)
    def test_h_monotone_in_conditioned_argument(self, c):
        u = np.linspace(0.02, 0.98, 40)
        for v in (0.2, 0.5, 0.8):
            h = h_func(c, u, np.full_like(u, v), 1)
            assert np.all(np.diff(h) >= -1e-12)

    def test_matches_cdf_derivative_archimedean(self):
        def cdf(fam, u, v, th):
            if fam is Family.CLAYTON:
                return (u ** -th + v ** -th - 1.0) ** (-1.0 / th)
            if fam is Family.GUMBEL:
                return np.exp(-(((-np.log(u)) ** th + (-np.log(v)) ** th) ** (1.0 / th)))
            if fam is Family.FRANK:
                return -np.log1p(np.expm1(-th * u) * np.expm1(-th * v) / np.expm1(-th)) / th
            raise AssertionError(fam)

        h = 1e-6
        for fam, th in [(Family.CLAYTON, 2.0), (Family.GUMBEL, 2.0), (Family.FRANK, 4.0)]:
            c = PairCopula(fam, 0, th)
            for (u, v) in [(0.3, 0.6), (0.7, 0.2), (0.5, 0.5)]:
                fd = (cdf(fam, u, v + h, th) - cdf(fam, u, v - h, th)) / (2 * h)
                assert abs(fd - float(h_func(c, u, v, 1))) < 1e-5

    def test_matches_cdf_derivative_gaussian(self):
        rho = 0.6
        c = PairCopula(Family.GAUSSIAN, 0, rho)
        mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
        h = 1e-6
        for (u, v) in [(0.3, 0.6), (0.7, 0.2), (0.9, 0.8)]:
            fd = (mvn.cdf([ndtri(u), ndtri(v + h)]) - mvn.cdf([ndtri(u), ndtri(v - h)])) / (2 * h)
            assert abs(fd - float(h_func(c, u, v, 1))) < 1e-5


def old_h_func(c, u, v, direction):
    """h_func as dispatched before direction 2 was folded onto direction 1."""
    h2 = lambda f, a, b, t, nu: _h1_base(f, b, a, t, nu)
    u, v = _clip(u), _clip(v)
    f, t, nu, rot = c.family, c.theta, c.nu, c.rotation
    table = {
        (1, 0): lambda: _h1_base(f, u, v, t, nu),
        (1, 90): lambda: 1.0 - h2(f, v, 1.0 - u, t, nu),
        (1, 180): lambda: 1.0 - _h1_base(f, 1.0 - u, 1.0 - v, t, nu),
        (1, 270): lambda: h2(f, 1.0 - v, u, t, nu),
        (2, 0): lambda: h2(f, u, v, t, nu),
        (2, 90): lambda: _h1_base(f, v, 1.0 - u, t, nu),
        (2, 180): lambda: 1.0 - h2(f, 1.0 - u, 1.0 - v, t, nu),
        (2, 270): lambda: 1.0 - _h1_base(f, 1.0 - v, u, t, nu),
    }
    return _clip(table[direction, rot]())


def old_h_inv(c, w, z, direction):
    """h_inv as dispatched before direction 2 was folded onto direction 1."""
    w, z = _clip(w), _clip(z)
    f, t, nu, rot = c.family, c.theta, c.nu, c.rotation
    inv = lambda a, b: _h1_inv_base(f, a, b, t, nu)
    table = {
        (1, 0): lambda: inv(w, z),
        (1, 90): lambda: 1.0 - inv(1.0 - w, z),
        (1, 180): lambda: 1.0 - inv(1.0 - w, 1.0 - z),
        (1, 270): lambda: inv(w, 1.0 - z),
        (2, 0): lambda: inv(w, z),
        (2, 90): lambda: inv(w, 1.0 - z),
        (2, 180): lambda: 1.0 - inv(1.0 - w, 1.0 - z),
        (2, 270): lambda: 1.0 - inv(1.0 - w, z),
    }
    return _clip(table[direction, rot]())


ALL_ROTATIONS = [
    PairCopula(f, rot, theta, nu)
    for f, theta, nu in [
        (Family.GAUSSIAN, -0.6, None), (Family.STUDENT_T, 0.5, 4.0), (Family.CLAYTON, 2.0, None),
        (Family.GUMBEL, 1.7, None), (Family.FRANK, -4.0, None), (Family.JOE, 2.2, None),
        (Family.INDEPENDENCE, 0.0, None),
    ]
    for rot in ((0, 90, 180, 270) if f in (Family.CLAYTON, Family.GUMBEL, Family.JOE) else (0,))
]


@pytest.mark.parametrize("c", ALL_ROTATIONS, ids=case_id)
@pytest.mark.parametrize("direction", [1, 2])
def test_direction_fold_is_bit_identical(c, direction):
    draws = rng.uniforms(17, (400, 2))
    a, b = draws[:, 0], draws[:, 1]
    np.testing.assert_array_equal(h_func(c, a, b, direction), old_h_func(c, a, b, direction))
    np.testing.assert_array_equal(h_inv(c, a, b, direction), old_h_inv(c, a, b, direction))


# sha256 of h_func's then h_inv's output bytes along directions 1 and 2 on
# the grid below.  Recorded values: unlike old_h_func and old_h_inv, which
# call the live _h1_base and _h1_inv_base, they catch a change in those.  The
# Gumbel and Joe ones were re-recorded when their h-inverse became a bracketed
# Newton iteration (see test_newton_h_inv_matches_the_bisection).
H_DIGESTS = {
    "gaussian-r0": ("f98634bf9864895dcf9731e7aa496b117b24b4f35a4b9cd138d7d061ba087a2b",
                    "2e7a3da98e8ad11a62a075cd8ebccd39e8c08eb80e1800d47009a5033f807713"),
    "student-r0": ("1ac2600f54b52b6433751c082b3c1b59fb8d8f0da0cbfc99c43fd0ca06936a3d",
                   "e7c67e50e2c4fed5b15a3b4c535f48ae3c93f6fe4596eddb5629e956cdc91ab8"),
    "clayton-r0": ("2453711de00d313f68e1185f929767835bbcc0adba94504fc1dac9a346e04d8c",
                   "3c7878a76356fa6863472bb8fe9f4fd8eda4d6faa7d158a02a7a854cc3aaae11"),
    "clayton-r90": ("e33d81169d02215de8c1fd5d4de316c2544e44dfeac425545b629cb9c42503f2",
                    "1faf060726139e6d4a9c95482604331c3a6196cfb0a0e60d647e4cbed9c85ff1"),
    "clayton-r180": ("104eaa05d036fd9309c416d4c9766e71b299e10d1ea23ef01ee8c4d5872b34c3",
                     "1a22b9413ffcb50aa3ecacf76ee6cc43d6ac4fe0b0495d0f34922b202c5abb55"),
    "clayton-r270": ("bea57ad49dac36671db4ee0687345ffe1646cdb1b38e028d983b04b38bbf7fa0",
                     "5546e7842172ed96f4c045d0dfb084ee6782516a25a720ec728a31f726f58b13"),
    "gumbel-r0": ("687d313b20832baa648bd5ebaa6e42a930860c6bceaeffedcf97524d03b11026",
                  "4f8853109c060e7511d1ba9958d361113c19e1d584a957964d441babdf13b414"),
    "gumbel-r90": ("976d89aeba4b213f5dec877754dabc529e66eec3956eacadd38140b131b3123f",
                   "213a0dbaddf774df68798ca45d02d2e546f36f9a5dcb13d716b48ea3613f6437"),
    "gumbel-r180": ("0e5124d487d78de1d90499b0a7b323e645142a5b7b960ab55bb77ef63636ef7d",
                    "4307f7f4c262a6565604b1c3bcb959e4304edb3fb7621a4d27355806b11c90ff"),
    "gumbel-r270": ("262be6e7678dccd7db487e319741ba0dc54d7c79f7cda1020df8801526905cbf",
                    "535d9c8e269ad68e86ad0a0414685f41ca021dbbd81e9a0cb8239d9e0d66c986"),
    "frank-r0": ("a214b6bf3512aaa25872171accb1fc516d40be90ef512183dad5c09b125e5f15",
                 "ec49998ded968eec65045573726372a4281e448246b1f3f6b10e4f4aa7356bf1"),
    "joe-r0": ("c0ece78f27f79c4ea4d363a92385ad8af2135e39a534c1bbf7046c58f33cb77b",
               "dc9ed1d22c5312c8f793261ded0eb285ed412c25febea5d6a4d86dfc8533522b"),
    "joe-r90": ("c65dd6f81700996955c6f32472a11482ff2d9284d9c50c06265c1a027f0f01cc",
                "dce8beee5eac4ee1551ea9bdbe76ff3cf9ee2d598c388b56ef245d36c03e664e"),
    "joe-r180": ("5c98a3643c8240f0dfbd53f7401dc7a31b7ab3939e95d2e53792da66b3f58677",
                 "c6434f6d3622f274af7963d1eb6870650764f118c5956ec1a605469c7b67c2b0"),
    "joe-r270": ("1a6d2f26cfa8904650b3c2b2fac01cbe781ade2f9ec9170aae3aec64c98ebd9a",
                 "db8cda25824c26463038b4245c2b7e9e730e16497ecc9fed261e15b51046030c"),
    "independence-r0": ("bfc0f218583335fd15e4cbff44583cea49260717258ea4c5ed36b1782b08f5c1",
                        "e1b7b2d222967512432ee2791357540a202825a2deee813d1a9bcb1886d451f5"),
}


# Distances from either bound; 1 - 1e-16 rounds to 1, so the largest double below 1 stands in.
NEAR = np.array([1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6])
EDGE_GRID = np.concatenate((NEAR, np.linspace(0.02, 0.98, 25), np.minimum(1.0 - NEAR, np.nextafter(1.0, 0.0))))


@pytest.mark.parametrize("c", ALL_ROTATIONS, ids=case_id)
def test_h_functions_match_recorded_sha256(c):
    a, b = (x.ravel() for x in np.meshgrid(EDGE_GRID, EDGE_GRID))
    digests = tuple(hashlib.sha256(h_func(c, a, b, d).tobytes() + h_inv(c, a, b, d).tobytes()).hexdigest()
                    for d in (1, 2))
    assert digests == H_DIGESTS[case_id(c)]


@pytest.mark.parametrize("c", ALL_ROTATIONS, ids=case_id)
def test_h_func_derivative_is_the_density(c):
    # h_func(c, u, v, 1) = P(U <= u | V = v) is the integral of the density in u
    # (and h_func(c, u, v, 2) in v), so density and h-functions rotate alike.
    u = np.array([0.15, 0.3, 0.5, 0.7, 0.85, 0.4])
    v = np.array([0.6, 0.2, 0.5, 0.75, 0.35, 0.9])
    step = 1e-5
    pdf = pair_pdf(c, u, v)
    d_u = (h_func(c, u + step, v, 1) - h_func(c, u - step, v, 1)) / (2 * step)
    d_v = (h_func(c, u, v + step, 2) - h_func(c, u, v - step, 2)) / (2 * step)
    np.testing.assert_allclose(d_u, pdf, rtol=1e-6)
    np.testing.assert_allclose(d_v, pdf, rtol=1e-6)


@pytest.mark.parametrize("c", ALL_ROTATIONS, ids=case_id)
def test_swap_arguments_is_the_reversed_pair(c):
    draws = rng.uniforms(5, (200, 2))
    a, b = draws[:, 0], draws[:, 1]
    np.testing.assert_array_equal(h_func(swap_arguments(c), b, a, 1), h_func(c, a, b, 2))
    np.testing.assert_array_equal(h_inv(swap_arguments(c), a, b, 1), h_inv(c, a, b, 2))


def bisected_h1_inv_base(family, w, v, theta, nu):
    """_h1_inv_base of Gumbel and Joe before the Newton solver: 64 halvings of [EPS, 1 - EPS]."""
    w, v = np.broadcast_arrays(w, v)
    h1 = _h1_given(family, v, theta)
    lo, hi = np.full(w.shape, EPS), np.full(w.shape, 1.0 - EPS)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = h1(mid) < w
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def assert_matches_the_bisection(c, w, z, direction):
    new = h_inv(c, w, z, direction)
    ref = _direction_one(c, direction, bisected_h1_inv_base, _clip(w), _clip(z))
    pair = (lambda x: (x, z)) if direction == 1 else (lambda x: (z, x))  # (u, v) of a conditioned x
    h = lambda x: h_func(c, *pair(x), direction)
    # Where the two roots differ by more than 1e-12, h is too flat for its
    # rounding to fix the root that closely: the density is below 1e-3, so an
    # error of 1e-15 in h moves the root by over 1e-12.  There the new root
    # solves h = w at least as closely as the bisection's.
    loose = np.abs(new - ref) > 1e-12
    assert np.all(pair_pdf(c, *pair(ref))[loose] < 1e-3)
    residual = lambda x: np.abs(h(x) - _clip(w))[loose]
    assert np.all(residual(new) <= residual(ref) + 2.0 ** -52)
    # h_func(h_inv(w)) returns w to 1e-12 wherever the bisection's root does.
    trip = lambda x: np.abs(h(x) - w)
    assert np.all(trip(new)[trip(ref) <= 1e-12] <= 1e-12)
    return new


GUMBEL_JOE = [c for c in ALL_ROTATIONS if c.family in (Family.GUMBEL, Family.JOE)]


@pytest.fixture
def newton_iterations(monkeypatch):
    """The iteration count of each Newton solve, counted as its slope evaluations."""
    real_h1_given, counts = bicop._h1_given, []

    def counting_h1_given(family, v, t):
        h1 = real_h1_given(family, v, t)
        counts.append(0)
        i = len(counts) - 1

        def counting(u, at=..., slope=False):
            counts[i] += slope
            return h1(u, at, slope)
        return counting

    monkeypatch.setattr(bicop, "_h1_given", counting_h1_given)
    return lambda: [n for n in counts if n]  # h_func and the bisection take no slope


@pytest.mark.parametrize("c", GUMBEL_JOE, ids=case_id)
@pytest.mark.parametrize("direction", [1, 2])
def test_newton_h_inv_matches_the_bisection(c, direction, newton_iterations):
    a, b = (x.ravel() for x in np.meshgrid(EDGE_GRID, EDGE_GRID))
    assert_matches_the_bisection(c, a, b, direction)
    draws = rng.uniforms(19, (2000, 2))
    new = h_inv(c, draws[:, 0], draws[:, 1], direction)
    ref = _direction_one(c, direction, bisected_h1_inv_base, draws[:, 0], draws[:, 1])
    np.testing.assert_allclose(new, ref, rtol=0, atol=1e-12)
    _, draws_solve = newton_iterations()
    assert draws_solve <= 24  # the bisection's 64 halvings, cut by Newton steps


@pytest.mark.parametrize("family", [Family.GUMBEL, Family.JOE])
def test_newton_ends_within_its_cap_near_the_bounds(family, newton_iterations):
    w, z = (x.ravel() for x in np.meshgrid([1e-16, np.nextafter(1.0, 0.0)], EDGE_GRID))
    for rotation in (0, 90, 180, 270):
        for direction in (1, 2):
            u = assert_matches_the_bisection(PairCopula(family, rotation, 20.0), w, z, direction)
            assert np.all((u >= EPS) & (u <= 1.0 - EPS))
    solves = newton_iterations()
    assert len(solves) == 8 and max(solves) <= 64


class TestKendallTau:
    def test_perfect_concordance(self):
        u = np.arange(10.0)
        assert kendall_tau(u, 2 * u + 1) == 1.0

    def test_hand_enumerated(self):
        np.testing.assert_allclose(kendall_tau(np.array([1.0, 2, 3]), np.array([3.0, 1, 2])), -1 / 3)

    def test_perfect_discordance(self):
        u = np.arange(10.0)
        assert kendall_tau(u, -u) == -1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau(np.arange(3.0), np.arange(4.0))

    @pytest.mark.parametrize("n", [2, 7, 33, 250, 1000])
    def test_matches_scipy_tau_b(self, n):
        draws = rng.uniforms(n, (n, 2))
        tie_free = (draws[:, 0], draws[:, 0] + 0.5 * draws[:, 1])
        tied = (np.floor(5 * draws[:, 0]), np.floor(4 * (draws[:, 0] + draws[:, 1])))
        for u, v in (tie_free, tied, (tied[0], tie_free[1])):
            assert abs(kendall_tau(u, v) - scipy_kendalltau(u, v).statistic) <= 1e-12

    def test_constant_vector_is_zero(self):
        assert kendall_tau(np.ones(5), np.arange(5.0)) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kendall_tau(np.array([0.1, np.nan, 0.3]), np.array([0.2, 0.5, 0.9]))


class TestPseudoObs:
    @staticmethod
    def vectors(n):
        draws = rng.uniforms(n + 1, (n, 2))
        x = draws[:, 0]
        return {
            "tie-free": x,
            "noisy": x + 0.5 * draws[:, 1],
            "tied": np.floor(3 * x),
            "tied-too": np.floor(2 * (x + draws[:, 1])),
            "constant": np.full(n, 0.25),
            "increasing": 2 * x + 1,
            "decreasing": -x,
        }

    # The tie-free pairs with one ranking, or one ranking and its reverse.
    MONOTONE = {("noisy", "noisy"), *itertools.product(("tie-free", "increasing", "decreasing"), repeat=2)}

    @pytest.mark.parametrize("n", [2, 3, 9, 250, 20_000])
    def test_shared_ranks_give_the_plain_array_tau_bit_for_bit(self, n):
        # One PseudoObs per vector, each ranked once and used in both roles
        # against every partner: ties in u, in v and in both, a constant
        # vector and exactly monotone pairs.  20,000 rows lie above 2^14,
        # where the compiled discordant count offsets its tree index.
        plain = self.vectors(n)
        wrapped = {name: PseudoObs(x) for name, x in plain.items()}
        for a, b in itertools.product(plain, repeat=2):
            tau = kendall_tau(wrapped[a], wrapped[b])
            assert tau == kendall_tau(plain[a].copy(), plain[b].copy()), (a, b)
            if (a, b) in self.MONOTONE:
                # Exactly +-1; scipy's sqrt formula is an ulp inside at 20,000 rows.
                assert tau == (-1.0 if (a == "decreasing") != (b == "decreasing") else 1.0), (a, b)
                continue
            reference = scipy_kendalltau(plain[a], plain[b]).statistic
            assert tau == (0.0 if np.isnan(reference) else reference), (a, b)
        assert kendall_tau(wrapped["tie-free"], wrapped["increasing"]) == 1.0
        assert kendall_tau(wrapped["decreasing"], wrapped["tie-free"]) == -1.0
        assert kendall_tau(wrapped["constant"], wrapped["tied"]) == 0.0

    def test_ties_reach_both_roles(self):
        u, v = PseudoObs([0.1, 0.1, 0.2, 0.3]), PseudoObs([0.5, 0.4, 0.4, 0.6])
        assert u.ranks[3] == 1 and v.ranks[3] == 1
        np.testing.assert_array_equal(v.ranks[2], [1, 0, 0, 2])
        assert kendall_tau(u, v) == kendall_tau(u.x, v.x) == scipy_kendalltau(u.x, v.x).statistic

    @pytest.mark.parametrize("direction", [1, 2])
    def test_h_func_reuses_student_scores_only_when_clipping_is_a_no_op(self, direction, monkeypatch):
        c = PairCopula(Family.STUDENT_T, 0, 0.6, 4.0)
        draws = rng.uniforms(6, (300, 2))
        u, v = draws[:, 0].copy(), draws[:, 1]
        u[0] = 1e-12  # below the clip floor: its scores must come from the clipped values
        wrapped_u, wrapped_v = PseudoObs(u), PseudoObs(v)
        expected = h_func(c, u, v, direction)
        np.testing.assert_array_equal(h_func(c, wrapped_u, wrapped_v, direction), expected)
        assert not wrapped_u.clipped and wrapped_v.clipped
        assert 4.0 not in wrapped_u._scores and 4.0 in wrapped_v._scores
        for other in CASES:
            np.testing.assert_array_equal(h_func(other, wrapped_u, wrapped_v, direction),
                                          h_func(other, u, v, direction))
        # h_inv reads stdtrit(nu + 1, w) and stdtrit(nu, z) from the same wrappers.
        w = draws[::-1, 1].copy()
        wrapped_w = PseudoObs(w)
        expected = h_inv(c, w, v, direction), h_inv(c, u, v, direction)
        real_stdtrit, calls = bicop.stdtrit, []
        monkeypatch.setattr(bicop, "stdtrit", lambda df, x: calls.append(df) or real_stdtrit(df, x))
        for _ in range(2):
            np.testing.assert_array_equal(h_inv(c, wrapped_w, wrapped_v, direction), expected[0])
        assert calls == [5.0]  # the score of v at nu = 4 is kept from h_func above
        for _ in range(2):
            np.testing.assert_array_equal(h_inv(c, wrapped_u, wrapped_v, direction), expected[1])
        assert calls == [5.0] * 3 and 5.0 not in wrapped_u._scores

    def test_fit_pair_on_pseudo_obs_is_bit_identical(self):
        s = sample_pair(PairCopula(Family.STUDENT_T, 0, 0.5, 6.0), 400, 13)
        u, v = PseudoObs(s[:, 0]), PseudoObs(s[:, 1])
        assert fit_pair(u, v) == fit_pair(s[:, 0], s[:, 1])
        assert sorted(u._scores) == list(STUDENT_NU_GRID)  # one stdtrit per nu, kept


class TestTauConversions:
    def test_known_values(self):
        assert tau_to_param(Family.GAUSSIAN, 0.0) == 0.0
        np.testing.assert_allclose(tau_to_param(Family.GAUSSIAN, 0.5), np.sin(np.pi / 4), rtol=1e-12)
        np.testing.assert_allclose(tau_to_param(Family.CLAYTON, 0.5), 2.0, rtol=1e-12)
        np.testing.assert_allclose(tau_to_param(Family.GUMBEL, 0.5), 2.0, rtol=1e-12)

    @pytest.mark.parametrize("family,taus", [
        (Family.GAUSSIAN, (-0.8, -0.2, 0.3, 0.9)),
        (Family.CLAYTON, (0.05, 0.3, 0.7)),
        (Family.GUMBEL, (0.05, 0.3, 0.7)),
        (Family.FRANK, (-0.7, -0.2, 0.2, 0.7, 0.85)),
        (Family.JOE, (0.05, 0.3, 0.7)),
    ])
    def test_round_trip(self, family, taus):
        for tau in taus:
            theta = tau_to_param(family, tau)
            assert abs(param_to_tau(family, theta) - tau) < 1e-8

    def test_incompatible_tau(self):
        with pytest.raises(ValueError):
            tau_to_param(Family.CLAYTON, -0.3)
        with pytest.raises(ValueError):
            tau_to_param(Family.GUMBEL, -0.1)


class TestFitPair:
    def test_independence_shortcut(self):
        gen = np.random.default_rng(5)
        u = np.clip(gen.uniform(size=2000), 1e-9, 1 - 1e-9)
        v = np.clip(gen.uniform(size=2000), 1e-9, 1 - 1e-9)
        assert fit_pair(u, v).family is Family.INDEPENDENCE

    def test_gaussian_parameter_recovery(self):
        s = sample_pair(PairCopula(Family.GAUSSIAN, 0, 0.9), 2000, 3)
        fit = fit_pair(s[:, 0], s[:, 1])
        assert abs(fit.theta - 0.9) < 0.03

    def test_clayton_recovery_single_seed(self):
        s = sample_pair(PairCopula(Family.CLAYTON, 0, 2.0), 2000, 100)
        fit = fit_pair(s[:, 0], s[:, 1])
        assert fit.family is Family.CLAYTON and fit.rotation == 0
        assert abs(fit.tau - 0.5) < 0.05

    def test_negative_dependence_gets_rotated_family(self):
        s = sample_pair(PairCopula(Family.CLAYTON, 90, 2.0), 2000, 8)
        fit = fit_pair(s[:, 0], s[:, 1])
        assert fit.tau < -0.3
        if fit.family in (Family.CLAYTON, Family.GUMBEL, Family.JOE):
            assert fit.rotation in (90, 270)

    def test_rank_invariance(self):
        from copaug.marginals import pseudo_observations
        gen = np.random.default_rng(2)
        z = sample_pair(PairCopula(Family.GUMBEL, 0, 2.0), 1500, 4)
        raw_u = np.exp(z[:, 0] * 3.0)      # strictly increasing transforms
        raw_v = np.arctan(z[:, 1]) * 5.0
        fit_a = fit_pair(pseudo_observations(z[:, 0]), pseudo_observations(z[:, 1]))
        fit_b = fit_pair(pseudo_observations(raw_u), pseudo_observations(raw_v))
        assert fit_a.family is fit_b.family and fit_a.rotation == fit_b.rotation
        assert fit_a.theta == fit_b.theta

    def test_degenerate_column_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_pair(np.full(100, 0.5), np.linspace(0.01, 0.99, 100))

    def test_restricted_catalogue_respected(self):
        s = sample_pair(PairCopula(Family.CLAYTON, 0, 2.0), 2000, 1)
        fit = fit_pair(s[:, 0], s[:, 1], catalogue=frozenset({Family.GAUSSIAN}))
        assert fit.family is Family.GAUSSIAN


# fit_pair(catalogue={family}) on 300 draws from each copula below:
# (family, rotation, theta, nu, seed, (rotation, theta.hex(), nu, loglik.hex())).
# Re-recorded when the fit became Kendall tau inversion: each theta is now
# tau_to_param of the sample's tau_b (moved by 0.42 at most) and each loglik
# is the likelihood there, below the old maximum by 3.4 at most; the
# Student-t fit's nu moved from 6 to 4, no rotation moved.
FIT_PINS = [
    (Family.GAUSSIAN, 0, 0.6, None, 100, (0, "0x1.30d217ef39744p-1", None, "0x1.1a5150756e6bep+6")),
    (Family.STUDENT_T, 0, 0.5, 4.0, 101, (0, "0x1.ce5c2c7ae303fp-2", 4.0, "0x1.4d3e214337eadp+5")),
    (Family.FRANK, 0, 5.0, None, 102, (0, "0x1.5a320985e6bd2p+2", None, "0x1.5fe9b854ab74ap+6")),
    (Family.FRANK, 0, -5.0, None, 103, (0, "-0x1.1f0a062fafd2bp+2", None, "0x1.070211a403b94p+6")),
    (Family.CLAYTON, 0, 2.0, None, 104, (0, "0x1.036cb752ca2bcp+1", None, "0x1.142e6e49ea08ap+7")),
    (Family.CLAYTON, 90, 2.0, None, 105, (90, "0x1.be65b75877aaap+0", None, "0x1.974a6b3d0106bp+6")),
    (Family.CLAYTON, 180, 2.0, None, 106, (180, "0x1.9b414c0054515p+0", None, "0x1.b863e88f72f93p+6")),
    (Family.CLAYTON, 270, 2.0, None, 107, (270, "0x1.37291fb7291fcp+1", None, "0x1.103fb5cd5d434p+7")),
    (Family.GUMBEL, 0, 1.8, None, 108, (0, "0x1.d8c425dd0bbe3p+0", None, "0x1.5b47de1c2dabdp+6")),
    (Family.GUMBEL, 90, 1.8, None, 109, (90, "0x1.e657f6fa5c79dp+0", None, "0x1.8112401c9126ap+6")),
    (Family.GUMBEL, 180, 1.8, None, 110, (180, "0x1.d0d79435e50d8p+0", None, "0x1.5968ae67ebc72p+6")),
    (Family.GUMBEL, 270, 1.8, None, 111, (270, "0x1.e3f731da72ba2p+0", None, "0x1.7fb5e7da7835ep+6")),
    (Family.JOE, 0, 2.0, None, 112, (0, "0x1.d7efc06a18c33p+0", None, "0x1.c99a7e1e1e57ap+5")),
    (Family.JOE, 90, 2.0, None, 113, (90, "0x1.0d9e76d368da3p+1", None, "0x1.3c8be781d30e3p+6")),
    (Family.JOE, 180, 2.0, None, 114, (180, "0x1.bb405e40d66d7p+0", None, "0x1.9155a1924e9dep+5")),
    (Family.JOE, 270, 2.0, None, 115, (270, "0x1.d7cc945e3dc93p+0", None, "0x1.bd0dfe11933b8p+5")),
]


@pytest.mark.parametrize("family,rotation,theta,nu,seed,expected", FIT_PINS,
                         ids=[f"{p[0].value}-r{p[1]}-{p[2]}" for p in FIT_PINS])
def test_fit_pair_matches_recorded_bits(family, rotation, theta, nu, seed, expected):
    uv = sample_pair(PairCopula(family, rotation, theta, nu), 300, seed)
    fit = fit_pair(uv[:, 0], uv[:, 1], frozenset({family}))
    assert fit.family is family
    assert (fit.rotation, fit.theta.hex(), fit.nu, fit.loglik.hex()) == expected


@pytest.mark.parametrize("family,rotation,theta,nu,seed", [p[:5] for p in FIT_PINS],
                         ids=[f"{p[0].value}-r{p[1]}-{p[2]}" for p in FIT_PINS])
def test_fit_pair_searches_take_at_most_20_evaluations(monkeypatch, family, rotation, theta, nu, seed):
    # There is no search left: each (rotation, nu) candidate evaluates its
    # theta -> log-density closure of _loglik once, at the inverted tau.
    counts = []
    real_loglik = bicop._loglik

    def counting_loglik(*args):
        logpdf, calls = real_loglik(*args), []
        counts.append(calls)
        return lambda t: calls.append(t) or logpdf(t)

    monkeypatch.setattr(bicop, "_loglik", counting_loglik)
    uv = sample_pair(PairCopula(family, rotation, theta, nu), 300, seed)
    fit_pair(uv[:, 0], uv[:, 1], frozenset({family}))
    assert counts and all(len(calls) == 1 for calls in counts)


class TestSamplePair:
    def test_independence_tau_near_zero(self):
        s = sample_pair(INDEPENDENCE, 2000, 12)
        assert abs(kendall_tau(s[:, 0], s[:, 1])) < 0.05

    def test_gaussian_tau(self):
        s = sample_pair(PairCopula(Family.GAUSSIAN, 0, np.sin(np.pi / 4)), 5000, 21)
        assert abs(kendall_tau(s[:, 0], s[:, 1]) - 0.5) < 0.04

    def test_deterministic(self):
        a = sample_pair(PairCopula(Family.FRANK, 0, 4.0), 500, 77)
        b = sample_pair(PairCopula(Family.FRANK, 0, 4.0), 500, 77)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("c", [c for c in CASES if c.family is not Family.INDEPENDENCE],
                             ids=case_id)
    def test_tau_matches_parameter(self, c):
        s = sample_pair(c, 4000, 5)
        assert abs(kendall_tau(s[:, 0], s[:, 1]) - c.tau) < 0.05


def test_independence_threshold_shrinks():
    assert tau_independence_threshold(10_000) < tau_independence_threshold(100) < 1.0
