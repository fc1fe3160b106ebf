import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stwm.analysis import (asymptotic_marginal_cov, estimate_holder, field_cov, field_gram,
                           separability_check)
from stwm.kernel import (
    ModeKernel,
    TimeGrid,
    _gauss_jacobi,
    _lagged_integral,
    _lagged_integrals,
    gram,
    mode_cov,
    mode_var,
    square_function_ratio_closed_form,
    stationary_variance,
    stationary_variances,
    temporal_matern_limit,
)
from stwm.quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate
from stwm.sampler import SeedSpec, sample_field, sample_modes
from stwm.specfun import gamma_fn
from stwm.spectral import SpectralModel, build_basis, mode_grams

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16, max_subdivisions=4000)


# frozen 40-digit mpmath references of q(s, t) at fractional orders
FRACTIONAL_REFERENCE_ROWS = [
    (0.75, 1.0, 1.0, 1.0, 2.0, 0.15459034667479487),
    (0.75, 2.0, 0.5, 0.5, 0.75, 0.10300634658911631),
    (1.3, 1.0, 1.0, 1.0, 2.0, 0.14586385423507745),
    (1.3, 4.0, 2.0, 2.0, 2.5, 0.017779522454326307),
    (2.5, 1.0, 1.0, 1.0, 3.0, 0.034318850242223947),
    (0.6, 1.0, 1.0, 2.0, 2.25, 0.47745252461239777),
    # tiny values, where a tolerance absolute in the integral's own units
    # used to stop the quadrature early
    (4.5, 400.0, 1.0, 0.046875, 0.0625, 2.1489525941323115e-23),
    (2.4, 34.0, 1.0, 0.015625, 0.03125, 2.1443511795850698e-08),
]

# frozen 40-digit mpmath values (g, mu, W, l, I) of the integer-order closed
# form I = int_0^W u^{g-1} (u+l)^{g-1} e^{-2 mu u} du
#        = sum_{k<g} C(g-1, k) l^{g-1-k} gamma(g+k, 2 mu W) / (2 mu)^{g+k},
# whose terms are all positive. The rows pin the rule's settings: a 6-node
# Jacobi panel misses the mu = 1e-2, W = l = 1e-3 rows (1e-11 at gamma 20,
# 1.8e-10 at 30), and one ladder panel per octave misses the gamma-30 rows
# at mu = 1e2 and 1e4 (1e-12).
INTEGER_ORDER_ORACLE_ROWS = [
    (20, 0.01, 0.001, 0.001, 1.7870707755881595e-113),
    (20, 100.0, 1.0, 0.01, 2.5513999339729598e-45),
    (20, 1.0, 1.0, 0.5, 9.807571499745253),
    (20, 10000.0, 3.0, 0.0001, 2.55139993397296e-123),
    (20, 0.01, 3.0, 1.0, 2.648132427391704e+19),
    (20, 10.0, 0.1, 0.1, 2.589893546877425e-36),
    (30, 0.01, 0.001, 0.001, 1.210893057293583e-170),
    (30, 100.0, 1.0, 0.01, 1.0987207631384525e-57),
    (30, 1.0, 1.0, 0.5, 366.2462866523492),
    (30, 10000.0, 3.0, 0.0001, 1.0987207631384526e-175),
    (30, 0.01, 3.0, 1.0, 1.083429267450468e+30),
    (30, 10.0, 0.1, 0.1, 1.7146459001529657e-53),
]


def rel(a, b):
    return abs(a - b) / abs(b)


def equal_time_quadrature(k, t):
    """q(t, t) = w / Gamma(g)^2 int_0^t u^{2g-2} e^{-2 mu u} du by adaptive
    quadrature through v = u^{2g-1}, seeded with a geometric ladder."""
    p = 2.0 * k.gamma - 1.0
    points = (t * 2.0 ** -np.arange(1.0, 40.0)) ** p
    integral = integrate(lambda v: np.exp(-2.0 * k.mu * v ** (1.0 / p)), 0.0, t ** p, TIGHT,
                         points=points) / p
    return k.weight / gamma_fn(k.gamma) ** 2 * integral


def ou_cov(mu, w, s, t):
    """Closed form of the gamma = 1 covariance."""
    return w * (math.exp(-mu * abs(t - s)) - math.exp(-mu * (s + t))) / (2.0 * mu)


class TestModeKernelType:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModeKernel(mu=0.0, weight=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            ModeKernel(mu=1.0, weight=-1.0, gamma=1.0)
        with pytest.raises(ValueError):
            ModeKernel(mu=1.0, weight=1.0, gamma=0.0)
        for bad in (math.inf, math.nan):
            for kw in ({"mu": bad}, {"weight": bad}, {"gamma": bad}):
                with pytest.raises(ValueError, match="finite"):
                    ModeKernel(**dict(dict(mu=1.0, weight=1.0, gamma=1.0), **kw))

    def test_frozen(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.0)
        with pytest.raises(AttributeError):
            k.mu = 2.0


class TestModeCov:
    def test_ou_frozen_examples(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.0)
        assert rel(mode_cov(k, 1.0, 1.0), 0.43233235838169365) < 1e-10
        # closed form (e^-1 - e^-3) / 2
        assert rel(mode_cov(k, 1.0, 2.0), 0.15904618640178920) < 1e-10

    def test_zero_initial_condition(self):
        k = ModeKernel(mu=3.0, weight=2.0, gamma=0.8)
        assert mode_cov(k, 0.0, 5.0) == 0.0
        assert mode_cov(k, 0.0, 0.0) == 0.0

    def test_symmetry_exact(self):
        k = ModeKernel(mu=0.7, weight=1.1, gamma=1.4)
        for s, t in [(0.3, 2.0), (1.0, 1.5), (4.0, 0.01)]:
            assert mode_cov(k, s, t) == mode_cov(k, t, s)

    def test_ou_oracle_random(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            mu = rng.uniform(0.1, 50.0)
            w = rng.uniform(0.1, 5.0)
            s, t = rng.uniform(0.0, 20.0, 2)
            k = ModeKernel(mu=mu, weight=w, gamma=1.0)
            got = mode_cov(k, s, t)
            want = ou_cov(mu, w, s, t)
            if abs(want) > 1e-300:
                assert rel(got, want) < 1e-10

    @pytest.mark.parametrize("g,mu,w,s,t,expected", FRACTIONAL_REFERENCE_ROWS)
    def test_fractional_reference_values(self, g, mu, w, s, t, expected):
        k = ModeKernel(mu=mu, weight=w, gamma=g)
        assert rel(mode_cov(k, s, t, TIGHT), expected) < 1e-11

    def test_variance_requires_half(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=0.4)
        with pytest.raises(ValueError):
            mode_cov(k, 1.0, 1.0)
        # lagged covariance is still defined below the variance threshold
        assert mode_cov(k, 1.0, 2.0, TIGHT) > 0.0

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(23)
        for g in (0.75, 1.0, 1.6):
            k = ModeKernel(mu=2.0, weight=1.0, gamma=g)
            for _ in range(1000):
                s, t = rng.uniform(0.01, 10.0, 2)
                q = mode_cov(k, s, t)
                assert q * q <= mode_var(k, s) * mode_var(k, t) * (1.0 + 1e-9)

    def test_nonconvergence_carries_estimate(self):
        from stwm.quadrature import QuadratureError
        cfg = QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300, max_subdivisions=16)
        k = ModeKernel(mu=1.0, weight=1.0, gamma=0.51)
        with pytest.raises(QuadratureError) as err:
            mode_cov(k, 3.0, 3.5, cfg)
        assert np.isfinite(err.value.estimate)
        assert err.value.error_bound > 0.0

    def test_deep_tail_underflows_to_zero(self):
        k = ModeKernel(mu=50.0, weight=1.0, gamma=1.0)
        assert mode_cov(k, 0.1, 20.0) == 0.0
        # but equal-time values at large times do not underflow
        assert rel(mode_cov(k, 20.0, 20.0), 1.0 / 100.0) < 1e-10

    def test_rejects_negative_times(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            mode_cov(k, -1.0, 1.0)


class TestFixedLaggedRule:
    """The fixed rule gram uses for lagged entries (kernel._lagged_integrals)."""

    @pytest.mark.parametrize("beta", [-0.4999, 0.0, 0.7, 19.0])
    def test_gauss_jacobi_exact_to_degree_39(self, beta):
        # int_0^1 u^beta u^k du = B(beta + k + 1, 1) and
        # int_0^1 u^beta (1 - u)^k du = B(beta + 1, k + 1), for k <= 2n - 1.
        # Golub-Welsch weights are accurate to rounding relative to the
        # largest weight, so the moment (1 - u)^39 at beta = 19, which rests
        # on weights near 1e-16, is the loosest (2e-13).
        u, w = _gauss_jacobi(20, beta)
        assert np.all((u > 0.0) & (u < 1.0)) and np.all(w > 0.0)
        for k in range(40):
            assert rel(w @ u ** k, 1.0 / (beta + k + 1.0)) < 1e-14, k
            beta_fn = math.exp(math.lgamma(beta + 1.0) + math.lgamma(k + 1.0)
                               - math.lgamma(beta + k + 2.0))
            assert rel(w @ (1.0 - u) ** k, beta_fn) < 1e-12, k

    @pytest.mark.parametrize("g,mu,width,lag,expected", INTEGER_ORDER_ORACLE_ROWS)
    def test_matches_integer_order_closed_form(self, g, mu, width, lag, expected):
        got = _lagged_integrals(float(g), mu, np.array([width]), np.array([lag]))[0]
        assert rel(got, expected) < 1e-13

    @pytest.mark.parametrize("g,mu,w,s,t,expected", FRACTIONAL_REFERENCE_ROWS)
    def test_gram_matches_frozen_references(self, g, mu, w, s, t, expected):
        G = gram(ModeKernel(mu=mu, weight=w, gamma=g), TimeGrid(np.array([s, t])))
        assert rel(G[0, 1], expected) < 1e-12 and G[1, 0] == G[0, 1]


class TestModeVar:
    # frozen 40-digit references; the last five sit at the domain edges
    # (gamma -> 1/2+, large mu, large gamma), where quadrature of q(t, t) failed
    @pytest.mark.parametrize("g,mu,w,t,expected", [
        (0.75, 1.0, 1.0, 1.0, 0.7966511001229187),
        (1.3, 2.0, 0.5, 0.7, 0.051271822157815837),
        (2.5, 1.0, 1.0, 4.0, 0.20321325170617429),
        (0.55, 20.0, 1.3, 3.0, 3.2743758100402144),
        (0.5001, 1.0, 1.0, 1.0, 1591.7544830957966),
        (3.0, 1e4, 1.0, 0.0625, 1.875e-21),
        (10.0, 1000.0, 1.0, 1.0, 9.273529052734375e-59),
        (20.0, 100.0, 1.0, 1.0, 6.4292660317732953e-80),
        (90.0, 1.0, 1.0, 2.0, 2.9424582041345533e-223),
    ])
    def test_reference_values(self, g, mu, w, t, expected):
        k = ModeKernel(mu=mu, weight=w, gamma=g)
        assert rel(mode_var(k, t), expected) < 1e-11
        assert mode_cov(k, t, t) == mode_var(k, t)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            g = rng.uniform(0.55, 3.0)
            mu = rng.uniform(0.2, 10.0)
            t = rng.uniform(0.05, 8.0)
            k = ModeKernel(mu=mu, weight=1.0, gamma=g)
            assert rel(mode_var(k, t), equal_time_quadrature(k, t)) < 1e-9

    def test_zero_time(self):
        assert mode_var(ModeKernel(mu=1.0, weight=1.0, gamma=1.0), 0.0) == 0.0

    def test_monotone_in_time(self):
        k = ModeKernel(mu=1.5, weight=1.0, gamma=0.8)
        ts = np.linspace(0.0, 6.0, 40)
        vs = [mode_var(k, t) for t in ts]
        assert np.all(np.diff(vs) >= 0.0)

    def test_array_times_match_scalar_calls(self):
        # one array call gives each scalar call's value bit for bit, across
        # the series, continued-fraction and saturated ranges of 2 mu t
        k = ModeKernel(mu=1.5, weight=0.7, gamma=1.3)
        ts = np.concatenate(([0.0], np.geomspace(1e-6, 200.0, 40))).reshape(-1, 1)
        got = mode_var(k, ts)
        assert got.shape == ts.shape and got[0, 0] == 0.0
        assert np.array_equal(got[:, 0], [mode_var(k, float(t)) for t in ts[:, 0]])
        with pytest.raises(ValueError):
            mode_var(k, np.array([1.0, -1e-3]))

    def test_long_time_limit_ou(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.0)
        assert rel(mode_var(k, 500.0), 0.5) < 1e-14


class TestStationaryVariance:
    def test_ou_values(self):
        assert rel(stationary_variance(ModeKernel(mu=1.0, weight=1.0, gamma=1.0)), 0.5) < 1e-13
        for kappa in (0.3, 2.0, 7.0):
            k = ModeKernel(mu=kappa, weight=1.0, gamma=1.0)
            assert rel(stationary_variance(k), 1.0 / (2.0 * kappa)) < 1e-13

    def test_three_halves(self):
        k = ModeKernel(mu=1.0, weight=1.0, gamma=1.5)
        assert rel(stationary_variance(k), 1.0 / math.pi) < 1e-13

    def test_limit_of_mode_var(self):
        for g in (0.75, 1.2, 2.0):
            k = ModeKernel(mu=1.0, weight=0.9, gamma=g)
            assert rel(mode_var(k, 60.0), stationary_variance(k)) < 1e-12

    def test_overflowing_power_tiny_weight(self):
        # mu^(1 - 2 gamma) = 1e320 overflows alone, w times it does not;
        # 30-digit mpmath reference
        k = ModeKernel(mu=1e-10, weight=1e-300, gamma=16.5)
        assert rel(stationary_variance(k), 7107673188860307747.087) < 1e-13

    @pytest.mark.parametrize("w,mu,gamma", [
        (1.0, 1e-10, 100.0),  # the power mu^(1 - 2 gamma) overflows alone
        (1e198, 1e-99, 1.5),  # w and the power are finite, their product is not
    ], ids=["power", "product"])
    def test_overflow_names_w_mu_gamma(self, w, mu, gamma):
        message = (f"stationary variance: w mu^(1 - 2 gamma) with w = {w}, mu = {mu}, "
                   f"gamma = {gamma} overflows")
        with pytest.raises(OverflowError, match=re.escape(message)):
            stationary_variance(ModeKernel(mu=mu, weight=w, gamma=gamma))

    def test_rows_are_one_mode_values(self):
        # tiny and huge weights, rates spread over many decades, and the
        # tiny-weight mode whose power overflows alone
        rng = np.random.default_rng(7)
        mu = np.concatenate(([1e-10], 10.0 ** rng.uniform(-3.0, 8.0, 300)))
        w = np.concatenate(([1e-300], 10.0 ** rng.uniform(-100.0, 100.0, 300)))
        for gamma in (0.51, 1.2, 16.5):
            rows = stationary_variances(gamma, mu, w)
            assert rows.shape == mu.shape
            want = [stationary_variance(ModeKernel(mu=m, weight=v, gamma=gamma))
                    for m, v in zip(mu.tolist(), w.tolist())]
            assert rows.tobytes() == np.array(want).tobytes()

    def test_first_overflow_named_without_warning(self):
        # modes 2 and 3 overflow; mode 2's values are named
        mu, w = [1.0, 1e-99, 1e-10], [1.0, 1e198, 1.0]
        message = ("stationary variance: w mu^(1 - 2 gamma) with w = 1e+198, mu = 1e-99, "
                   "gamma = 1.5 overflows")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape(message)):
                stationary_variances(1.5, mu, w)


class TestTemporalMaternLimit:
    def test_ou_collapse(self):
        assert rel(temporal_matern_limit(1.0, 1.0, 1.0), math.exp(-1.0) / 2.0) < 1e-12
        assert rel(temporal_matern_limit(1.0, 2.0, 0.5), math.exp(-1.0) / 4.0) < 1e-12

    def test_zero_lag_is_stationary_variance(self):
        for g, kappa in [(0.8, 1.0), (1.0, 1.0), (1.7, 3.0)]:
            k = ModeKernel(mu=kappa, weight=1.0, gamma=g)
            assert rel(temporal_matern_limit(g, kappa, 0.0), stationary_variance(k)) < 1e-13

    def test_small_lag_continuity(self):
        for g, kappa in [(0.8, 1.0), (1.3, 2.0)]:
            k = ModeKernel(mu=kappa, weight=1.0, gamma=g)
            assert rel(temporal_matern_limit(g, kappa, 1e-9), stationary_variance(k)) < 1e-4
        k = ModeKernel(mu=1.0, weight=1.0, gamma=2.5)
        assert rel(temporal_matern_limit(2.5, 1.0, 1e-200), stationary_variance(k)) < 1e-13

    @pytest.mark.parametrize("g,kappa,h,expected", [
        (1.3, 2.0, 0.6, 0.05361944475282539),
        (0.8, 1.0, 1.5, 0.097325315469213823),
    ])
    def test_reference_values(self, g, kappa, h, expected):
        assert rel(temporal_matern_limit(g, kappa, h), expected) < 1e-11

    def test_limit_of_lagged_covariance(self):
        # gap below 1e-12 by t = 40 (exponential tail), several orders
        for g in (0.75, 1.0, 1.5, 2.5):
            k = ModeKernel(mu=1.0, weight=1.0, gamma=g)
            t = 40.0
            for h in (0.25, 1.0):
                lim = temporal_matern_limit(g, 1.0, h)
                assert abs(mode_cov(k, t, t + h, TIGHT) - lim) < 1e-12

    def test_symmetric_in_lag(self):
        assert temporal_matern_limit(1.2, 1.0, 0.7) == temporal_matern_limit(1.2, 1.0, -0.7)

    def test_domain(self):
        with pytest.raises(ValueError):
            temporal_matern_limit(1.0, 0.0, 1.0)


def quadrature_ratio(gamma, delta, mu, cfg=DEFAULT_CONFIG):
    """The square-function ratio int_0^inf t^{2(gamma-1-delta)} e^{-2 mu t} dt
    * mu^{2 (gamma - delta) - 1} by the adaptive reference: the lag-0 lagged
    integral of order gamma - delta at infinite width."""
    p = 2.0 * (gamma - delta) - 1.0
    return _lagged_integral(gamma - delta, mu, math.inf, 0.0, cfg) * mu ** p


class TestSquareFunctionRatio:
    def test_trivial_values(self):
        assert rel(quadrature_ratio(1.0, 0.0, 1.0), 0.5) < 1e-10
        assert rel(quadrature_ratio(1.5, 0.0, 1.0), 0.25) < 1e-10
        assert square_function_ratio_closed_form(1.0, 0.0) == 0.5
        assert square_function_ratio_closed_form(1.5, 0.0) == 0.25

    def test_mu_invariance(self):
        vals = [quadrature_ratio(1.25, 0.25, mu, TIGHT) for mu in (0.1, 1.0, 10.0)]
        assert rel(max(vals), min(vals)) < 1e-9
        assert rel(vals[0], 0.5) < 1e-8

    def test_matches_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            delta = rng.uniform(0.0, 1.0)
            g = delta + rng.uniform(0.55, 2.5)
            mu = 10.0 ** rng.uniform(-1.5, 1.5)
            got = quadrature_ratio(g, delta, mu, TIGHT)
            assert rel(got, square_function_ratio_closed_form(g, delta)) < 1e-8
        # large exponent 2(gamma - delta) - 1 = 7.2, default tolerance, mu over six decades
        for mu in (1.0, 100.0, 1e4, 1e6):
            got = quadrature_ratio(4.3, 0.2, mu)
            assert rel(got, square_function_ratio_closed_form(4.3, 0.2)) < 1e-10

    def test_divergent_signalled(self):
        with pytest.raises(ValueError, match="gamma > 1/2 \\+ delta"):
            square_function_ratio_closed_form(0.7, 0.2)
        with pytest.raises(ValueError, match="delta >= 0"):
            square_function_ratio_closed_form(1.2, -0.1)


def gate_model(gamma):
    # alpha = 0: the variance series diverges for gamma <= 1/2, so field_gram
    # has a warning to give, and it must not come before the gate's error
    b = build_basis(1, math.pi, 0.0, 3)
    return SpectralModel(basis=b, basis_tilde=b, alpha=0.0, beta=1.0, gamma=gamma, T=2.0)


GATE_GRID = TimeGrid(np.array([0.0, 0.5, 1.0]))

# every public entry point that forms a variance, a Gram or a stationary value
GATE_ENTRIES = {
    "mode_var": lambda g: mode_var(ModeKernel(1.0, 1.0, g), 1.0),
    "gram": lambda g: gram(ModeKernel(1.0, 1.0, g), GATE_GRID),
    "mode_grams": lambda g: list(mode_grams(gate_model(g), GATE_GRID)),
    "sample_modes": lambda g: sample_modes(gate_model(g), GATE_GRID, 2, SeedSpec(0)),
    "sample_field": lambda g: sample_field(gate_model(g), GATE_GRID, [1.0], 2, SeedSpec(0)),
    "field_gram": lambda g: field_gram(gate_model(g), GATE_GRID, 1.0, 2.0),
    "field_cov": lambda g: field_cov(gate_model(g), 0.5, 1.0, 1.0, 2.0),
    "field_cov_s0": lambda g: field_cov(gate_model(g), 0.0, 1.0, 1.0, 2.0),
    "estimate_holder": lambda g: estimate_holder(ModeKernel(1.0, 1.0, g), 5.0, [2e-3, 1e-2]),
    "separability_check": lambda g: separability_check(gate_model(g)),
    "stationary_variance": lambda g: stationary_variance(ModeKernel(1.0, 1.0, g)),
    "stationary_variances": lambda g: stationary_variances(g, [1.0, 4.0], [1.0, 0.5]),
    "temporal_matern_limit": lambda g: temporal_matern_limit(g, 1.0, 0.5),
    "asymptotic_marginal_cov": lambda g: asymptotic_marginal_cov(gate_model(g)),
}


class TestFiniteVarianceGate:
    """gamma <= 1/2 raises at every entry point, from kernel._variance_rows or
    kernel.stationary_constant (both messages read "variances require gamma >
    1/2"), before any warning."""

    @pytest.mark.parametrize("gamma", [0.4, 0.5])
    @pytest.mark.parametrize("entry", list(GATE_ENTRIES))
    def test_raises(self, entry, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"variances require gamma > 1/2"):
                GATE_ENTRIES[entry](gamma)

    @pytest.mark.parametrize("entry", list(GATE_ENTRIES))
    def test_runs_above_gate(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GATE_ENTRIES[entry](1.0)


@given(st.floats(min_value=0.55, max_value=2.5),
       st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.01, max_value=6.0),
       st.floats(min_value=0.01, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_cov_bounded_by_stationary(g, mu, s, t):
    k = ModeKernel(mu=mu, weight=1.0, gamma=g)
    assert mode_cov(k, s, t) <= stationary_variance(k) * (1.0 + 1e-9)
