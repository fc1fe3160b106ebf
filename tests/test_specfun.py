import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stwm.kernel import ModeKernel, mode_var
from stwm.specfun import (
    GAMMA_OVERFLOW_X,
    bessel_k,
    gamma_fn,
    log_gamma,
    log_lower_incomplete_gamma,
    lower_incomplete_gamma,
    matern_cov,
)

SQRT_PI = math.sqrt(math.pi)

# (a, x, gamma(a, x)), frozen 40-digit references
INCOMPLETE_GAMMA_REFERENCE_ROWS = [
    (0.5, 2.0, 1.6918067329451983),
    (3.7, 0.9, 0.091249917749143025),
    (12.0, 30.0, 39914250.233552542),
    (0.05, 0.2, 18.28648108208038),
    (20.0, 3.0, 10114088.922271405),
]

# Bit pins of the series branch (x < a + 1) of the lower incomplete gamma,
# frozen from its earlier 32-term-block form: (a, x, log gamma(a, x),
# gamma(a, x) or None where it overflows), all as float.hex. x runs over 0,
# 1e-8, 0.37 a, a and the largest double below a + 1.
SERIES_BIT_PINS = [
    (0.01, '0x0.0p+0', '-inf', '0x0.0p+0'),
    (0.01, '0x1.5798ee2308c3ap-27', '0x1.1af11061d04a1p+2', '0x1.4cb49c32f3f58p+6'),
    (0.01, '0x1.e4f765fd8adacp-9', '0x1.2325196b3485fp+2', '0x1.7a3439163bd03p+6'),
    (0.01, '0x1.47ae147ae147bp-7', '0x1.23c6faa32d88fp+2', '0x1.7df595310c32dp+6'),
    (0.01, '0x1.028f5c28f5c28p+0', '0x1.263a20f5d4993p+2', '0x1.8cdd0ad7a5602p+6'),
    (0.5, '0x0.0p+0', '-inf', '0x0.0p+0'),
    (0.5, '0x1.5798ee2308c3ap-27', '-0x1.108cd8be2538bp+3', '0x1.a36e2e9a4f65ap-13'),
    (0.5, '0x1.7ae147ae147aep-3', '-0x1.af8c04fb6d3c8p-3', '0x1.9eb8d2edf969bp-1'),
    (0.5, '0x1.0000000000000p-1', '0x1.8673668bdd328p-3', '0x1.35c4e4f3efb29p+0'),
    (0.5, '0x1.7ffffffffffffp+0', '0x1.f114344e08f28p-2', '0x1.9ff79167a2a7bp+0'),
    (2.5, '0x0.0p+0', '-inf', '0x0.0p+0'),
    (2.5, '0x1.5798ee2308c3ap-27', '-0x1.77be72e7584b2p+5', '0x1.2e3b407cb1bc1p-68'),
    (2.5, '0x1.d99999999999ap-1', '-0x1.c068a2d40c656p+0', '0x1.63523ec3f84b5p-3'),
    (2.5, '0x1.4000000000000p+1', '-0x1.0309982eadfd6p-2', '0x1.8d90a119908a4p-1'),
    (2.5, '0x1.bffffffffffffp+1', '0x1.21ffbd5354a48p-5', '0x1.09398b7ef19aep+0'),
    (17.3, '0x0.0p+0', '-inf', '0x0.0p+0'),
    (17.3, '0x1.5798ee2308c3ap-27', '-0x1.41874aafd74e5p+8', '0x1.189d9976bc9eep-464'),
    (17.3, '0x1.99a9fbe76c8b4p+2', '0x1.7483a52b1bccbp+4', '0x1.81156614eb278p+33'),
    (17.3, '0x1.14ccccccccccdp+4', '0x1.ee26d04a4628bp+4', '0x1.78990243ec28fp+44'),
    (17.3, '0x1.24cccccccccccp+4', '0x1.f0b3d4d2ef80bp+4', '0x1.b9b0575c67e51p+44'),
    (60.0, '0x0.0p+0', '-inf', '0x0.0p+0'),
    (60.0, '0x1.5798ee2308c3ap-27', '-0x1.155573bd70df3p+10', '0x0.0p+0'),
    (60.0, '0x1.6333333333333p+4', '0x1.405134e15a71ep+7', '0x1.0ae056102abaap+231'),
    (60.0, '0x1.e000000000000p+5', '0x1.6fbfb71994f36p+7', '0x1.35b455f6c194bp+265'),
    (60.0, '0x1.e7fffffffffffp+5', '0x1.6fefbfea36e47p+7', '0x1.542aaa0ae0b35p+265'),
    (120.0, '0x0.0p+0', '-inf', '0x0.0p+0'),
    (120.0, '0x1.5798ee2308c3ap-27', '-0x1.14e89d2187732p+11', '0x0.0p+0'),
    (120.0, '0x1.6333333333333p+5', '0x1.9674ac279f6cep+8', '0x1.4fdb0d17faa78p+586'),
    (120.0, '0x1.e000000000000p+6', '0x1.c45b11b51534bp+8', '0x1.8718bcabe971dp+652'),
    (120.0, '0x1.e3fffffffffffp+6', '0x1.c46c8cb9a6e17p+8', '0x1.a2bc223563fd9p+652'),
    (180.0, '0x0.0p+0', '-inf', None),
    (180.0, '0x1.5798ee2308c3ap-27', '-0x1.9f1d4bb34dd4dp+11', None),
    (180.0, '0x1.0a66666666666p+6', '0x1.56372582c0992p+9', None),
    (180.0, '0x1.6800000000000p+7', '0x1.7830d98e9c14ep+9', None),
    (180.0, '0x1.69fffffffffffp+7', '0x1.7838134921669p+9', None),
]

# (a, x, log gamma(a, x)) at large orders, where the series (x < a + 1)
# and the continued fraction (x >= a + 1) need O(sqrt(a)) terms near x = a;
# frozen 40-digit references
LARGE_ORDER_LOG_ROWS = [
    (1e4, 9999.0, 82099.01901563487),
    (1e4, 1e4, 82099.02700534798),
    (1e5, 99999.0, 1051287.0141429654),
    (1e5, 1e5, 1051287.0166671672),
    (1e6, 1000001.0, 12815503.87706371),
]

# (nu, x, K_nu(x)) at the corners of bessel_k's trapezoid rule: tiny x
# (the node range reaches asinh(nu/x)), x near the step cap's switch
# (h = 0.2 against 0.35/sqrt(max(x, nu))), and x next to the underflow
# cut; frozen 40-digit references
BESSEL_K_CORNER_ROWS = [
    (0.0, 1e-08, 18.536612259610777),
    (0.5, 1e-08, 12533.141247823589),
    (19.5, 1e-08, 1.0278171724974726e+178),
    (0.0, 0.001, 7.023688800562382),
    (0.5, 0.001, 39.59365951311664),
    (19.5, 0.001, 3.250243239403981e+80),
    (1.0, 0.74, 0.9686077241201793),
    (9.07, 0.74, 189995714.8307837),
    (1.0, 2.0, 0.13986588181652243),
    (9.07, 2.0, 20717.40864262338),
    (1.0, 9.0, 5.363701637945195e-05),
    (9.07, 9.0, 0.0030777357834726226),
    (0.0, 640.0, 5.577207162814119e-280),
    (5.6, 640.0, 5.715426249195549e-280),
    (0.0, 700.0, 4.669776431685377e-306),
    (5.6, 700.0, 4.775482915640428e-306),
]

# (nu, x, K_nu(x)) past x = 705, where e^{-x} is subnormal or 0 but K_nu(x)
# is not, and at x = 700 with e^{peak} past the double range; 30-digit
# mpmath, Gauss-Legendre on DLMF 10.32.9 about t = asinh(nu/x)
# (mp.besselk does not converge at (1e3, 706))
BESSEL_K_LARGE_ORDER_ROWS = [
    (1e3, 706.0, 1.9160465242227595e-35),
    (800.0, 710.0, 2.8045139788039017e-130),
    (1500.0, 700.0, 3.2820832162332925e+260),
]

# (nu, z, unit Matern covariance, tolerance) past z = 705 at large nu; the
# value is formed in log space from terms of size nu log nu, whose rounding
# sets the tolerance; 30-digit mpmath, as BESSEL_K_LARGE_ORDER_ROWS
MATERN_PAST_705_ROWS = [
    (1e4, 704.9, 4.0546879492251597e-06, 1e-10),
    (1e4, 705.1, 4.0262352847073378e-06, 1e-10),
    (1e3, 705.1, 7.5439244395947564e-52, 1e-11),
    (0.5, 706.0, 2.4439694694070770e-307, 1e-13),  # e^{-706}
]

# (nu, x, K_nu(x)) at subnormal and near-subnormal x, where nu / x
# overflows or the rule's sinh(t/2)^2 does at its far nodes; 30-digit
# mpmath at the double x (5e-324 is 4.9406564584124654e-324)
BESSEL_K_SUBNORMAL_ROWS = [
    (0.0, 5e-324, 744.55600343703967),
    (0.01, 5e-324, 85619.175287509852),
    (0.5, 5e-324, 5.6385522612647099e+161),
    (0.0, 1e-310, 713.91731034381258),
    (0.01, 1e-310, 63024.406056226731),
    (1.0, 1e-305, 1.0e+305),
]

# (nu, z, unit Matern covariance) at subnormal z, as BESSEL_K_SUBNORMAL_ROWS
MATERN_SUBNORMAL_ROWS = [
    (0.01, 5e-324, 0.99999965890993262),
    (0.01, 1e-320, 0.99999960281459363),
    (0.01, 1e-310, 0.99999937050341314),
]

# (nu, z, unit Matern covariance at kappa * dist = z) at large nu, where
# K_nu(z) overflows for small z although the covariance is close to 1;
# frozen 40-digit references
MATERN_LARGE_ORDER_ROWS = [
    (60.0, 1e-3, 0.99999999576271187),
    (60.0, 0.1, 0.99995762803183937),
    (60.0, 10.0, 0.65560544249741381),
    (120.0, 1e-3, 0.99999999789915967),
    (120.0, 0.1, 0.99997899181918372),
    (120.0, 10.0, 0.81066736279982185),
]

# (x, log Gamma(x)), frozen 40-digit references
LOG_GAMMA_REFERENCE_ROWS = [
    (1e-06, 13.815509980749432),
    (0.49, 0.592249629335267),
    (0.5, 0.5723649429247001),
    (0.51, 0.5529738179298007),
    (170.0, 701.437263808737),
]


def rel(a, b):
    return abs(a - b) / abs(b)


class TestGamma:
    def test_integers(self):
        assert rel(gamma_fn(1.0), 1.0) < 1e-13
        assert rel(gamma_fn(5.0), 24.0) < 1e-13

    def test_half(self):
        assert rel(gamma_fn(0.5), SQRT_PI) < 1e-13

    # frozen 40-digit reference values
    @pytest.mark.parametrize("x,expected", [
        (0.001, 999.42377248459547),
        (0.1, 9.5135076986687318),
        (0.7, 1.2980553326475578),
        (2.5, 1.329340388179137),
        (10.0, 362880.0),
        (33.3, 7.4875775965227066e+35),
        (99.9, 5.8917321516443617e+155),
        (170.0, 4.2690680090047053e+304),
    ])
    def test_reference_values(self, x, expected):
        assert rel(gamma_fn(x), expected) < 1e-12

    def test_domain_and_overflow(self):
        with pytest.raises(ValueError):
            gamma_fn(0.0)
        with pytest.raises(ValueError):
            gamma_fn(-1.3)
        # math.lgamma itself accepts negative non-integers
        for bad in (0.0, -1.3, math.nan):
            with pytest.raises(ValueError):
                log_gamma(bad)
        with pytest.raises(OverflowError):
            gamma_fn(GAMMA_OVERFLOW_X + 0.5)

    @pytest.mark.parametrize("x,expected", LOG_GAMMA_REFERENCE_ROWS)
    def test_log_gamma_reference_values(self, x, expected):
        assert abs(log_gamma(x) - expected) <= 1e-14 * max(1.0, abs(expected))

    def test_recurrence_bulk(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(1e-6, 80.0, 1000):
            assert rel(gamma_fn(x + 1.0), x * gamma_fn(x)) < 1e-11

    @given(st.floats(min_value=1e-3, max_value=80.0))
    @settings(max_examples=200)
    def test_recurrence_property(self, x):
        assert rel(gamma_fn(x + 1.0), x * gamma_fn(x)) < 1e-11

    def test_legendre_duplication(self):
        # 2^{1-2g} Gamma(2g-1) / Gamma(g)^2 == Gamma(g-1/2) / (2 sqrt(pi) Gamma(g))
        rng = np.random.default_rng(3)
        for g in rng.uniform(0.6, 10.0, 100):
            lhs = 2.0 ** (1.0 - 2.0 * g) * gamma_fn(2.0 * g - 1.0) / gamma_fn(g) ** 2
            rhs = gamma_fn(g - 0.5) / (2.0 * SQRT_PI * gamma_fn(g))
            assert rel(lhs, rhs) < 1e-10

    def test_log_gamma_large(self):
        # Stirling cross-check keeps the log-space path honest far above the
        # overflow point of gamma_fn itself
        x = 500.0
        stirling = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2 * math.pi) + 1.0 / (12 * x)
        assert abs(log_gamma(x) - stirling) < 1e-6


class TestLowerIncompleteGamma:
    def test_exponential_case(self):
        assert rel(lower_incomplete_gamma(1.0, 1.0), 1.0 - math.exp(-1.0)) < 1e-13

    def test_zero(self):
        assert lower_incomplete_gamma(3.3, 0.0) == 0.0

    @pytest.mark.parametrize("a,x,expected", INCOMPLETE_GAMMA_REFERENCE_ROWS)
    def test_reference_values(self, a, x, expected):
        assert rel(lower_incomplete_gamma(a, x), expected) < 1e-10
        assert rel(math.exp(log_lower_incomplete_gamma(a, x)), expected) < 1e-10

    @pytest.mark.parametrize("a,x,expected", LARGE_ORDER_LOG_ROWS)
    def test_large_order_log_reference(self, a, x, expected):
        assert abs(log_lower_incomplete_gamma(a, x) - expected) <= 1e-15 * max(1.0, abs(expected))

    @pytest.mark.parametrize("a", sorted({row[0] for row in SERIES_BIT_PINS}))
    def test_series_bit_pins(self, a):
        rows = [row for row in SERIES_BIT_PINS if row[0] == a]
        x = np.array([float.fromhex(row[1]) for row in rows])
        assert (x < a + 1.0).all()
        logs = log_lower_incomplete_gamma(a, x)
        for v, got, (_, _, log_hex, lower_hex) in zip(x, logs, rows):
            assert float(got).hex() == log_lower_incomplete_gamma(a, float(v)).hex() == log_hex
            if lower_hex is not None:
                assert lower_incomplete_gamma(a, float(v)).hex() == lower_hex

    def test_reference_values_as_arrays(self):
        for a, x, expected in INCOMPLETE_GAMMA_REFERENCE_ROWS:
            got = lower_incomplete_gamma(a, np.array([x]))
            assert got.shape == (1,) and abs(got[0] - expected) < 1e-10 * expected
            assert got[0] == lower_incomplete_gamma(a, x)
            assert (np.exp(log_lower_incomplete_gamma(a, np.array([x])))[0]
                    == math.exp(log_lower_incomplete_gamma(a, x)))

    @pytest.mark.parametrize("a", [0.3, 1.6, 39.0])
    def test_array_matches_scalar_calls(self, a):
        # x crosses the series / continued-fraction switch at a + 1 and
        # reaches the range where gamma(a, x) equals Gamma(a) to 1e-18
        x = np.geomspace(1e-8, 1e3, 200)
        logs = log_lower_incomplete_gamma(a, x)
        assert np.array_equal(logs, [log_lower_incomplete_gamma(a, float(v)) for v in x])
        values = lower_incomplete_gamma(a, np.concatenate(([0.0], x)))
        assert values[0] == 0.0
        assert np.array_equal(values[1:], [lower_incomplete_gamma(a, float(v)) for v in x])
        assert np.array_equal(values[1:], np.exp(logs))
        # the shape of x is kept
        grid = lower_incomplete_gamma(a, x[:6].reshape(2, 3))
        assert grid.shape == (2, 3) and np.array_equal(grid.ravel(), values[1:7])

    def test_array_domain(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, np.array([1.0, -0.1]))
        with pytest.raises(ValueError):
            log_lower_incomplete_gamma(1.0, np.array([1.0, np.nan]))
        # log gamma(a, 0) = -inf, so gamma(a, 0) = 0 is exact in both forms
        assert log_lower_incomplete_gamma(2.0, 0.0) == -math.inf
        assert np.array_equal(lower_incomplete_gamma(0.3, np.zeros(2)), [0.0, 0.0])

    def test_saturation(self):
        # far in the tail the lower function equals the complete one
        assert rel(lower_incomplete_gamma(4.0, 80.0), gamma_fn(4.0)) < 1e-13
        assert rel(lower_incomplete_gamma(0.1, 2000.0), gamma_fn(0.1)) < 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, -0.1)

    @pytest.mark.parametrize("a,x", [(2e100, 1e100), (2.0 ** 53, 1.0)])
    def test_order_past_range_is_typed(self, a, x):
        # a + 1 == a: the series' and continued fraction's steps in a vanish
        with pytest.raises(OverflowError, match=re.escape(f"order a = {a} is past the supported")):
            log_lower_incomplete_gamma(a, x)

    def test_huge_order_variance_fails_fast(self):
        # gamma 1e100: order 2 gamma - 1 = 2e100, where the series and the
        # continued fraction used to run about 1e51 steps
        with pytest.raises(OverflowError, match="a \\+ 1 == a"):
            mode_var(ModeKernel(mu=1.0, weight=1.0, gamma=1e100), 1e100)

    @pytest.mark.parametrize("x", [1e15, 1e15 + 2.0], ids=["series", "continued-fraction"])
    def test_unconverged_entry_raises(self, x):
        # near x = a both need about 8.5 sqrt(a) terms, 2.7e8 here, past the
        # cap of 10^5 terms
        with pytest.raises(ArithmeticError, match=re.escape(f"at a = {1e15}, x = {x} ")) as got:
            log_lower_incomplete_gamma(1e15, np.array([1.0, x]))
        assert type(got.value) is ArithmeticError and "does not converge" in str(got.value)

    @given(st.floats(min_value=0.05, max_value=30.0), st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200)
    def test_monotone_in_x(self, a, x):
        assert lower_incomplete_gamma(a, x + 0.5) >= lower_incomplete_gamma(a, x)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        for x in (0.3, 1.0, 2.0, 10.0):
            assert rel(bessel_k(0.5, x), math.sqrt(math.pi / (2 * x)) * math.exp(-x)) < 1e-12
        assert rel(bessel_k(0.5, 1.0), 0.4610685044478946) < 1e-12
        assert rel(bessel_k(0.5, 2.0), 0.1199377719680612) < 1e-12

    def test_three_halves_recurrence(self):
        # K_{3/2}(x) = K_{1/2}(x) (1 + 1/x)
        assert rel(bessel_k(1.5, 1.0), 0.9221370088957891) < 1e-12

    @pytest.mark.parametrize("nu,x,expected", [
        (0.0, 0.5, 0.92441907122766586),
        (0.0, 3.0, 0.034739504386279248),
        (1.0, 1.0, 0.60190723019723457),
        (2.3, 0.01, 114365.29966112111),
        (7.5, 12.0, 1.9821049684594502e-5),
        (19.7, 2.5, 283607036606884.14),
        (0.5, 650.0, 2.5129857336073248e-284),
        (3.0, 2.0, 0.64738539094863415),
    ])
    def test_reference_values(self, nu, x, expected):
        assert rel(bessel_k(nu, x), expected) < 1e-10

    @pytest.mark.parametrize("nu,x,expected", BESSEL_K_CORNER_ROWS)
    def test_trapezoid_corners(self, nu, x, expected):
        assert rel(bessel_k(nu, x), expected) < 1e-12

    def test_overflow_is_typed(self):
        # K_120(1e-3) ~ 3.7e592 is past the double-precision range, and so is
        # a typed error rather than inf
        with pytest.raises(OverflowError):
            bessel_k(120.0, 1e-3)

    @pytest.mark.parametrize("nu,x", [(1e8, 1.0), (1e100, 0.01)])
    def test_rule_size_capped(self, nu, x):
        # the rule's node count grows like sqrt(nu) log(nu / x): past 2^18
        # steps it is a typed error, not an allocation
        with pytest.raises(OverflowError, match="trapezoid rule needs"):
            bessel_k(nu, x)

    @pytest.mark.parametrize("nu,x,expected", BESSEL_K_SUBNORMAL_ROWS)
    def test_subnormal_argument(self, nu, x, expected):
        # asinh(nu / x) is formed without the overflowing quotient
        assert rel(bessel_k(nu, x), expected) < 1e-13

    @pytest.mark.parametrize("x", [1e-310, 5e-324])
    def test_subnormal_overflow_is_typed(self, x):
        # K_1(x) ~ 1/x is past the double range
        with pytest.raises(OverflowError):
            bessel_k(1.0, x)

    def test_underflow_documented(self):
        # values below half the smallest subnormal (K_1(800) = 1.6e-349,
        # K_1e4(1e4) = 8.5e-2317) round to 0
        for nu, x in [(1.0, 800.0), (1e4, 1e4), (1.0, 1e300), (1.0, math.inf)]:
            assert bessel_k(nu, x) == 0.0

    @pytest.mark.parametrize("nu,x,expected", BESSEL_K_LARGE_ORDER_ROWS)
    def test_large_order_past_705(self, nu, x, expected):
        assert rel(bessel_k(nu, x), expected) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(-0.5, 1.0)
        # an infinite or nan order would pass the rule's log bound as 0.0
        for nu in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite nu"):
                bessel_k(nu, 1.0)

    @given(st.floats(min_value=0.0, max_value=15.0),
           st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=200)
    def test_strictly_decreasing_in_x(self, nu, x):
        assert bessel_k(nu, x * 1.05) < bessel_k(nu, x)

    @given(st.floats(min_value=0.0, max_value=18.0),
           st.floats(min_value=0.2, max_value=30.0))
    @settings(max_examples=200)
    def test_order_recurrence(self, nu, x):
        # K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu, exercised through nu+1
        lhs = bessel_k(nu + 2.0, x)
        rhs = bessel_k(nu, x) + (2.0 * (nu + 1.0) / x) * bessel_k(nu + 1.0, x)
        assert rel(lhs, rhs) < 1e-10


class TestMaternCov:
    def test_exponential_kernel(self):
        # nu = 1/2 collapses to e^{-kappa r}
        rng = np.random.default_rng(5)
        for r in rng.uniform(0.0, 12.0, 50):
            assert abs(matern_cov(0.5, 1.0, 1.0, r) - math.exp(-r)) < 1e-12

    def test_three_halves_closed_form(self):
        # nu = 3/2: (1 + kappa r) e^{-kappa r}
        assert rel(matern_cov(1.5, 2.0, 1.0, 1.0), 3.0 * math.exp(-2.0)) < 1e-12
        assert rel(matern_cov(1.5, 2.0, 1.0, 1.0), 0.40600584970983794) < 1e-12

    def test_zero_distance(self):
        for nu, kappa, s2 in [(0.5, 1.0, 1.0), (3.7, 0.2, 4.5), (20.0, 9.0, 0.1)]:
            assert matern_cov(nu, kappa, s2, 0.0) == s2

    @pytest.mark.parametrize("nu,kappa,r,expected", [
        (0.75, 1.5, 0.8, 0.4226532247885979),
        (2.5, 3.0, 0.4, 0.80720048792470162),
        (5.0, 1.0, 2.0, 0.78592075838303895),
    ])
    def test_reference_values(self, nu, kappa, r, expected):
        assert rel(matern_cov(nu, kappa, 1.0, r), expected) < 1e-10

    @pytest.mark.parametrize("nu,z,expected", MATERN_LARGE_ORDER_ROWS)
    def test_large_order(self, nu, z, expected):
        assert rel(matern_cov(nu, 1.0, 1.0, z), expected) < 1e-12

    @pytest.mark.parametrize("nu,z,expected", MATERN_SUBNORMAL_ROWS)
    def test_subnormal_distance(self, nu, z, expected):
        assert rel(matern_cov(nu, 1.0, 1.0, z), expected) < 1e-14

    @given(st.floats(min_value=0.1, max_value=8.0),
           st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=200)
    def test_nonincreasing_in_distance(self, nu, kappa, r):
        assert matern_cov(nu, kappa, 1.0, r + 0.3) <= matern_cov(nu, kappa, 1.0, r) + 1e-15

    @pytest.mark.parametrize("nu,kappa,dist", [(0.5, 1.0, 746.0), (1.5, 2.0, 400.0),
                                               (0.5, 1e6, 1.0), (1e3, 1.0, 2000.0),
                                               (0.5, 1e300, 1e300)])
    def test_far_tail_is_zero(self, nu, kappa, dist):
        # the exact values are below 2^-1075, half the smallest subnormal
        # (e^{-746} = 1.0e-324, and 9.9e-329 at nu = 1e3), so they round to
        # 0.0, which the log bound returns without running the rule
        assert matern_cov(nu, kappa, 1.0, dist) == 0.0

    @pytest.mark.parametrize("nu,z,expected,tol", MATERN_PAST_705_ROWS)
    def test_past_705(self, nu, z, expected, tol):
        assert rel(matern_cov(nu, 1.0, 1.0, z), expected) < tol

    @pytest.mark.parametrize("nu,z", [(1e20, 100.0), (1e20, 1e6), (1e100, 0.01), (1e100, 1.0)])
    def test_order_past_range_is_typed(self, nu, z):
        # past order 1e14 the log-space underflow test rounds by more than 1,
        # and at these arguments it returned 0.0 (the value at (1e20, 100) is
        # about 1); K_nu's rule refuses the order, naming it
        with pytest.raises(OverflowError, match=re.escape(f"nu={nu}, x={z}")):
            matern_cov(nu, 1.0, 1.0, z)

    def test_domain(self):
        for bad in [(-1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0),
                    (1.0, 1.0, -2.0, 1.0), (1.0, 1.0, 1.0, -0.5), (math.inf, 1.0, 1.0, 1.0),
                    (math.nan, 1.0, 1.0, 1.0)]:
            with pytest.raises(ValueError):
                matern_cov(*bad)
