"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. Every expected value is an analytic oracle or an independently
computed (and frozen) reference; nothing is calibrated against the code
under test.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stwm.analysis import (
    RegularityQuery,
    check_exponents,
    estimate_holder,
    holder_theory_slope,
    hs_sum,
    separability_check,
)
from stwm.kernel import (
    ModeKernel,
    TimeGrid,
    _lagged_integral,
    gram,
    mode_cov,
    mode_var,
    square_function_ratio_closed_form,
    stationary_variance,
    temporal_matern_limit,
)
from stwm.quadrature import QuadratureConfig, integrate
from stwm.sampler import SeedSpec, factorized_covariance, sample_field, sample_modes
from stwm.specfun import gamma_fn
from stwm.spectral import SpectralModel, build_basis, evaluate_basis, mode_params

PI = math.pi
TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16, max_subdivisions=4000)

# below ~1e-300 double precision cannot express 1e-10 relative agreement;
# the floor only affects comparisons deep in the documented underflow range
REL_FLOOR = 1e-300


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def rel_err(got, want):
    return abs(got - want) / max(abs(want), REL_FLOOR)


def one_mode_model(mu, gamma, w_alpha=(1.0, 0.0), T=10.0):
    lam_tilde, alpha = w_alpha
    b = build_basis(1, PI, mu - 1.0, 1)
    bt = build_basis(1, PI, lam_tilde - 1.0, 1)
    return SpectralModel(basis=b, basis_tilde=bt, alpha=alpha, beta=1.0, gamma=gamma, T=T)


def test_c01_ou_oracle():
    """gamma=1 covariance matches the exponential closed form on 10^4 draws."""
    rng = np.random.default_rng(20240801)
    n = 10 ** 4
    mus = rng.uniform(0.1, 50.0, n)
    ws = rng.uniform(0.1, 5.0, n)
    ss = rng.uniform(0.0, 20.0, n)
    ts = rng.uniform(0.0, 20.0, n)
    start = time.perf_counter()
    worst = 0.0
    for mu, w, s, t in zip(mus, ws, ss, ts):
        got = mode_cov(ModeKernel(mu=mu, weight=w, gamma=1.0), s, t)
        want = w * (math.exp(-mu * abs(t - s)) - math.exp(-mu * (s + t))) / (2.0 * mu)
        worst = max(worst, rel_err(got, want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    report(1, "OU oracle", ok, f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_c02_variance_saturation():
    """mode_var reaches the stationary value to 1e-12 relative once 2 mu t >= 80."""
    start = time.perf_counter()
    worst = 0.0
    for g in (0.75, 1.0, 1.5, 2.5):
        for mu in (0.5, 1.0, 4.0):
            k = ModeKernel(mu=mu, weight=1.0, gamma=g)
            t = 40.0 / mu  # 2 mu t = 80
            sv = stationary_variance(k)
            worst = max(worst, abs(mode_var(k, t) - sv) / sv)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(2, "stationary variance limit", ok, f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_c03_temporal_matern_limit():
    """Lagged covariance at t = 60/kappa matches the Matern-type limit to 1e-10."""
    start = time.perf_counter()
    worst = 0.0
    worst_ou = 0.0
    combos = [(g, kap, h) for g in (0.75, 1.0, 1.3, 1.7, 2.2)
              for kap in (0.5, 1.0, 2.0, 4.0, 8.0) for h in (0.25, 1.0)]
    assert len(combos) == 50
    for g, kap, h in combos:
        k = ModeKernel(mu=kap, weight=1.0, gamma=g)
        t = 60.0 / kap
        got = mode_cov(k, t, t + h, TIGHT)
        want = temporal_matern_limit(g, kap, h)
        worst = max(worst, abs(got - want))
        if g == 1.0:
            worst_ou = max(worst_ou, rel_err(got, math.exp(-kap * h) / (2.0 * kap)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and worst_ou <= 1e-12 and elapsed < 30.0
    report(3, "temporal Matern limit", ok,
           f"worst abs {worst:.2e}, OU subset rel {worst_ou:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert worst_ou <= 1e-12
    assert elapsed < 30.0


def test_c04_legendre_duplication():
    """2^{1-2g} Gamma(2g-1) / Gamma(g)^2 = Gamma(g-1/2) / (2 sqrt(pi) Gamma(g))."""
    rng = np.random.default_rng(44)
    worst = 0.0
    for g in rng.uniform(0.6, 10.0, 100):
        lhs = 2.0 ** (1.0 - 2.0 * g) * gamma_fn(2.0 * g - 1.0) / gamma_fn(g) ** 2
        rhs = gamma_fn(g - 0.5) / (2.0 * math.sqrt(PI) * gamma_fn(g))
        worst = max(worst, rel_err(lhs, rhs))
    ok = worst <= 1e-10
    report(4, "Legendre duplication", ok, f"worst rel {worst:.2e}")
    assert worst <= 1e-10


def test_c05_square_function_ratio():
    """Quadrature ratio equals Gamma(2g-2d-1)/2^{2g-2d-1} and is mu-free: the
    ratio int_0^inf t^{2(g-1-d)} e^{-2 mu t} dt * mu^{2g-2d-1} by the
    adaptive reference, the lag-0 lagged integral at infinite width."""
    rng = np.random.default_rng(55)
    worst_cf = 0.0
    worst_spread = 0.0
    for _ in range(20):
        delta = rng.uniform(0.0, 1.0)
        g = delta + rng.uniform(0.56, 2.5)
        want = square_function_ratio_closed_form(g, delta)
        p = 2.0 * (g - delta) - 1.0
        vals = [_lagged_integral(g - delta, mu, math.inf, 0.0, TIGHT) * mu ** p
                for mu in (0.01, 1.0, 100.0)]
        worst_cf = max(worst_cf, max(rel_err(v, want) for v in vals))
        worst_spread = max(worst_spread, (max(vals) - min(vals)) / min(vals))
    ok = worst_cf <= 1e-8 and worst_spread <= 1e-9
    report(5, "square-function ratio", ok,
           f"closed-form rel {worst_cf:.2e}, mu spread {worst_spread:.2e}")
    assert worst_cf <= 1e-8
    assert worst_spread <= 1e-9


C06_SEED = 606
C06_PATHS = 10 ** 5


def c06_setup():
    """c06's one-mode model and time grid."""
    return one_mode_model(mu=2.0, gamma=1.3, T=2.0), TimeGrid(np.array([0.0, 0.5, 1.0, 1.5, 2.0]))


def test_c06_sampler_law():
    """Empirical covariance of 1e5 exact paths within 4 Gaussian standard errors."""
    start = time.perf_counter()
    model, grid = c06_setup()
    n = C06_PATHS
    paths = sample_modes(model, grid, n, SeedSpec(C06_SEED))
    series = paths[:, 0, :]
    assert np.all(series[:, 0] == 0.0)

    G = gram(ModeKernel(mu=2.0, weight=1.0, gamma=1.3), grid)
    emp = series.T @ series / n
    se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G ** 2) / n)
    dev = np.abs(emp - G)
    # entries with zero standard error (t = 0 row/column) must agree exactly
    exact_ok = bool(np.all(dev[se == 0.0] == 0.0))
    stat_ok = bool(np.all(dev[se > 0.0] <= 4.0 * se[se > 0.0]))
    max_z = float((dev[se > 0.0] / se[se > 0.0]).max())

    rerun = sample_modes(model, grid, n, SeedSpec(C06_SEED))
    repro_ok = np.array_equal(paths, rerun)
    elapsed = time.perf_counter() - start
    ok = exact_ok and stat_ok and repro_ok and elapsed < 120.0
    report(6, "sampler law", ok,
           f"max |z| {max_z:.2f}, bit-reproducible={repro_ok}, {elapsed:.1f}s")
    assert exact_ok and stat_ok and repro_ok
    assert elapsed < 120.0


def test_c06_bit_identical_across_blas_threads():
    """c06's paths have the same bytes under 1 and 2 OpenBLAS threads. Grams of
    128 or more points factor to other bits under 2 threads (README)."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys, test_acceptance as t; from stwm.sampler import SeedSpec, sample_modes; "
            "model, grid = t.c06_setup(); sys.stdout.buffer.write("
            "sample_modes(model, grid, t.C06_PATHS, SeedSpec(t.C06_SEED)).tobytes())")
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                           env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
    assert len(runs[0]) == C06_PATHS * 5 * 8
    assert runs[0] == runs[1]

def _beta_quadrature(a, b):
    """int_0^1 u^{a-1} (1-u)^{b-1} du with endpoint substitutions, independent
    of the gamma-function route."""

    def half(p, q):
        # int_0^{1/2} u^{p-1} (1-u)^{q-1} du through v = u^p
        def f(v):
            return (1.0 - v ** (1.0 / p)) ** (q - 1.0)

        breaks = 0.5 ** p * 2.0 ** -np.arange(1, 30, dtype=float)
        return integrate(f, 0.0, 0.5 ** p, TIGHT, points=breaks) / p

    return half(a, b) + half(b, a)


def test_c07_factorization_method():
    """Beta identity plus first-order convergence of the factorized sampler law."""
    rng = np.random.default_rng(77)
    worst_beta = rel_err(_beta_quadrature(0.5, 0.5), PI)
    for _ in range(50):
        delta = rng.uniform(0.1, 1.5)
        rest = rng.uniform(0.1, 2.0)
        want = gamma_fn(delta) * gamma_fn(rest) / gamma_fn(delta + rest)
        worst_beta = max(worst_beta, rel_err(_beta_quadrature(delta, rest), want))

    k = ModeKernel(mu=1.0, weight=1.0, gamma=1.2)
    delta = 0.3
    want = mode_var(k, 1.0)
    errs = [abs(factorized_covariance(k, delta, TimeGrid.uniform(0.0, 1.0, n)) - want) / want
            for n in (2 ** 8, 2 ** 10, 2 ** 12)]
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(4.0) for i in range(2)]
    ok = worst_beta <= 1e-10 and min(orders) >= 1.0 and errs[-1] <= 0.01
    report(7, "factorization method", ok,
           f"beta rel {worst_beta:.2e}, orders {orders[0]:.2f}/{orders[1]:.2f}, "
           f"final err {errs[-1]:.2e}")
    assert worst_beta <= 1e-10
    assert min(orders) >= 1.0
    assert errs[-1] <= 0.01


# The target is the finite-lag least-squares slope, not only the h -> 0
# exponent 2 min(gamma - 1/2, 1). Away from the knee the two agree to well
# inside the band. At gamma = 1.5 the smoothness index nu = gamma - 1/2 = 1
# sits on the knee: the stationary covariance is proportional to x K_1(x),
# x = mu h, and x K_1(x) = 1 + (x^2/2)[ln(x/2) + euler_gamma - 1/2]
# + O(x^4 ln x) (DLMF 10.31.1), so
#     E|Z(t0+h) - Z(t0)|^2  ~  h^2 [ln(1/(mu h)) + ln 2 - euler_gamma + 1/2].
# The exponent 2 is approached like 2 - 1/ln(1/h), far too slowly for any
# usable lag window. Over lags 2^-6..2^-12 with mu = 1 this predicts the slope
# 1.850439; the exact increments give 1.850436. The one-term form
# h^2 ln(1/h) (slope 1.8348) also lies inside the +/-0.05 band, while an
# increment without the log factor (slope 2.00) lies 0.15 outside it. The
# zero-initial-condition transient at t0 = 5 is O(exp(-2 mu t0)) ~ 5e-5
# relative.
def _knee_slope(lags, mu):
    """Least-squares log-log slope of h^2 [ln(1/(mu h)) + ln 2 - euler_gamma + 1/2]."""
    incr = lags ** 2 * (np.log(1.0 / (mu * lags)) + math.log(2.0) - np.euler_gamma + 0.5)
    return float(np.polyfit(np.log(lags), np.log(incr), 1)[0])


@pytest.mark.parametrize("g", [0.75, 1.0, 1.5, 2.0, 3.0])
def test_c08_holder_slopes(g):
    """Exact-increment log-log slopes within +/-0.05 of the finite-lag prediction.

    The prediction is 2 min(gamma-1/2, 1) off the knee; at gamma - 1/2 = 1 it
    is the log-corrected slope of the K_1 series (1.850439 over 2^-6..2^-12).
    """
    start = time.perf_counter()
    mu = 1.0
    lags = 2.0 ** -np.arange(6, 13, dtype=float)
    est = estimate_holder(ModeKernel(mu=mu, weight=1.0, gamma=g), 5.0, lags)
    want = _knee_slope(lags, mu) if g - 0.5 == 1.0 else holder_theory_slope(g)
    elapsed = time.perf_counter() - start
    ok = abs(est.slope - want) <= 0.05 and elapsed < 60.0
    report(8, f"Holder slope gamma={g}", ok,
           f"slope {est.slope:.4f} vs {want:.4f}, {elapsed:.1f}s")
    assert abs(est.slope - want) <= 0.05
    assert elapsed < 60.0


def test_c09_regularity_checker():
    """Classical temporal bound and the white-in-space threshold flip exactly."""
    heat = SpectralModel(basis=build_basis(1, PI, 0.0, 16),
                         basis_tilde=build_basis(1, PI, 0.0, 16),
                         alpha=0.0, beta=1.0, gamma=1.0, T=1.0)
    admit = check_exponents(heat, RegularityQuery(tau=0.249)).satisfied
    reject = not check_exponents(heat, RegularityQuery(tau=0.251)).satisfied

    flips = []
    for d in (1, 2):
        extents = PI if d == 1 else (PI, PI)
        for sign in (+1.0, -1.0):
            m = SpectralModel(basis=build_basis(d, extents, 0.0, 16),
                              basis_tilde=build_basis(d, extents, 0.0, 16),
                              alpha=d / 2.0 + sign * 0.01, beta=0.0, gamma=1.0, T=1.0)
            flips.append(check_exponents(m, RegularityQuery()).satisfied is (sign > 0))
    ok = admit and reject and all(flips)
    report(9, "regularity checker", ok,
           f"heat bound flip={admit and reject}, alpha=d/2 flips={all(flips)}")
    assert admit and reject
    assert all(flips)


def test_c10_hs_sum_vs_weyl():
    """Basel partial sum within its tail bound; harmonic boundary flagged."""
    basel = SpectralModel(basis=build_basis(1, PI, 0.0, 10 ** 4),
                          basis_tilde=build_basis(1, PI, 0.0, 10 ** 4),
                          alpha=0.0, beta=1.0, gamma=1.0, T=1.0)
    res = hs_sum(basel, RegularityQuery())
    gap = abs(PI ** 2 / 6.0 - res.partial)
    basel_ok = res.weyl_exponent == -2.0 and not res.diverges and gap <= res.tail

    def harmonic(J):
        m = SpectralModel(basis=build_basis(1, PI, 0.0, J),
                          basis_tilde=build_basis(1, PI, 0.0, J),
                          alpha=0.0, beta=1.0, gamma=0.75, T=1.0)
        return hs_sum(m, RegularityQuery())
    h1 = harmonic(2000)
    h4 = harmonic(8000)
    growth = h4.partial - h1.partial
    diverge_ok = h1.diverges and h1.weyl_exponent == -1.0 and growth > 1.0
    ok = basel_ok and diverge_ok
    report(10, "HS sum vs eigenvalue growth", ok,
           f"basel gap {gap:.2e} <= tail {res.tail:.2e}, harmonic growth {growth:.3f}")
    assert basel_ok
    assert diverge_ok


def test_c11_field_consistency():
    """Monte Carlo field variance matches the spectral sum within 4 SE."""
    start = time.perf_counter()
    b = build_basis(1, PI, 0.0, 64)
    model = SpectralModel(basis=b, basis_tilde=b, alpha=1.0, beta=1.0, gamma=1.0, T=6.0)
    x = PI / 2.0
    grid = TimeGrid(np.array([0.0, 5.0]))
    n = 10 ** 5
    fs = sample_field(model, grid, [x], n, SeedSpec(1111))
    emp = float(np.mean(fs.values[:, 1, 0] ** 2))

    want = 0.0
    for j in range(1, 65):
        want += mode_var(mode_params(model, j), 5.0) * evaluate_basis(b, [x])[0, j - 1] ** 2
    se = want * math.sqrt(2.0 / n)
    dev = abs(emp - want)
    elapsed = time.perf_counter() - start
    ok = dev <= 4.0 * se and elapsed < 180.0
    report(11, "field consistency", ok,
           f"emp {emp:.5f} vs {want:.5f} ({dev / se:.2f} SE), {elapsed:.0f}s")
    assert dev <= 4.0 * se
    assert elapsed < 180.0


def test_c12_separability():
    """beta = 0 factorizes exactly; beta = 1 is witnessed non-separable."""
    sep = SpectralModel(basis=build_basis(1, PI, 1.0, 16),
                        basis_tilde=build_basis(1, PI, 1.0, 16),
                        alpha=2.0, beta=0.0, gamma=1.2, T=10.0)
    res = separability_check(sep)
    sep_ok = res.separable and res.max_rel_error <= 1e-9

    non = SpectralModel(basis=build_basis(1, PI, 0.0, 4),
                        basis_tilde=build_basis(1, PI, 0.0, 4),
                        alpha=0.0, beta=1.0, gamma=1.0, T=10.0)
    wit = separability_check(non)
    r1, r2 = wit.witness
    non_ok = (not wit.separable) and abs(r1 - r2) > 0.05
    ok = sep_ok and non_ok
    report(12, "separability", ok,
           f"factorization rel {res.max_rel_error:.2e}, witness gap {abs(r1 - r2):.3f}")
    assert sep_ok
    assert non_ok
