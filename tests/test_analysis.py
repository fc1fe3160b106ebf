import json
import math

import numpy as np
import pytest

from stwm.analysis import (
    RegularityQuery,
    asymptotic_marginal_cov,
    check_exponents,
    estimate_holder,
    field_cov,
    field_gram,
    holder_theory_slope,
    hs_sum,
    separability_check,
)
from stwm.kernel import ModeKernel, mode_cov, mode_var, temporal_matern_limit
from stwm import sampler
from stwm.sampler import SeedSpec, TimeGrid, cholesky_psd, mode_grams, sample_field
from stwm.spectral import SpectralModel, build_basis, evaluate_basis, mode_params

PI = math.pi


def make_model(d=1, kappa2=0.0, J=64, alpha=0.0, beta=1.0, gamma=1.0, T=50.0, kappa2_t=None):
    extents = PI if d == 1 else (PI, PI)
    kappa2_t = kappa2 if kappa2_t is None else kappa2_t
    return SpectralModel(basis=build_basis(d, extents, kappa2, J),
                         basis_tilde=build_basis(d, extents, kappa2_t, J),
                         alpha=alpha, beta=beta, gamma=gamma, T=T)


class TestRegularityQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegularityQuery(n=-1)
        with pytest.raises(ValueError):
            RegularityQuery(tau=1.0)
        for sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                RegularityQuery(sigma=sigma)


class TestCheckExponents:
    def test_classical_heat_temporal_bound(self):
        # d=1, alpha=0, beta=gamma=1: admissible Holder exponents stop below 1/4
        m = make_model()
        assert check_exponents(m, RegularityQuery(tau=0.249)).satisfied
        assert not check_exponents(m, RegularityQuery(tau=0.251)).satisfied

    def test_d2_smoothed_noise_threshold(self):
        # d=2, alpha=beta=1, sigma=n=tau=0: satisfied iff gamma > 1/2
        for g, want in [(0.51, True), (0.5, False), (0.49, False)]:
            m = make_model(d=2, alpha=1.0, beta=1.0, gamma=g, J=16)
            assert check_exponents(m, RegularityQuery()).satisfied is want

    def test_beta_zero_needs_alpha_above_half_d(self):
        for d in (1, 2):
            sat = check_exponents(make_model(d=d, beta=0.0, alpha=d / 2.0 + 0.01, J=16),
                                  RegularityQuery())
            unsat = check_exponents(make_model(d=d, beta=0.0, alpha=d / 2.0 - 0.01, J=16),
                                    RegularityQuery())
            assert sat.satisfied and not unsat.satisfied

    def test_boundary_semantics(self):
        # equality satisfies only the non-strict Holder condition
        m = make_model(gamma=1.0)
        rep = check_exponents(m, RegularityQuery(tau=0.5))  # holder margin exactly 0
        assert rep.margins["holder_gamma"] == 0.0
        # spectral condition is strict: margin 0 must reject
        m2 = make_model(gamma=0.75, alpha=0.0, beta=1.0)  # beta*gamma = 3/4 + tau at tau=...
        rep2 = check_exponents(m2, RegularityQuery(tau=0.0))
        assert abs(rep2.margins["spectral"]) < 1e-15
        assert not rep2.satisfied

    def test_monotone_in_gamma(self):
        q = RegularityQuery(n=0, tau=0.2, sigma=0.5)
        sat = [check_exponents(make_model(gamma=g, alpha=1.0), q).satisfied
               for g in np.linspace(0.6, 4.0, 30)]
        # once satisfied, stays satisfied
        first = sat.index(True) if True in sat else len(sat)
        assert all(sat[first:])

    def test_margins_reported(self):
        rep = check_exponents(make_model(), RegularityQuery())
        assert set(rep.margins) == {"strict_gamma", "holder_gamma", "spectral"}

    def test_json_shape(self):
        rep = check_exponents(make_model(), RegularityQuery())
        doc = json.loads(json.dumps(rep.as_dict()))
        assert set(doc) == {"satisfied", "margins", "hs"}
        assert set(doc["hs"]) == {"partial", "tail", "diverges"}


class TestHsSum:
    def test_basel_series(self):
        m = make_model(J=1000)
        res = hs_sum(m, RegularityQuery())
        assert res.weyl_exponent == -2.0
        assert not res.diverges
        assert abs(res.partial - 1.6439345666815601) < 1e-12
        assert abs(math.pi ** 2 / 6.0 - res.partial) <= res.tail

    def test_harmonic_boundary_diverges(self):
        # gamma = 3/4 makes the comparison exponent exactly -1
        m = make_model(gamma=0.75, J=256)
        res = hs_sum(m, RegularityQuery())
        assert res.weyl_exponent == -1.0
        assert res.diverges and res.tail == math.inf

    def test_growth_confirms_divergence(self):
        m1 = make_model(gamma=0.75, J=256)
        m4 = make_model(gamma=0.75, J=1024)
        s1 = hs_sum(m1, RegularityQuery()).partial
        s4 = hs_sum(m4, RegularityQuery()).partial
        assert s4 - s1 > 1.0  # harmonic growth ~ log 4

    def test_beta_zero_alpha_d(self):
        m = make_model(beta=0.0, alpha=1.0, J=128)
        res = hs_sum(m, RegularityQuery())
        assert res.weyl_exponent == -2.0
        assert not res.diverges

    def test_satisfied_implies_summable(self):
        for g in (0.8, 1.0, 1.7, 2.5):
            for alpha in (0.0, 0.5, 1.5):
                m = make_model(gamma=g, alpha=alpha, J=32)
                q = RegularityQuery(tau=0.1)
                rep = check_exponents(m, q)
                if rep.satisfied:
                    assert not rep.hs.diverges


class TestFieldCov:
    def test_zero_time(self):
        m = make_model(alpha=1.0, J=8)
        assert tuple(field_cov(m, 0.0, 2.0, 1.0, 1.0)) == (0.0, 0.0)

    def test_single_mode(self):
        m = make_model(alpha=1.0, J=1)
        x, y, s, t = 1.0, 2.0, 1.5, 2.5
        got = field_cov(m, s, t, x, y)
        k = mode_params(m, 1)
        e = evaluate_basis(m.basis, [x, y])
        want = mode_cov(k, s, t) * e[0, 0] * e[1, 0]
        assert abs(got.value - want) < 1e-12

    def test_nan_point_rejected(self):
        m = make_model(alpha=1.0, J=8)
        for x, y in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="open domain"):
                field_cov(m, 1.0, 1.0, x, y)

    def test_tail_bound_dominates_extension(self):
        # enlarging J moves mass from the bound into the partial sum
        mJ = make_model(alpha=1.0, J=16)
        mJ2 = make_model(alpha=1.0, J=128)
        a = field_cov(mJ, 5.0, 5.0, PI / 2, PI / 2)
        b = field_cov(mJ2, 5.0, 5.0, PI / 2, PI / 2)
        assert abs(b.value - a.value) <= a.tail_bound * 1.001
        assert b.tail_bound < a.tail_bound

    def test_divergence_warning(self):
        m = make_model(alpha=0.0, beta=0.0, gamma=1.0, J=8)
        with pytest.warns(RuntimeWarning):
            res = field_cov(m, 1.0, 1.0, 1.0, 1.0)
        assert res.tail_bound == math.inf

    def test_covariance_matrix_psd(self):
        m = make_model(alpha=1.0, J=24)
        pts = [(1.0, 0.7), (1.0, 1.9), (2.5, 0.7), (3.0, 2.3), (4.0, 1.2)]
        C = np.empty((5, 5))
        for i, (s, x) in enumerate(pts):
            for j, (t, y) in enumerate(pts):
                if j < i:
                    continue
                C[i, j] = C[j, i] = field_cov(m, s, t, x, y).value
        cholesky_psd(C)  # raises if not PSD

    def test_field_gram_sums_modes_in_order_across_chunks(self, monkeypatch):
        # chunks of 5 modes: the sum over the stacks is the in-order sum of
        # c_j times mode j's Gram matrix, to the bit
        m = make_model(alpha=1.0, J=12, T=5.0)
        grid = TimeGrid.uniform(0.0, 4.0, 8)
        monkeypatch.setattr(sampler, "_STACK_ENTRIES", 5 * grid.n ** 2)
        c = evaluate_basis(m.basis, [0.7])[0] * evaluate_basis(m.basis, [2.1])[0]
        S = np.concatenate([stack for _, stack in mode_grams(m, grid)])
        want = sum(c_j * G_j for c_j, G_j in zip(c, S))
        assert np.array_equal(field_gram(m, grid, 0.7, 2.1), want)


class TestAsymptoticMarginalCov:
    def test_routes_agree(self):
        m = make_model(alpha=1.0, beta=1.0, gamma=1.3, J=64)
        res = asymptotic_marginal_cov(m)
        assert np.max(np.abs(res.coefficients / res.power_form - 1.0)) < 1e-12

    def test_ou_coefficients(self):
        m = make_model(alpha=0.0, beta=1.0, gamma=1.0, J=16)
        want = 1.0 / (2.0 * m.basis.eigenvalues)
        assert np.allclose(asymptotic_marginal_cov(m).coefficients, want, rtol=1e-13)

    def test_matches_long_time_variance(self):
        m = make_model(alpha=1.0, gamma=1.2, J=8)
        res = asymptotic_marginal_cov(m)
        for j in (1, 4, 8):
            k = mode_params(m, j)
            assert abs(mode_var(k, 50.0) - res.coefficients[j - 1]) \
                <= 1e-10 * res.coefficients[j - 1]


class TestSeparability:
    def test_separable_when_beta_zero(self):
        m = make_model(beta=0.0, alpha=2.0, gamma=1.2, J=16, T=10.0)
        res = separability_check(m)
        assert res.separable
        assert res.max_rel_error < 1e-9

    def test_temporal_profile_matches_matern_limit(self):
        m = make_model(beta=0.0, alpha=2.0, gamma=1.2, J=8, T=100.0)
        assert separability_check(m).separable
        rho = ModeKernel(mu=1.0, weight=1.0, gamma=m.gamma)
        for h in (0.5, 1.0):
            assert abs(mode_cov(rho, 45.0, 45.0 + h) - temporal_matern_limit(m.gamma, 1.0, h)) < 1e-11

    def test_non_separable_witness(self):
        m = make_model(beta=1.0, alpha=0.0, gamma=1.0, J=4, T=10.0)
        res = separability_check(m)
        assert not res.separable
        r1, r2 = res.witness
        # OU lag ratios e^{-mu h} differ across modes with distinct rates
        assert abs(r1 - r2) > 0.05


class TestEstimateHolder:
    LAGS = 2.0 ** -np.arange(6, 13)

    def test_ou_slope(self):
        est = estimate_holder(ModeKernel(1.0, 1.0, 1.0), 5.0, self.LAGS)
        assert 0.95 <= est.slope <= 1.05

    def test_rough_slope(self):
        est = estimate_holder(ModeKernel(1.0, 1.0, 0.75), 5.0, self.LAGS)
        assert 0.45 <= est.slope <= 0.55

    def test_smooth_slope_capped(self):
        est = estimate_holder(ModeKernel(1.0, 1.0, 2.0), 5.0, self.LAGS)
        assert 1.9 <= est.slope <= 2.1

    def test_weight_invariance(self):
        a = estimate_holder(ModeKernel(1.0, 1.0, 0.8), 5.0, self.LAGS).slope
        b = estimate_holder(ModeKernel(1.0, 37.5, 0.8), 5.0, self.LAGS).slope
        assert abs(a - b) < 1e-9

    def test_theory_slope(self):
        assert holder_theory_slope(1.0) == 1.0
        assert holder_theory_slope(0.75) == 0.5
        assert holder_theory_slope(3.0) == 2.0

    def test_validation(self):
        k = ModeKernel(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_holder(k, 0.5, self.LAGS)
        with pytest.raises(ValueError):
            estimate_holder(k, 5.0, [0.1])
        with pytest.raises(ValueError):
            estimate_holder(k, 5.0, [0.1, 0.5])
        for t0 in (math.nan, math.inf):
            with pytest.raises(ValueError):
                estimate_holder(k, t0, self.LAGS)
        with pytest.raises(ValueError):  # t0 + lag rounds to t0
            estimate_holder(k, 1e300, self.LAGS)

    def test_large_t0_fits_represented_lags(self):
        # at t0 = 1e11 the grid t0 + h moves each lag by up to 0.7 %; the fit
        # uses the lags the grid holds, so the slope matches the one at t0 = 5
        k = ModeKernel(1.0, 1.0, 1.0)
        lags = np.geomspace(1e-3, 1e-2, 8)
        far = estimate_holder(k, 1e11, lags)
        assert abs(far.slope - estimate_holder(k, 5.0, lags).slope) < 5e-4
        assert np.array_equal(far.lags, (1e11 + lags) - 1e11)

    def test_increments_below_rounding_floor_raise(self):
        # at lags 2^-30..2^-45 the increment of the OU mode sinks below
        # 1e-10 q(t0, t0), where the covariance difference is mostly rounding
        with pytest.raises(ArithmeticError):
            estimate_holder(ModeKernel(1.0, 1.0, 1.0), 5.0, 2.0 ** -np.arange(30, 46))


class TestFieldMonteCarloConsistency:
    def test_small_scale_cross_check(self):
        # small-n version of the acceptance criterion
        m = make_model(alpha=1.0, beta=1.0, gamma=1.0, J=16, T=6.0)
        x = PI / 2.0
        grid = TimeGrid(np.array([0.0, 5.0]))
        n = 20000
        fs = sample_field(m, grid, [x], n, SeedSpec(616))
        emp = float(np.mean(fs.values[:, 1, 0] ** 2))
        want = field_cov(m, 5.0, 5.0, x, x).value
        se = want * math.sqrt(2.0 / n)
        assert abs(emp - want) <= 5.0 * se
