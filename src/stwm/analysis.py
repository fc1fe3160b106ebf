"""Regularity and covariance-structure analysis.

Exponent-condition checking for space-time smoothness, the spectral
Hilbert-Schmidt sum with eigenvalue-growth tail bounds, truncated field
covariances, asymptotic marginal covariance coefficients, separability
detection, and mean-square Holder slope estimation from exact covariance
increments, every covariance read from the samplers' sampler.gram.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernel import ModeKernel, stationary_constant, stationary_variance
from .sampler import TimeGrid, gram, mode_grams
from .spectral import EigenBasis, SpectralModel, evaluate_basis, mode_params, weyl_ratio

__all__ = [
    "RegularityQuery",
    "RegularityReport",
    "HsSum",
    "FieldCov",
    "AsymptoticCoefficients",
    "SeparabilityResult",
    "HolderEstimate",
    "check_exponents",
    "hs_sum",
    "field_cov",
    "field_gram",
    "asymptotic_marginal_cov",
    "separability_check",
    "estimate_holder",
    "holder_theory_slope",
    "variance_series_exponent",
]


@dataclass(frozen=True)
class RegularityQuery:
    """Smoothness query: n time derivatives, Holder exponent tau in [0, 1),
    spatial exponent sigma >= 0 (fractional-power scale of the dynamics
    operator). The auxiliary noise-regularity exponent r is always derived
    from the model, never user-supplied."""

    n: int = 0
    tau: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.n < 0 or int(self.n) != self.n:
            raise ValueError(f"n must be a nonnegative integer, got {self.n}")
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must lie in [0, 1), got {self.tau}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


class HsSum(NamedTuple):
    partial: float
    tail: float
    diverges: bool
    weyl_exponent: float


@dataclass(frozen=True)
class RegularityReport:
    satisfied: bool
    margins: dict
    hs: HsSum

    def as_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "margins": dict(self.margins),
            "hs": {"partial": self.hs.partial, "tail": self.hs.tail, "diverges": self.hs.diverges},
        }


def _noise_smoothing_r(model: SpectralModel, sigma: float) -> float:
    if model.beta > 0.0:
        return min(model.alpha / model.beta, sigma)
    return sigma


def _growth_constants(basis: EigenBasis) -> tuple:
    """weyl_ratio(basis), or with too few modes (J < 10) the last ratio twice."""
    if basis.J >= 10:
        return weyl_ratio(basis)
    ratio = float(basis.eigenvalues[-1] / basis.J ** (2.0 / basis.d))
    return ratio, ratio


def _spectral_exponent(model: SpectralModel, q: RegularityQuery) -> float:
    """hs_sum's comparison exponent p (see hs_sum)."""
    a, b, g = model.alpha, model.beta, model.gamma
    return (4.0 / model.d) * (b * (q.n + q.tau + (1.0 + q.sigma) / 2.0) - b * g - a / 2.0)


def hs_sum(model: SpectralModel, q: RegularityQuery) -> HsSum:
    """Partial spectral sum sum_j lambda_j^{2 beta (sigma/2 + n + tau + 1/2 - gamma)}
    lambda_tilde_j^{-alpha} over the truncated basis, with an eigenvalue-growth
    tail bound.

    The comparison exponent p = (4/d)[beta(n + tau + (1+sigma)/2) - beta gamma
    - alpha/2] decides convergence: the full series is finite iff p < -1, and
    the tail beyond J is bounded using the two-sided growth constants measured
    on the resolved spectrum.
    """
    a, b, g = model.alpha, model.beta, model.gamma
    lam = model.basis.eigenvalues
    lam_t = model.basis_tilde.eigenvalues
    e1 = 2.0 * b * (q.sigma / 2.0 + q.n + q.tau + 0.5 - g)
    terms = lam ** e1 * lam_t ** -a
    partial = float(terms.sum())
    p = _spectral_exponent(model, q)
    if p >= -1.0:
        return HsSum(partial=partial, tail=math.inf, diverges=True, weyl_exponent=p)
    c_lo, c_hi = _growth_constants(model.basis)
    ct_lo, _ = _growth_constants(model.basis_tilde)
    c_sel = c_hi if e1 >= 0.0 else c_lo
    const = c_sel ** e1 * ct_lo ** -a
    tail = const * model.J ** (p + 1.0) / (-p - 1.0)
    return HsSum(partial=partial, tail=float(tail), diverges=False, weyl_exponent=p)


def check_exponents(model: SpectralModel, q: RegularityQuery) -> RegularityReport:
    """Evaluate the three exponent inequalities governing space-time smoothness
    and report signed margins (lhs - rhs).

    strict_gamma:  gamma > n + ((sigma - r) v 1) / 2        (strict)
    holder_gamma:  gamma >= n + (1 + (sigma - r) v (2 tau)) / 2
    spectral:      beta gamma > d/4 - alpha/2 + beta (n + tau + (1+sigma)/2)
                   (strict; equivalent to the spectral sum being finite)

    Equality counts as satisfied only for the non-strict middle condition.
    """
    a, b, g = model.alpha, model.beta, model.gamma
    d = model.d
    r = _noise_smoothing_r(model, q.sigma)
    gap = q.sigma - r
    strict_gamma = g - (q.n + max(gap, 1.0) / 2.0)
    holder_gamma = g - (q.n + (1.0 + max(gap, 2.0 * q.tau)) / 2.0)
    spectral = b * g - (d / 4.0 - a / 2.0 + b * (q.n + q.tau + (1.0 + q.sigma) / 2.0))
    satisfied = strict_gamma > 0.0 and holder_gamma >= 0.0 and spectral > 0.0
    margins = {"strict_gamma": strict_gamma, "holder_gamma": holder_gamma, "spectral": spectral}
    return RegularityReport(satisfied=satisfied, margins=margins, hs=hs_sum(model, q))


class FieldCov(NamedTuple):
    value: float
    tail_bound: float


def _sup_basis_bound(model: SpectralModel) -> float:
    out = 1.0
    for ell in model.basis.extents:
        out *= 2.0 / ell
    return out


def variance_series_exponent(model: SpectralModel) -> float:
    """Exponent p_v with sum_j lambda_j^{beta (1 - 2 gamma)} lambda_tilde_j^{-alpha}
    ~ sum_j j^{p_v}: the field variance series is finite iff p_v < -1. It is
    hs_sum's comparison exponent at n = tau = sigma = 0."""
    return _spectral_exponent(model, RegularityQuery())


def field_gram(model: SpectralModel, grid: TimeGrid, x, y) -> np.ndarray:
    """Truncated field covariance matrix [Cov(X(t_i, x), X(t_k, y))]_{ik},
    the sum over modes j = 1..J, in order, of e_j(x) e_j(y) times mode j's
    Gram matrix, taken from the stacks of sampler.mode_grams. Warns,
    once the Grams are built, when the variance series fails the growth
    test."""
    coeffs = evaluate_basis(model.basis, [x])[0] * evaluate_basis(model.basis, [y])[0]
    out = np.zeros((grid.n, grid.n))
    for j0, stack in mode_grams(model, grid):
        for c, G in zip(coeffs[j0:], stack):
            out += c * G
    if variance_series_exponent(model) >= -1.0:
        warnings.warn("field variance series fails the eigenvalue-growth summability test; "
                      "the covariance is the truncated sum", RuntimeWarning, stacklevel=2)
    return out


def field_cov(model: SpectralModel, s: float, t: float, x, y) -> FieldCov:
    """Truncated field covariance sum_j q_j(s, t) e_j(x) e_j(y) (field_gram on
    the grid {s, t}), with a tail bound from the stationary-variance majorant
    of |q_j| and the measured eigenvalue growth constants. The bound is
    infinite when the variance series fails the growth test."""
    if min(s, t) < 0.0:
        raise ValueError(f"field_cov requires s, t >= 0, got ({s}, {t})")
    # |q_j| <= stationary_constant * (the variance series' j-th term), which
    # is hs_sum's term at n = tau = sigma = 0; stationary_constant raises for
    # gamma <= 1/2, also at s = 0
    bound = stationary_constant(model.gamma) * _sup_basis_bound(model) \
        * hs_sum(model, RegularityQuery()).tail
    if min(s, t) == 0.0:
        return FieldCov(value=0.0, tail_bound=0.0)
    total = float(field_gram(model, TimeGrid(np.unique([s, t])), x, y)[0, -1])
    return FieldCov(value=total, tail_bound=bound)


class AsymptoticCoefficients(NamedTuple):
    coefficients: np.ndarray  # stationary variance per mode
    power_form: np.ndarray    # same values through the eigenvalue-power formula


def asymptotic_marginal_cov(model: SpectralModel) -> AsymptoticCoefficients:
    """Per-mode coefficients of the long-time marginal spatial covariance
    operator: stationary variances, together with the closed-form expression
    c * lambda_j^{beta (1 - 2 gamma)} lambda_tilde_j^{-alpha}. The two routes
    agree to ~1e-12 relative."""
    coeffs = np.array([stationary_variance(mode_params(model, j)) for j in range(1, model.J + 1)])
    g = model.gamma
    power = stationary_constant(g) * model.basis.eigenvalues ** (model.beta * (1.0 - 2.0 * g)) \
        * model.basis_tilde.eigenvalues ** -model.alpha
    return AsymptoticCoefficients(coefficients=coeffs, power_form=power)


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    max_rel_error: float | None      # factorization verification (separable case)
    witness: tuple | None            # lag ratios of two modes (non-separable case)


def separability_check(model: SpectralModel, seed: int = 0) -> SeparabilityResult:
    """The covariance factorizes into a temporal profile times the spatial
    noise coloring exactly when beta = 0 (all modes share decay rate 1).

    When separable, the factorization q_j(s, t) = rho(s, t) lambda_tilde_j^{-alpha}
    is verified on 3 random modes and 10 random time pairs; otherwise two modes
    with distinct eigenvalues witness the failure through unequal lag ratios.
    """
    rng = np.random.default_rng(seed)
    g = model.gamma
    if model.beta == 0.0:
        rho = ModeKernel(mu=1.0, weight=1.0, gamma=g)
        modes = rng.integers(1, model.J + 1, size=min(3, model.J))
        worst = 0.0
        for j in modes:
            k = mode_params(model, int(j))
            w = model.basis_tilde.eigenvalues[int(j) - 1] ** -model.alpha
            st = rng.uniform(model.T / 100.0, model.T, size=(10, 2))
            times, idx = np.unique(st, return_inverse=True)
            grid = TimeGrid(times)
            i_s, i_t = idx.reshape(st.shape).T
            lhs = gram(k, grid)[i_s, i_t]
            rhs = gram(rho, grid)[i_s, i_t] * w
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300))))
        return SeparabilityResult(separable=True, max_rel_error=worst, witness=None)

    witness = None
    lam = model.basis.eigenvalues
    distinct = np.nonzero(lam != lam[0])[0]
    if distinct.size:
        grid = TimeGrid(np.array([min(1.0, model.T / 2.0), min(2.0, model.T)]))
        grams = (gram(mode_params(model, j), grid) for j in (1, int(distinct[0]) + 1))
        witness = tuple(G[0, 1] / G[0, 0] for G in grams)
    return SeparabilityResult(separable=False, max_rel_error=None, witness=witness)


class HolderEstimate(NamedTuple):
    slope: float
    residual: float
    lags: np.ndarray
    increments: np.ndarray


def holder_theory_slope(gamma: float) -> float:
    """h -> 0 exponent of the mean-square increment: 2 min(gamma - 1/2, 1).

    This is the limit exponent, not a finite-lag slope. At gamma = 3/2 the
    increment is ~ h^2 log(1/h), so least-squares fits over any usable lag
    window stay below 2 (about 1.85 over 2^-12..2^-6).
    """
    return 2.0 * min(gamma - 0.5, 1.0)


def estimate_holder(k: ModeKernel, t0: float, lags) -> HolderEstimate:
    """Least-squares slope of log mean-square increment against log lag.

    Increments E|Z(t0+h) - Z(t0)|^2 = q(t0+h, t0+h) + q(t0, t0) - 2 q(t0, t0+h)
    are exact, from one gram on the grid t0 + [0, lags], and are fitted against
    the lags that grid represents, (t0 + h) - t0. A finite t0 >= 1 keeps
    the fit away from the zero-initial-condition transient; lags must lie in
    (0, 1/4] with t0 + lags[0] != t0. Increments below 1e-10 q(t0, t0), mostly
    rounding, raise ArithmeticError.
    """
    if not (math.isfinite(t0) and t0 >= 1.0):
        raise ValueError(f"t0 must be finite and >= 1, got {t0}")
    hs = np.sort(np.unique(np.asarray(lags, dtype=float)))
    if hs.size < 2:
        raise ValueError("need at least two distinct lags")
    if hs[0] <= 0.0 or hs[-1] > 0.25:
        raise ValueError(f"lags must lie in (0, 1/4], got range [{hs[0]}, {hs[-1]}]")
    if t0 + hs[0] == t0:
        raise ValueError(f"lag {hs[0]} vanishes against t0 = {t0} in double precision")
    times = t0 + np.concatenate(([0.0], hs))
    G = gram(k, TimeGrid(times))
    incr = G.diagonal()[1:] + G[0, 0] - 2.0 * G[0, 1:]
    if not np.all(incr > 1e-10 * G[0, 0]):
        raise ArithmeticError("mean-square increment below the rounding floor; use larger lags")
    hs = times[1:] - t0  # the lags the Gram sits at; exact since h <= 1/4 <= t0
    x = np.log(hs)
    y = np.log(incr)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return HolderEstimate(slope=float(slope), residual=float(np.sqrt(np.mean(resid ** 2))),
                          lags=hs, increments=incr)
