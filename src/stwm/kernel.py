"""Per-mode temporal covariance of the solution process.

A single eigenmode of the space-time model is the scalar Gaussian process

    Z(t) = w^{1/2} / Gamma(g) * int_0^t (t-s)^{g-1} e^{-mu (t-s)} dB(s),

with decay rate mu > 0, noise weight w > 0 and fractional order g. Its
covariance

    q(s, t) = w / Gamma(g)^2 * int_0^{min(s,t)} [(s-r)(t-r)]^{g-1}
              e^{-mu (s+t-2r)} dr

is computed here: for s = t by the incomplete-gamma closed form, and for
s != t by two routes on the same integral. _lagged_integrals, one fixed
Gauss-Jacobi and Gauss-Legendre rule batched over decay rates, widths and
lags, serves the sampler's Gram builder and so every library and CLI
covariance; mode_cov, adaptive quadrature to a QuadratureConfig tolerance,
is the tests' reference and the package's only caller of the adaptive
integrator. Also here: the stationary (t -> infinity) variance, the
Matern-type limit of the lagged covariance and the closed form of the
weighted-semigroup square-function ratio.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate, panel_rules
from .specfun import gamma_fn, log_gamma, log_lower_incomplete_gamma, matern_cov

__all__ = [
    "ModeKernel",
    "mode_cov",
    "mode_var",
    "stationary_constant",
    "stationary_variance",
    "temporal_matern_limit",
    "square_function_ratio_closed_form",
]

# Effective e-folds of integrand kept: contributions further than this many
# e-folds below the integrand maximum are dropped when restricting the
# integration window (safe at double precision).
_EFOLDS = 760.0
# Nodes of _lagged_integrals' Gauss-Jacobi singular panel.
_JACOBI_NODES = 20


@dataclass(frozen=True)
class ModeKernel:
    """One eigenmode's temporal law: decay rate mu = lambda^beta, noise weight
    w = lambda_tilde^{-alpha}, fractional order gamma.

    All three are finite and positive. gamma > 1/2, the finite-variance
    condition with delta = 0 at mode level, is required by every pointwise
    variance and checked where they are formed, by _variance_rows and
    stationary_constant; the lagged covariance alone is defined for all
    gamma > 0.
    """

    mu: float
    weight: float
    gamma: float

    def __post_init__(self):
        for name in ("mu", "weight", "gamma"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"ModeKernel requires finite {name} > 0, got {value}")


def _dyadic_breaks(width: float, mu: float, p: float = 1.0):
    """Geometric ladder of initial panel edges covering every scale of
    e^{-2 mu u} on (0, width], mapped through the substitution u -> u^p.

    Adaptive refinement alone can miss integrand mass concentrated far below
    the panel width, so the ladder seeds panels down to scales well under
    1/(2 mu)."""
    depth = max(4, math.ceil(math.log2(max(width * 2.0 * mu, 2.0))) + 6)
    depth = min(depth, 60)
    us = width * 2.0 ** -np.arange(1, depth + 1, dtype=float)
    return np.sort(us ** p)


def _lagged_integrand(g: float, mu: float, width: float, lag):
    """(scale, f, v_end, points) with int_0^width u^{g-1} (u+lag)^{g-1}
    e^{-2 mu u} du = scale * int_0^v_end f(v) dv, v = (u / sigma)^p, and
    points the _dyadic_breaks ladder in v.

    p = g - n, n = max(0, floor(g - 1)), lies in (0, 2): v absorbs the
    non-integer part of u^{g-1} exactly and each ladder panel spans at most a
    factor 4 in v. With sigma = min(width, 1/(2 mu)) the integral of f is of
    order one, so a quadrature tolerance on it is relative. The range ends
    where the integrand has decayed by _EFOLDS e-folds.
    """
    width = min(width, 0.5 * _EFOLDS / mu)
    n = max(0.0, math.floor(g - 1.0))
    p = g - n
    sigma = min(width, 0.5 / mu)
    inv_p, a, b = 1.0 / p, sigma / (sigma + lag), lag / (sigma + lag)

    def f(v):
        x = v ** inv_p  # u / sigma
        y = (a * x + b) ** (g - 1.0) * np.exp(-2.0 * mu * sigma * x)
        return y * x ** n if n else y

    scale = sigma ** g * (sigma + lag) ** (g - 1.0) / p
    return scale, f, (width / sigma) ** p, _dyadic_breaks(width / sigma, mu * sigma, p)


def _lagged_integral(g: float, mu: float, width: float, lag: float, cfg: QuadratureConfig) -> float:
    """int_0^width u^{g-1} (u+lag)^{g-1} e^{-2 mu u} du by adaptive quadrature."""
    scale, f, v_end, points = _lagged_integrand(g, mu, width, lag)
    return scale * integrate(f, 0.0, v_end, cfg, points=points)


def _gauss_jacobi(n: int, beta: float):
    """Nodes and weights of the n-point Gauss rule on [0, 1] for the weight
    u^beta, beta > -1: sum_i w_i f(u_i) = int_0^1 u^beta f(u) du for every
    polynomial f of degree below 2n.

    Golub-Welsch: the nodes are the eigenvalues of the closed-form Jacobi
    matrix of the Jacobi polynomials P^(0, beta) on [-1, 1], mapped by
    u = (1 + x) / 2, and the weights the squared first eigenvector
    components times int_0^1 u^beta du = 1 / (beta + 1).
    """
    s = 2.0 * np.arange(1, n) + beta
    diag = np.concatenate(([beta / (beta + 2.0)], beta ** 2 / (s * (s + 2.0))))
    k = np.arange(1, n)
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + x), v[0] ** 2 / (beta + 1.0)


def _lagged_integrals(g: float, mu, widths, lags) -> np.ndarray:
    """int_0^W u^{g-1} (u+l)^{g-1} e^{-2 mu u} du for arrays of decay rates
    mu > 0, widths W > 0 and lags l > 0 that broadcast together, by one
    fixed rule; the result has their broadcast shape.

    With W cut at _EFOLDS / (2 mu) and x = u / sigma, sigma = min(W, 1/(2 mu)),
    the integrand is x^{g-1} (a x + b)^{g-1} e^{-2 mu sigma x} on [0, W / sigma].
    The singular panel [0, c], c = min(1, l / sigma), takes the Gauss-Jacobi
    rule for x^{g-1}; the rest takes 15-point panels on the ladder c 2^{k/m},
    m = ceil(g / 6) per octave. Panels past an entry's own end have zero
    width, so one array shape serves every entry.
    """
    mu, widths, lags = (a[..., None] for a in np.broadcast_arrays(mu, widths, lags))
    with np.errstate(over="ignore"):  # a subnormal mu gives an infinite cap, never the minimum
        widths = np.minimum(widths, 0.5 * _EFOLDS / mu)
        sigma = np.minimum(widths, 0.5 / mu)
    a, b = sigma / (sigma + lags), lags / (sigma + lags)

    def smooth(x):
        return (a * x + b) ** (g - 1.0) * np.exp(-2.0 * mu * sigma * x)

    c = np.minimum(1.0, lags / sigma)
    end = widths / sigma
    x, w = _gauss_jacobi(_JACOBI_NODES, g - 1.0)
    total = c[..., 0] ** g * (smooth(c * x) @ w)
    m = math.ceil(g / 6.0)
    n_panels = math.ceil(m * math.log2(float((end / c).max())))
    if n_panels > 0:
        edges = np.minimum(c * 2.0 ** (np.arange(n_panels + 1) / m), end)
        x, w = (r.reshape(edges.shape[:-1] + (-1,)) for r in panel_rules(edges))
        total += (x ** (g - 1.0) * smooth(x) * w).sum(axis=-1)
    return (sigma ** g * (sigma + lags) ** (g - 1.0))[..., 0] * total


def mode_cov(k: ModeKernel, s: float, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Covariance q(s, t) of the mode process, symmetric in (s, t), zero when
    either argument is 0 (zero initial condition).

    Equal times give mode_var(k, t). Lagged values underflow to exactly 0
    when mu * |t - s| exceeds the e^{-x} range of double precision (the
    covariance is bounded by e^{-mu |t-s|} times a moderate factor).
    """
    if s < 0.0 or t < 0.0:
        raise ValueError(f"mode_cov requires s, t >= 0, got ({s}, {t})")
    lo, hi = (s, t) if s <= t else (t, s)
    if lo == 0.0:
        return 0.0
    if lo == hi:
        return mode_var(k, lo)
    g, mu = k.gamma, k.mu
    pre = math.exp(-mu * (hi - lo))
    if pre == 0.0:
        return 0.0
    return k.weight / gamma_fn(g) ** 2 * pre * _lagged_integral(g, mu, lo, hi - lo, cfg)


def mode_var(k: ModeKernel, t):
    """Variance q(t, t) = w gamma(2g - 1, 2 mu t) / (Gamma(g)^2 (2 mu)^{2g-1}),
    the incomplete-gamma closed form, evaluated in log space so that it stays
    finite where the prefactor alone under- or overflows. t is a float or an
    array of times (a float for a float); the entries of an array are
    bit-identical to the scalar calls, since both go through one
    implementation of specfun.log_lower_incomplete_gamma."""
    t = np.asarray(t, dtype=float)
    if (t < 0.0).any():
        raise ValueError(f"mode_var requires t >= 0, got {t[t < 0.0].flat[0]}")
    out = _variance_rows(k.gamma, [k.mu], [k.weight], t)[0]
    return out if out.ndim else float(out)


def _variance_rows(g: float, mu, weight, t) -> np.ndarray:
    """mode_var at the times t (an array) of modes j = 0, 1, ... with decay
    rates mu[j] and weights weight[j], in one incomplete-gamma call; shape
    (len(mu),) + t.shape. Each mode's log prefactor is formed from Python
    floats, so every row is bit-identical to that mode's mode_var.

    This is the finite-variance gate of every variance and Gram: it raises
    ValueError for g <= 1/2, where the variance is infinite."""
    if not g > 0.5:
        raise ValueError(f"pointwise variances require gamma > 1/2 (infinite variance), got {g}")
    a = 2.0 * g - 1.0
    two_mu = 2.0 * np.asarray(mu, dtype=float).reshape((-1,) + (1,) * np.ndim(t))
    log_pre = [math.log(w) - 2.0 * log_gamma(g) - a * math.log(two_mu_j)
               for two_mu_j, w in zip(two_mu.ravel().tolist(), weight)]
    # log gamma(a, 0) = -inf, so t = 0 gives exactly 0
    return np.exp(np.reshape(log_pre, two_mu.shape) + log_lower_incomplete_gamma(a, two_mu * t))


def stationary_constant(gamma: float) -> float:
    """Gamma(g - 1/2) / (2 sqrt(pi) Gamma(g)), stationary_variance at w = mu = 1.
    The gate of every stationary value: raises ValueError for gamma <= 1/2."""
    if not gamma > 0.5:
        raise ValueError(f"stationary variances require gamma > 1/2, got {gamma}")
    return math.exp(log_gamma(gamma - 0.5) - log_gamma(gamma)) / (2.0 * math.sqrt(math.pi))


def stationary_variance(k: ModeKernel) -> float:
    """Limit of mode_var(k, t) as t -> infinity. A power mu^(1 - 2 gamma)
    beyond the double range raises OverflowError naming mu and gamma."""
    c = stationary_constant(k.gamma)
    try:
        return k.weight * c * k.mu ** (1.0 - 2.0 * k.gamma)
    except OverflowError:
        raise OverflowError(f"stationary variance: mu^(1 - 2 gamma) with mu = {k.mu}, "
                            f"gamma = {k.gamma} overflows") from None


def temporal_matern_limit(gamma: float, kappa: float, h: float) -> float:
    """Long-time limit of the lagged covariance q(t, t+h) for the unit-weight
    mode with decay rate kappa: the stationary variance times the unit
    specfun.matern_cov of the lag with smoothness gamma - 1/2, which is the
    continuous extension at h = 0.
    """
    if not kappa > 0.0:
        raise ValueError(f"temporal_matern_limit requires kappa > 0, got {kappa}")
    return (stationary_variance(ModeKernel(mu=kappa, weight=1.0, gamma=gamma))
            * matern_cov(gamma - 0.5, kappa, 1.0, abs(h)))


def square_function_ratio_closed_form(gamma: float, delta: float) -> float:
    """Ratio of the squared weighted-semigroup time integral to the matching
    power of the decay rate,

        int_0^infty t^{2(g-1-delta)} e^{-2 mu t} dt  /  mu^{1+2delta-2g}
            = Gamma(p) / 2^p,  p = 2 (gamma - delta) - 1,

    which is independent of mu. Raises ValueError unless delta >= 0 and the
    integral converges, gamma > 1/2 + delta."""
    p = 2.0 * (gamma - delta) - 1.0
    if not (delta >= 0.0 and p > 0.0):
        raise ValueError("square_function_ratio_closed_form requires delta >= 0 and "
                         f"gamma > 1/2 + delta, got gamma={gamma}, delta={delta}")
    return gamma_fn(p) / 2.0 ** p
