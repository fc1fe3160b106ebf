"""Special functions: Gamma, log-Gamma, lower incomplete Gamma, K_nu.

Everything here is pure double-precision arithmetic on positive real
arguments, accurate enough to serve as the backbone of the covariance
formulas downstream (Gamma to ~1e-13 relative, incomplete gamma and K_nu
to ~1e-12 over their stated domains). All functions are pure and reentrant.
The lower incomplete gamma and its log take one order a and work
elementwise on numpy arrays of x, with one vectorised implementation that
scalar calls also go through, so an array call returns each scalar call's
value bit for bit; the other functions take scalars.
"""

import math

import numpy as np

__all__ = [
    "gamma_fn",
    "log_gamma",
    "lower_incomplete_gamma",
    "log_lower_incomplete_gamma",
    "bessel_k",
    "matern_cov",
    "GAMMA_OVERFLOW_X",
]

# Gamma(x) overflows double precision just above this argument.
GAMMA_OVERFLOW_X = 171.6

# Lanczos approximation, g = 7, 9 terms (uniform ~1e-13 relative accuracy).
_LANCZOS_G = 7.5
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_MAX_ITER = 500
_EPS = 1e-16
_SERIES_BLOCK = 32
_NEGLIGIBLE_Q = 2.0 ** -60


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    # Recurrence keeps the Lanczos series in its accurate regime.
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    s = _LANCZOS_C[0]
    for i in range(1, 9):
        s += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G
    return _HALF_LOG_2PI + (z + 0.5) * math.log(t) - t + math.log(s)


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0; raises OverflowError past the double-precision range."""
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    if x > GAMMA_OVERFLOW_X:
        raise OverflowError(f"Gamma({x}) overflows double precision (x > {GAMMA_OVERFLOW_X})")
    return math.exp(log_gamma(x))


def _max_terms(a: float) -> int:
    """Term cap of the incomplete-gamma series and continued fraction. Near
    x = a both need a count that grows like sqrt(a): the series about
    8.5 sqrt(a) terms, as its terms fall like e^{-k^2 / (2a)}."""
    return _MAX_ITER + int(12.0 * math.sqrt(a))


def _lower_gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    """Sums S of the series gamma(a, x) = x^a e^{-x} S for a 1-D array of
    x < a + 1.

    The terms x^k / (a (a+1) ... (a+k)) come _SERIES_BLOCK at a time from
    running products and sums along a second axis, and each entry stops at
    its first term below _EPS times its running sum, so its value does not
    depend on the other entries.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    term = total = 1.0 / a
    k = np.arange(1.0, _SERIES_BLOCK + 1.0)
    for start in range(0, _max_terms(a), _SERIES_BLOCK):
        terms = x[:, None] / (a + (start + k))
        terms[:, 0] *= term
        terms = np.cumprod(terms, axis=1)
        sums = terms.copy()
        sums[:, 0] += total
        sums = np.cumsum(sums, axis=1)
        # Terms fall and sums rise (x < a + 1), so once a term is small
        # every later one is, and the last column tells which entries are done.
        small = terms < sums * _EPS
        out[idx] = sums[np.arange(idx.size), small.argmax(axis=1)]
        live = ~small[:, -1]
        if not np.count_nonzero(live):
            return out
        idx, x = idx[live], x[live]
        term, total = terms[live, -1], sums[live, -1]
    out[idx] = total
    return out


def _upper_gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    """Continued fractions h of Gamma(a, x) = x^a e^{-x} h (upper) for a 1-D
    array of x >= a + 1. Each entry stops at its own convergence, so its
    value does not depend on the other entries.

    Modified Lentz evaluation of
    h = 1 / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(...))), started from c = inf.
    For x >= a + 1 its denominators stay above 2 (checked over a in
    [1e-3, 1e3]), so they need no guard against 0.
    """
    b = x + 1.0 - a
    c = math.inf
    d = 1.0 / b
    h = d
    out = np.empty_like(x)
    idx = np.arange(x.size)
    for i in range(1, _max_terms(a)):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h = h * delta
        done = delta == 1.0  # the only double within _EPS of 1
        if np.count_nonzero(done):
            out[idx[done]] = h[done]
            live = ~done
            idx, b, c, d, h = idx[live], b[live], c[live], d[live], h[live]
            if not idx.size:
                return out
    out[idx] = h
    return out


def _log_lower_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """log gamma(a, x) for one order a > 0 and a 1-D array of x >= 0: the
    series below x = a + 1, the complement of the upper continued fraction
    above, and -inf at x = 0."""
    with np.errstate(divide="ignore"):
        out = a * np.log(x) - x  # log of the prefactor x^a e^{-x}
    below = x < a + 1.0
    if below.any():
        out[below] += np.log(_lower_gamma_series(a, x[below]))
        if below.all():
            return out
    above = ~below
    lg = log_gamma(a)
    # 1 - gamma(a, x) / Gamma(a) = q h with h <= 1 here, so below
    # _NEGLIGIBLE_Q the log1p term is under 1e-18 and is dropped
    q = np.exp(out[above] - lg)
    out[above] = lg
    cf = q >= _NEGLIGIBLE_Q
    if cf.any():
        i = above.nonzero()[0][cf]
        out[i] += np.log1p(-q[cf] * _upper_gamma_cf(a, x[i]))
    return out


def _log_lower_gamma_checked(a: float, x, name: str) -> np.ndarray:
    """log gamma(a, x) for one order a > 0 and x >= 0, in the shape of x."""
    a, x = float(a), np.asarray(x, dtype=float)
    if not a > 0.0:
        raise ValueError(f"{name} requires a > 0, got a={a}")
    if not (x >= 0.0).all():
        raise ValueError(f"{name} requires x >= 0, got x={x[~(x >= 0.0)].flat[0]}")
    return _log_lower_gamma(a, x.ravel()).reshape(x.shape)


def lower_incomplete_gamma(a: float, x):
    """Lower incomplete gamma function gamma(a, x) = int_0^x u^{a-1} e^{-u} du
    for a > 0, x >= 0, elementwise over an array of x (a float for a float),
    computed as exp(log_lower_incomplete_gamma(a, x))."""
    out = np.exp(_log_lower_gamma_checked(a, x, "lower_incomplete_gamma"))
    return out if out.ndim else float(out)


def log_lower_incomplete_gamma(a: float, x):
    """log gamma(a, x) for a > 0, x >= 0 (-inf at x = 0), elementwise over an
    array of x (a float for a float); finite where gamma(a, x) itself under-
    or overflows double precision. Scalar and array calls go through one
    implementation, so each entry is bit-identical to its scalar call."""
    out = _log_lower_gamma_checked(a, x, "log_lower_incomplete_gamma")
    return out if out.ndim else float(out)


# Taylor coefficients of 1/Gamma(1+z) around z = 0 (frozen from 50-digit
# arithmetic); used to evaluate the Temme auxiliary functions without
# cancellation for small order.
_INV_GAMMA1P = (
    1.0,
    0.57721566490153286061,
    -0.65587807152025388108,
    -0.042002635034095235529,
    0.16653861138229148950,
    -0.042197734555544336748,
    -0.0096219715278769735621,
    0.0072189432466630995424,
    -0.0011651675918590651121,
    -0.00021524167411495097282,
    0.00012805028238811618615,
    -0.0000201348547807882387,
    -0.0000012504934821426707,
)


def _temme_gammas(mu: float) -> tuple[float, float]:
    """g1 = [1/Gamma(1-mu) - 1/Gamma(1+mu)]/(2 mu), g2 = [1/Gamma(1-mu) + 1/Gamma(1+mu)]/2."""
    if abs(mu) < 0.25:
        c = _INV_GAMMA1P
        m2 = mu * mu
        # odd/even part of the reciprocal-gamma Taylor series
        g1 = -(c[1] + m2 * (c[3] + m2 * (c[5] + m2 * (c[7] + m2 * (c[9] + m2 * c[11])))))
        g2 = c[0] + m2 * (c[2] + m2 * (c[4] + m2 * (c[6] + m2 * (c[8] + m2 * c[10]))))
        return g1, g2
    rp = 1.0 / gamma_fn(1.0 + mu)
    rm = 1.0 / gamma_fn(1.0 - mu)
    return (rm - rp) / (2.0 * mu), (rm + rp) / 2.0


def _bessel_k01_small(mu: float, x: float) -> tuple[float, float]:
    """Temme's series for (K_mu, K_{mu+1}) with |mu| <= 1/2, 0 < x <= 2."""
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < 1e-15 else pimu / math.sin(pimu)
    d = -math.log(0.5 * x)
    e = mu * d
    fact2 = 1.0 if abs(e) < 1e-15 else math.sinh(e) / e
    g1, g2 = _temme_gammas(mu)
    ff = fact * (g1 * math.cosh(e) + g2 * fact2 * d)
    total = ff
    half_x = 0.5 * x
    x2 = half_x * half_x
    # seed terms 0.5 (x/2)^{-mu} Gamma(1+mu) and 0.5 (x/2)^{+mu} Gamma(1-mu)
    p = 0.5 * math.exp(e) / (g2 - mu * g1)
    q = 0.5 * math.exp(-e) / (g2 + mu * g1)
    total1 = p
    c = 1.0
    for i in range(1, _MAX_ITER):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c *= x2 / i
        p /= i - mu
        q /= i + mu
        delta = c * ff
        total += delta
        delta1 = c * (p - i * ff)
        total1 += delta1
        if abs(delta) < abs(total) * _EPS:
            break
    return total, total1 * (2.0 / x)


def _bessel_k01_cf2(mu: float, x: float) -> tuple[float, float]:
    """Steed's CF2 for (K_mu, K_{mu+1}) with |mu| <= 1/2, x > 2."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d
    delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25 - mu * mu
    q = a1
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAX_ITER):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < _EPS:
            break
    h = a1 * h
    pre = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
    k_mu = pre / s
    k_mu1 = k_mu * (mu + x + 0.5 - h) / x
    return k_mu, k_mu1


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), nu >= 0, x > 0.

    Series evaluation below the x = 2 crossover, continued fraction above,
    then stable forward recurrence in the order. Underflows to 0 for
    x beyond ~705 where e^{-x} leaves the double-precision range.
    """
    if not x > 0.0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    if nu < 0.0:
        raise ValueError(f"bessel_k requires nu >= 0, got {nu}")
    if x > 705.0:
        return 0.0
    n = int(nu + 0.5)
    mu = nu - n  # in [-1/2, 1/2]
    if x <= 2.0:
        k_mu, k_mu1 = _bessel_k01_small(mu, x)
    else:
        k_mu, k_mu1 = _bessel_k01_cf2(mu, x)
    for j in range(n):
        k_mu, k_mu1 = k_mu1, k_mu + (2.0 * (mu + j + 1) / x) * k_mu1
    return k_mu


def matern_cov(nu: float, kappa: float, sigma2: float, dist: float) -> float:
    """Matern covariance with smoothness nu, inverse correlation length kappa,
    and variance sigma2, evaluated at separation distance dist.

    The value at dist = 0 is the continuous extension sigma2. Underflows to
    zero at very large kappa*dist.
    """
    if not nu > 0.0:
        raise ValueError(f"matern_cov requires nu > 0, got {nu}")
    if not kappa > 0.0:
        raise ValueError(f"matern_cov requires kappa > 0, got {kappa}")
    if not sigma2 > 0.0:
        raise ValueError(f"matern_cov requires sigma2 > 0, got {sigma2}")
    if dist < 0.0:
        raise ValueError(f"matern_cov requires dist >= 0, got {dist}")
    z = kappa * dist
    # below this threshold every correction term of the small-argument
    # expansion is under double-precision epsilon, and evaluating K_nu
    # directly would overflow for tiny z; return the continuous extension
    z_tiny = min(2.0 * 2.0 ** (-27.0 / nu), 1e-8)
    if z <= z_tiny:
        return sigma2
    if z > 705.0:
        return 0.0
    return sigma2 * math.exp((1.0 - nu) * math.log(2.0) - log_gamma(nu) + nu * math.log(z)) * bessel_k(nu, z)
