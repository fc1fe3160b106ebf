"""Scalar special functions: Gamma, log-Gamma, lower incomplete Gamma, K_nu.

Everything here is pure double-precision arithmetic on positive real
arguments, accurate enough to serve as the backbone of the covariance
formulas downstream (Gamma to ~1e-13 relative, incomplete gamma and K_nu
to ~1e-12 over their stated domains). All functions are pure and reentrant.
"""

import math

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
_TINY = 1e-300


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


def _lower_gamma_series(a: float, x: float) -> float:
    """Sum S of the series gamma(a, x) = x^a e^{-x} S, valid for x < a + 1."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total


def _upper_gamma_cf(a: float, x: float) -> float:
    """Continued fraction h of Gamma(a, x) = x^a e^{-x} h (upper), valid for
    x >= a + 1.

    Modified Lentz evaluation of
    h = 1 / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(...))).
    """
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def lower_incomplete_gamma(a: float, x: float) -> float:
    """Lower incomplete gamma function gamma(a, x) = int_0^x u^{a-1} e^{-u} du."""
    if x == 0.0 and a > 0.0:
        return 0.0
    return math.exp(log_lower_incomplete_gamma(a, x))


def log_lower_incomplete_gamma(a: float, x: float) -> float:
    """log gamma(a, x) for a > 0, x > 0; finite where gamma(a, x) itself
    under- or overflows double precision."""
    if not a > 0.0:
        raise ValueError(f"incomplete gamma requires a > 0, got a={a}")
    if not x > 0.0:
        raise ValueError(f"incomplete gamma requires x > 0 (gamma(a, 0) = 0), got x={x}")
    log_pre = a * math.log(x) - x
    if x < a + 1.0:
        return log_pre + math.log(_lower_gamma_series(a, x))
    lg = log_gamma(a)
    return lg + math.log1p(-math.exp(log_pre - lg) * _upper_gamma_cf(a, x))


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
