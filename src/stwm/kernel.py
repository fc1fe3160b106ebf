"""Per-mode temporal covariance of the solution process and its Gram matrices.

A single eigenmode of the space-time model is the scalar Gaussian process

    Z(t) = w^{1/2} / Gamma(g) * int_0^t (t-s)^{g-1} e^{-mu (t-s)} dB(s),

with decay rate mu > 0, noise weight w > 0 and fractional order g. Its
covariance

    q(s, t) = w / Gamma(g)^2 * int_0^{min(s,t)} [(s-r)(t-r)]^{g-1}
              e^{-mu (s+t-2r)} dr

is computed here: for s = t by the incomplete-gamma closed form, and for
s != t by two routes on the same integral. _lagged_integrals, one fixed
Gauss-Jacobi and Gauss-Legendre rule batched over decay rates, widths and
lags, serves the Gram builder and so every library and CLI covariance;
mode_cov, adaptive quadrature to a QuadratureConfig tolerance, is the
tests' reference and the package's only caller of the adaptive integrator.
Every Gram matrix G[i, j] = q(t_i, t_j) on a TimeGrid comes from
_gram_stack as its upper triangle, through gram_stacks (many modes, the
stacks the sampler factors) or gram (one mode, mirrored by mirror_upper
into the full matrix). Also here:
the stationary (t -> infinity) variance and the Matern-type limit of the
lagged covariance.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate, panel_rules
from .specfun import gamma_fn, log_gamma, log_lower_incomplete_gamma, matern_cov

__all__ = [
    "ModeKernel",
    "TimeGrid",
    "gram",
    "gram_stacks",
    "mirror_upper",
    "mode_cov",
    "mode_var",
    "stationary_constant",
    "stationary_variance",
    "stationary_variances",
    "temporal_matern_limit",
]

# Effective e-folds of integrand kept: contributions further than this many
# e-folds below the integrand maximum are dropped when restricting the
# integration window (safe at double precision).
_EFOLDS = 760.0
# Nodes of _lagged_integrals' Gauss-Jacobi singular panel.
_JACOBI_NODES = 20
_STACK_ENTRIES = 2 ** 16  # largest Gram stack built at once (512 kB), one mode at least
_RULE_ENTRIES = 256  # lagged integrals per rule call, one row's at least
_TILE = 128  # side of the square blocks in which Gram matrices are transposed
_CELL_BLOCK = 32  # cells whose lagged integrals _uniform_upper forms in one product
# log(2^-1075), the double underflow edge: exp rounds to 0 at and below it
_EXP_UNDERFLOW = -745.1332191019412


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


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing, finite time points with t_0 >= 0."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("TimeGrid needs a 1-D, non-empty array of points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("TimeGrid points must be finite")
        if pts[0] < 0.0:
            raise ValueError(f"TimeGrid must start at t >= 0, got {pts[0]}")
        if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
            raise ValueError("TimeGrid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, t_start: float, t_end: float, steps: int) -> "TimeGrid":
        return cls(np.linspace(t_start, t_end, steps + 1))

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def step(self) -> float:
        """Uniform spacing; raises if the grid is not uniform."""
        h = np.diff(self.points)
        if h.size == 0:
            raise ValueError("single-point grid has no step")
        if np.abs(h - h[0]).max() > 1e-12 * h[0]:
            raise ValueError("grid is not uniform")
        return float(h[0])


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


def gram(k: ModeKernel, grid: TimeGrid) -> np.ndarray:
    """Gram matrix G[i, j] = q(t_i, t_j) of one mode, an (n, n) array,
    exactly symmetric, with mode_var diagonal: the one-mode Gram of
    gram_stacks with its upper triangle mirrored (mirror_upper)."""
    G = _gram_stack(k.gamma, [k.mu], [k.weight], grid)
    mirror_upper(G)
    return G[0]


def gram_stacks(gamma: float, mu, weight, grid: TimeGrid):
    """Yield (j0, stack): the Grams of modes j0 .. j0 + B - 1 (order gamma,
    rates mu[j], weights weight[j]) on the grid from one _gram_stack call,
    in consecutive stacks of at most _STACK_ENTRIES entries (one mode at
    least), so memory stays O(n^2) however many modes there are. Each
    member holds its diagonal and upper triangle; its lower triangle is zero."""
    mu, weight = np.asarray(mu, dtype=float), np.asarray(weight, dtype=float)
    size = max(1, _STACK_ENTRIES // grid.n ** 2)
    for j0 in range(0, mu.size, size):
        yield j0, _gram_stack(gamma, mu[j0:j0 + size], weight[j0:j0 + size], grid)


def _gram_stack(g: float, mu, weight, grid: TimeGrid) -> np.ndarray:
    """Upper triangles of the Gram matrices of the modes with decay rates
    mu[j] and weights weight[j], order g, over the grid, as one (J, n, n)
    stack whose lower triangles are zero.

    The diagonals are mode_var, bit for bit, from one incomplete-gamma call.
    Lagged entries come from _lagged_integrals, one fixed Gauss-Jacobi
    and Gauss-Legendre rule with no adaptive step, batched over modes. On a
    uniform grid (any t_0 >= 0, see _uniform_modes) the entries of row i at
    lags 1, 2, ... are that rule's singular first chunk [0, t_0] ([0, h]
    when t_0 = 0), computed for all modes and lags at once
    (_live_integrals), plus the integrals over the cells below t_i, which
    one fixed Gauss-Legendre rule per cell gives for every mode and lag:
    one matrix product per block of cells (_uniform_upper). On other grids
    the rule gives each row's upper-triangle entries of every mode at once.
    Lagged entries agree with TIGHT mode_cov to 1e-12 relative (tested over
    mu in [1e-2, 1e8], gamma in [0.5001, 20]); entries whose factor
    e^{-mu |t - s|} underflows are exactly 0, and modes whose every lagged
    factor underflows get no rule evaluations.

    Every Gram the library factors comes from here, as sampler._factor_psd
    takes it: an entry that overflows raises OverflowError naming the mode's mu
    and w, gamma and the grid end. No diagonal entry (an exponential) is
    negative, and on a zero-variance row |q(s, t)| <= sqrt(q(s, s) q(t, t))
    keeps every entry far below cholesky_psd's tolerance.
    """
    mu, weight = np.asarray(mu, dtype=float), np.asarray(weight, dtype=float)
    pts = grid.points
    n = pts.size
    G = np.zeros((mu.size, n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are caught below
        try:  # before the diagonals, whose incomplete-gamma sums grow like sqrt(gamma)
            scale = weight / gamma_fn(g) ** 2
        except OverflowError:
            raise OverflowError(f"Gram scale: Gamma(gamma)^2 with gamma = {g} overflows") from None
        G.reshape(mu.size, -1)[:, ::n + 1] = _variance_rows(g, mu, weight, pts)  # the diagonals
        i0 = 1 if pts[0] == 0.0 else 0  # rows below i0 (t = 0) stay zero
        h, uniform = _uniform_modes(g, mu, pts)
        if uniform.any():
            # a zero scale leaves a mode's lagged entries to the loop below
            _uniform_upper(G, g, mu, np.where(uniform, scale, 0.0), float(pts[i0]), h, i0)
        if not uniform.all():
            # Lags grow along a row, so each mode's surviving prefactors are
            # a prefix.
            for i in range(i0, n - 1):
                lags = pts[i + 1:] - pts[i]
                pre = scale[:, None] * np.exp(-mu[:, None] * lags)
                live = (pre > 0.0) & ~uniform[:, None]
                if live.any():
                    G[:, i, i + 1:][live] = pre[live] * _live_integrals(g, mu, pts[i], lags, live)
    # entries are >= 0 and max propagates nan, so a member's maximum is
    # finite exactly when all its entries are
    bad = np.flatnonzero(~np.isfinite(G.max(axis=(1, 2))))
    if bad.size:
        b = bad[0]
        raise OverflowError(f"Gram of the mode with mu = {mu[b]}, w = {weight[b]}, gamma = {g} "
                            f"overflows on the grid ending at t = {pts[-1]}")
    return G


def _uniform_modes(g: float, mu: np.ndarray, pts: np.ndarray) -> tuple[float, np.ndarray]:
    """(h, uniform): the step h = t_1 - t_0 and the (J,) mask of the modes of
    order g and rates mu whose Grams on the points pts _uniform_upper builds.

    _uniform_upper puts t_k at t_0 + k h. A point off by d there moves an
    entry's factor e^{-mu lag} by about mu d relative, where only rates
    below 745 / h leave a lagged entry at all, and the integral's powers
    u^{g-1} by about g d / h. A mode takes that path when d times their sum
    is at most 1e-13, as every mode does on a grid whose points are exact
    multiples of h; the others take the exact lags. The choice is made per
    mode, so a mode's Gram does not depend on the stack it is built in."""
    if pts.size < 2:
        return 0.0, np.zeros(mu.shape, dtype=bool)
    h = float(pts[1] - pts[0])
    off = float(np.abs(pts - pts[0] - h * np.arange(pts.size)).max())
    return h, off * (np.minimum(mu, -_EXP_UNDERFLOW / h) + g / h) <= 1e-13


def mirror_upper(G: np.ndarray):
    """Copy the upper triangles of the (B, n, n) stack G onto its lower
    triangles in square tiles of side _TILE, so every transposed read stays
    within one tile: a tile below the diagonal is the transpose of its
    mirror tile, and a diagonal tile is mirrored row by row within it."""
    n = G.shape[1]
    for i0 in range(0, n, _TILE):
        i1 = min(i0 + _TILE, n)
        for j0 in range(i1, n, _TILE):
            j1 = min(j0 + _TILE, n)
            G[:, j0:j1, i0:i1] = G[:, i0:i1, j0:j1].transpose(0, 2, 1)
        for r in range(i0 + 1, i1):
            G[:, r, i0:r] = G[:, i0:r, r]


def _live_integrals(g: float, mu: np.ndarray, width: float, lags: np.ndarray,
                    live: np.ndarray) -> np.ndarray:
    """_lagged_integrals of order g over [0, width] at the (mode j, lag l)
    pairs where live[j, l] is set: decay rate mu[j], lag lags[l]. The pairs
    go in calls of at most max(len(lags), _RULE_ENTRIES), so the rule's
    node arrays stay O(n) in size, as for one mode."""
    mu_live, lags_live = (np.broadcast_to(a, live.shape)[live] for a in (mu[:, None], lags))
    size = max(lags.size, _RULE_ENTRIES)
    return np.concatenate([_lagged_integrals(g, mu_live[s:s + size], width, lags_live[s:s + size])
                           for s in range(0, mu_live.size, size)])


def _uniform_upper(G: np.ndarray, g: float, mu: np.ndarray, scale: np.ndarray, u0: float,
                   h: float, i0: int):
    """Upper triangles of rows i0, i0 + 1, ... (times u0, u0 + h, ...) of
    the (J, n, n) stack G on a uniform grid, written in place for all modes
    at once, one block of _CELL_BLOCK cells at a time. A mode whose every
    prefactor scale e^{-mu l h} is 0 (a zero scale among them) gets zeros
    or nothing."""
    n = G.shape[1]
    m = n - 1 - i0                  # cells [u0 + c h, u0 + (c+1) h], c < m
    lag_steps = np.arange(1, m + 1)
    pre = scale[:, None] * np.exp(-mu[:, None] * h * lag_steps)
    n_lags = np.count_nonzero(pre, axis=1)  # lags whose prefactor survives: a prefix
    live = np.flatnonzero(n_lags)
    if live.size == 0:
        return
    # the modes from the first live one to the last: any between with no
    # live lag have zero prefactors and get zeros
    lo, hi = live[0], live[-1] + 1
    mu_max, k_max = float(mu[live].max()), int(n_lags.max())
    G, mu, pre = G[lo:hi], mu[lo:hi], pre[lo:hi, :k_max]
    # first[j, l - 1] is mode j's singular chunk at lag l, or 0 where the
    # prefactor underflows; row i0 has it alone
    first = np.zeros(pre.shape)
    first[pre > 0.0] = _live_integrals(g, mu, u0, h * lag_steps[:k_max], pre > 0.0)
    G[:, i0, i0 + 1:i0 + 1 + k_max] = pre * first
    if m < 2:
        return
    # Each cell's rule is graded towards its left end, below widths 1/mu and
    # u0 (the distance to u = 0), for the largest live mu: its edges include
    # every smaller mu's. Equal node layouts make the integrand on cell c at
    # lag l h a product of per-node tables at cells c and c + l; only the
    # exponential factor has a mode axis.
    levels = max(0, math.ceil(math.log2(max(mu_max * h, h / u0))))
    x, w = panel_rules(np.concatenate([[0.0], h * 2.0 ** -np.arange(levels, -1.0, -1.0)]))
    x = (u0 + h * np.arange(m))[:, None] + x.reshape(-1)
    b = min(_CELL_BLOCK, m - 1)  # cells per block: cells 0 .. m - 2 feed later rows
    # u_pow[c] = x^{g-1} at cell c's nodes; the b - 1 zero rows past the
    # last cell let every block's product take whole columns
    u_pow = np.zeros((m + b - 1, x.shape[1]))
    np.power(x, g - 1.0, out=u_pow[:m])
    # u_pow_exp[j, c] = u_pow e^{-2 mu_j x} w at cells c < m - 1, formed in
    # one buffer of the table's size
    u_pow_exp = np.multiply(-2.0 * mu[:, None, None], x[None, :m - 1])
    del x
    # exp is 0 at and below the underflow edge, and slow there: skipped
    above = u_pow_exp > _EXP_UNDERFLOW
    np.exp(u_pow_exp, out=u_pow_exp, where=above)
    np.putmask(u_pow_exp, ~above, 0.0)
    del above
    u_pow_exp *= u_pow[:m - 1]
    u_pow_exp *= w.reshape(-1)
    # acc[j, l - 1] is mode j's sum of the lag-l cell integrals over the
    # cells below the next row, added cell by cell in increasing order.
    k0 = min(k_max, m - 1)
    acc = np.zeros((hi - lo, k0))
    buf = np.empty((hi - lo) * b * (b + k0 - 1))  # every block's product, in turn
    for c0 in range(0, m - 1, b):
        c1 = min(c0 + b, m - 1)
        C, K = c1 - c0, min(k_max, m - 1 - c0)  # rows i0 + c0 + 1 .. i0 + c1 have at most K lags
        A = C + K - 1
        # P[j, i, a] = sum_q u_pow_exp[j, c0 + i, q] u_pow[c0 + 1 + a, q], so
        # cell c0 + i's integral at lag l is P[j, i, i + l - 1]: the lags of
        # each cell lie along a diagonal of P, which S views as a row.
        P = buf[:(hi - lo) * C * A].reshape(-1, A)
        np.matmul(u_pow_exp[:, c0:c1].reshape(-1, u_pow.shape[1]), u_pow[c0 + 1:c1 + K].T, out=P)
        S = _diagonals(P.reshape(-1, C, A), K)
        S[:, 0] += acc[:, :K]
        np.cumsum(S, axis=1, out=S)     # S[j, i] now sums cells up to c0 + i
        acc = S[:, -1, :min(k_max, m - 1 - c1)].copy()
        # rows r0 .. r0 + C - 1 have at least k lagged entries, row r0 + i
        # n - 1 - r0 - i; first and pre apply to those alone
        r0 = i0 + c0 + 1
        k = min(K, n - r0 - C)
        tri = np.arange(k, K) < (n - 1 - r0 - np.arange(C))[:, None]
        Gv = _diagonals(G[:, r0:r0 + C, r0 + 1:], K)
        for part, where in ((slice(0, k), True), (slice(k, K), tri)):
            np.add(S[:, :, part], first[:, None, part], out=S[:, :, part], where=where)
            np.multiply(S[:, :, part], pre[:, None, part], out=Gv[:, :, part], where=where)


def _diagonals(a: np.ndarray, k: int) -> np.ndarray:
    """View of the (B, R, *) array a whose [b, i, l] entry is a[b, i, i + l],
    l < k, read along the rows. Entries with i + l past a row's end alias the
    next rows; a caller reads or writes them only where it knows they are its own."""
    s0, s1, s2 = a.strides
    return as_strided(a, shape=(a.shape[0], a.shape[1], k), strides=(s0, s1 + s2, s2))


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


def stationary_variances(gamma: float, mu, weight) -> np.ndarray:
    """Limits of mode_var as t -> infinity of modes j = 0, 1, ... with decay
    rates mu[j] and weights weight[j], w c mu^(1 - 2 gamma) with c the
    stationary_constant, each formed in log space from Python floats, so it
    is finite wherever the value is, however large the power alone. The
    first value beyond the double range raises OverflowError naming its w,
    mu and gamma."""
    log_c = math.log(stationary_constant(gamma))
    out = []
    for mu_j, w in zip(np.asarray(mu, dtype=float).tolist(),
                       np.asarray(weight, dtype=float).tolist()):
        try:
            out.append(math.exp(math.log(w) + log_c + (1.0 - 2.0 * gamma) * math.log(mu_j)))
        except OverflowError:
            raise OverflowError(f"stationary variance: w mu^(1 - 2 gamma) with w = {w}, "
                                f"mu = {mu_j}, gamma = {gamma} overflows") from None
    return np.array(out)


def stationary_variance(k: ModeKernel) -> float:
    """The stationary variance of mode k: stationary_variances of it alone."""
    return float(stationary_variances(k.gamma, [k.mu], [k.weight])[0])


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
