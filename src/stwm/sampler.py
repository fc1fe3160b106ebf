"""Exact Gaussian sampling of mode paths and assembled space-time fields.

Sampling is exact in law on the time grid: each mode's Gram matrix of true
covariances is factorized (with an escalating-jitter Cholesky, since grids
containing t = 0 make the matrix singular by construction) and applied to
independent standard normals. All J modes share gamma and the grid, so
their Gram matrices are built together: mode_grams yields them as (B, n, n)
stacks of consecutive modes, each of at most _STACK_ENTRIES entries (gram
is the one-mode case), and each stack is factored by one stacked LAPACK
call (cholesky_psd is the one-matrix case, and returns the factor together
with the jitter it needed). Normals come from streams in format v4
(STREAM_FORMAT): one SFC64 stream per mode, seeded by numpy's SeedSequence
spawn rule from (master seed, mode index), read sequentially by numpy's
ziggurat normal sampler, path after path. A mode draws normals only for its
live indices, those of positive variance: mode_var grows with t, so they
are a suffix of the grid, and the dead ones (t = 0, or a variance that
underflows) stay exact zeros and draw nothing. Only the paths asked for are
drawn, 256 paths at a time, and each such block of a group of modes with
one live suffix goes through one stacked product.
For a fixed numpy build and BLAS thread count output is bit-identical
across reruns and path-count prefixes. Across BLAS thread counts it is
bit-identical only on short grids: Gram matrices are, but LAPACK potrf
threads the factorization of long ones (with OpenBLAS 0.3.31 on 2 cores,
factors under 1 and 2 threads first differ at 128 points).

A second, alternative sampler realizes the factorization construction: draw
the lower-order process on a fine uniform grid, then apply the singular
fractional-integration operator by product integration (the weight
(t-s)^{delta-1} e^{-mu(t-s)} is integrated exactly against a piecewise
constant path on every cell).
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import ModeKernel, _lagged_integrals, _variance_rows
from .quadrature import panel_rules
from .specfun import gamma_fn, lower_incomplete_gamma
from .spectral import EigenBasis, SpectralModel, as_points, evaluate_basis, mode_params

__all__ = [
    "TimeGrid",
    "FieldSample",
    "SeedSpec",
    "CholeskyError",
    "gram",
    "mode_grams",
    "cholesky_psd",
    "sample_modes",
    "sample_field",
    "assemble_field",
    "fractional_convolution",
    "factorized_sample",
    "factorized_covariance",
]


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


@dataclass(frozen=True)
class SeedSpec:
    """Master seed of the normal streams (stream format v4, see STREAM_FORMAT).

    Mode j (0-based) draws from the SFC64 stream seeded by
    SeedSequence(master, spawn_key=(j,)), which is child j of
    SeedSequence(master).spawn, turned into standard normals by numpy's
    Generator.standard_normal (a ziggurat, so the normals have no fixed
    bound). It draws only for its live indices, the suffix of the grid where
    its variance is positive, and reads them path-major: with n_live of
    them, path p takes normals p * n_live .. (p + 1) * n_live - 1, and a mode
    with none draws nothing. For a fixed numpy build and BLAS thread count
    an identical SeedSpec yields bit-identical output (across BLAS thread
    counts only on short grids; see the module docstring), and the first m
    of n paths equal an m-path run.
    """

    master: int

    def __post_init__(self):
        if not 0 <= self.master < 2 ** 64:
            raise ValueError(f"master seed must be a 64-bit unsigned integer, got {self.master}")


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Sampled field values on a (time x space) lattice, zero at t = 0.

    Arrays are frozen: samples are safe to share across threads."""

    times: TimeGrid
    space_points: np.ndarray  # (n_points, d), one point per row as spectral.as_points gives
    values: np.ndarray  # (n_paths, n_times, n_points)
    seed_record: tuple | None = None  # (master seed, first path index)

    def __post_init__(self):
        pts, vals = np.shape(self.space_points), np.shape(self.values)
        if len(pts) != 2 or len(vals) != 3 or pts[0] != vals[2]:
            raise ValueError(f"space_points must have shape (n_points, d) to match values of shape "
                             f"(n_paths, n_times, n_points), got {pts} and {vals}")
        for arr in (self.space_points, self.values):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


class CholeskyError(np.linalg.LinAlgError):
    """Matrix not PSD even after the maximum jitter escalation."""


_MAX_JITTER_STEPS = 8
_PATH_BLOCK = 256  # paths per BLAS call in sample_modes
_STACK_ENTRIES = 2 ** 16  # largest Gram stack built at once (512 kB), one mode at least
_RULE_ENTRIES = 256  # lagged integrals per rule call, one row's at least
_TILE = 128  # side of the square blocks in which Gram matrices are transposed

STREAM_FORMAT = ("v4: SFC64 seeded by SeedSequence(master, spawn_key=(mode index,)), numpy "
                 "Generator.standard_normal (ziggurat), live indices only (the suffix of "
                 "positive variance), path-major: path p takes normals [p*n_live, (p+1)*n_live)")


def _mode_stream(master: int, mode: int):
    """The normal stream of one mode in stream format v4 (see
    STREAM_FORMAT), at its start: SFC64 seeded by child `mode` of
    SeedSequence(master). numpy.random is reached only here, when a stream
    is built, so importing the sampler does not load it."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(master, spawn_key=(mode,))))


def _first_live(diag: np.ndarray) -> np.ndarray:
    """Start of the live suffix of each factor diagonal along the last axis
    of diag: the index of its first positive entry, or its length when
    there is none. A factor's diagonal is positive exactly where its Gram's
    is, and mode_var grows with t, so every later index is live too; a dead
    index inside the suffix would have a zero factor column, and its normal
    would add nothing."""
    live = diag > 0.0
    return np.where(live.any(axis=-1), live.argmax(axis=-1), diag.shape[-1])


def gram(k: ModeKernel, grid: TimeGrid) -> np.ndarray:
    """Gram matrix G[i, j] = q(t_i, t_j) of one mode, an (n, n) array,
    symmetric, with mode_var diagonal: the one-mode case of the stacked
    builder _gram_stack."""
    return _gram_stack(k.gamma, [k.mu], [k.weight], grid)[0]


def mode_grams(model: SpectralModel, grid: TimeGrid):
    """Yield (j0, stack) for consecutive chunks of modes that cover 1..J:
    stack is the (B, n, n) array of the Gram matrices of modes j0 + 1, ...,
    j0 + B, built by one _gram_stack call, with at most _STACK_ENTRIES
    entries (one mode at least), so memory stays O(n^2) however many modes
    there are."""
    size = max(1, _STACK_ENTRIES // grid.n ** 2)
    ks = [mode_params(model, j) for j in range(1, model.J + 1)]
    for j0 in range(0, model.J, size):
        chunk = ks[j0:j0 + size]
        yield j0, _gram_stack(model.gamma, [k.mu for k in chunk], [k.weight for k in chunk], grid)


def _gram_stack(g: float, mu, weight, grid: TimeGrid) -> np.ndarray:
    """Gram matrices of the modes with decay rates mu[j] and weights
    weight[j], order g, over the grid, as one (J, n, n) stack.

    The diagonals are mode_var, bit for bit, from one incomplete-gamma call.
    Lagged entries come from kernel._lagged_integrals, one fixed Gauss-Jacobi
    and Gauss-Legendre rule with no adaptive step, batched over modes. On a
    uniform grid (any t_0 >= 0) the entries of row i at lags 1, 2, ... are
    that rule's singular first chunk [0, t_0] ([0, h] when t_0 = 0),
    computed for all modes and lags at once (_live_integrals), plus the
    integrals over the cells below t_i, which one fixed Gauss-Legendre rule
    per cell gives for every mode and lag in one matrix product per row. On
    other grids the rule gives each row's upper-triangle entries of every
    mode at once.
    Rows fill the upper triangles in place, which are copied onto the lower
    triangles at the end in square tiles (_mirror_upper). Lagged entries
    agree with TIGHT mode_cov to 1e-12 relative (tested over mu in
    [1e-2, 1e8], gamma in [0.5001, 20]); entries whose factor
    e^{-mu |t - s|} underflows are exactly 0, and modes whose every lagged
    factor underflows get no rule evaluations.
    """
    mu, weight = np.asarray(mu, dtype=float), np.asarray(weight, dtype=float)
    pts = grid.points
    n = pts.size
    G = np.zeros((mu.size, n, n))
    G.reshape(mu.size, -1)[:, ::n + 1] = _variance_rows(g, mu, weight, pts)  # the diagonals
    try:
        scale = weight / gamma_fn(g) ** 2
    except OverflowError:
        raise OverflowError(f"Gram scale: Gamma(gamma)^2 with gamma = {g} overflows") from None
    i0 = 1 if pts[0] == 0.0 else 0  # rows below i0 (t = 0) stay zero
    try:
        h = grid.step
    except ValueError:
        # Lags grow along a row, so each mode's surviving prefactors are a
        # prefix.
        for i in range(i0, n - 1):
            lags = pts[i + 1:] - pts[i]
            pre = scale[:, None] * np.exp(-mu[:, None] * lags)
            live = pre > 0.0
            if live.any():
                G[:, i, i + 1:][live] = pre[live] * _live_integrals(g, mu, pts[i], lags, live)
    else:
        _uniform_upper(G, g, mu, scale, float(pts[i0]), h, i0)
    _mirror_upper(G)
    return G


def _mirror_upper(G: np.ndarray):
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
    """kernel._lagged_integrals of order g over [0, width] at the (mode j,
    lag l) pairs where live[j, l] is set: decay rate mu[j], lag lags[l]. The
    pairs go in calls of at most max(len(lags), _RULE_ENTRIES), so the
    rule's node arrays stay O(n) in size, as for one mode."""
    mu_live, lags_live = (np.broadcast_to(a, live.shape)[live] for a in (mu[:, None], lags))
    size = max(lags.size, _RULE_ENTRIES)
    return np.concatenate([_lagged_integrals(g, mu_live[s:s + size], width, lags_live[s:s + size])
                           for s in range(0, mu_live.size, size)])


def _uniform_upper(G: np.ndarray, g: float, mu: np.ndarray, scale: np.ndarray, u0: float,
                   h: float, i0: int):
    """Upper triangles of rows i0, i0 + 1, ... (times u0, u0 + h, ...) of
    the (J, n, n) stack G on a uniform grid, written in place one row at a
    time for all modes."""
    m = G.shape[1] - 1 - i0         # cells [u0 + c h, u0 + (c+1) h], c < m
    lag_steps = np.arange(1, m + 1)
    pre = scale[:, None] * np.exp(-mu[:, None] * h * lag_steps)
    n_lags = np.count_nonzero(pre, axis=1)  # lags whose prefactor survives: a prefix
    live = np.flatnonzero(n_lags)
    if live.size == 0:
        return
    rows = slice(None) if live.size == mu.size else live
    k_max = int(n_lags.max())
    mu, pre = mu[live], pre[live, :k_max]
    # first[j, l - 1] is mode j's singular chunk at lag l, or 0 where the
    # prefactor underflows
    first = np.zeros(pre.shape)
    first[pre > 0.0] = _live_integrals(g, mu, u0, h * lag_steps[:k_max], pre > 0.0)
    # Each cell's rule is graded towards its left end, below widths 1/mu and
    # u0 (the distance to u = 0), for the largest live mu: its edges include
    # every smaller mu's. Equal node layouts make the integrand on cell c at
    # lag l h a product of per-node tables at cells c and c + l; only the
    # exponential factor has a mode axis.
    levels = max(0, math.ceil(math.log2(max(float(mu.max()) * h, h / u0))))
    x, w = panel_rules(np.concatenate([[0.0], h * 2.0 ** -np.arange(levels, -1.0, -1.0)]))
    x = (u0 + h * np.arange(m))[:, None] + x.reshape(-1)
    u_pow = x ** (g - 1.0)
    # u_pow_exp = u_pow e^{-2 mu x} w, formed in one buffer of the table's size
    u_pow_exp = np.multiply(-2.0 * mu, x[:, :, None])
    np.exp(u_pow_exp, out=u_pow_exp)
    u_pow_exp *= u_pow[:, :, None]
    u_pow_exp *= w.reshape(-1, 1)
    # acc[l - 1, j] is mode j's sum of the lag-l cell integrals over the
    # cells below the current row, added cell by cell in increasing order.
    acc = np.zeros((k_max, mu.size))
    for c in range(m):
        r, k = i0 + c, min(k_max, m - c)
        G[rows, r, r + 1:r + 1 + k] = pre[:, :k] * (first[:, :k] + acc[:k].T)
        k = min(k_max, m - 1 - c)
        acc[:k] += u_pow[c + 1:c + 1 + k] @ u_pow_exp[c]


def cholesky_psd(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower-triangular factor of a symmetric PSD matrix, escalating a tiny
    diagonal jitter when needed. Returns (L, jitter), jitter being the
    diagonal shift the factorization applied (0.0 when none).

    The symmetric part (A + A^T) / 2 is factorized. Indices with zero
    variance, wherever they sit, give zero rows and columns of the factor.
    A matrix with an infinite or nan entry, or one that is not symmetric to
    1e-12 (1 + max |A|), raises ValueError; a matrix that is not PSD raises
    CholeskyError. The argument is never written: the symmetric part, zeroed
    dead rows and a jittered diagonal go to a working copy, made only when
    one of them is needed. This is the one-matrix case of _factor_psd.

    The matrix handed to LAPACK is exactly symmetric, so its transpose is
    the same matrix. numpy copies a C-ordered input into LAPACK's
    column-major buffer one strided column at a time, but the transposed
    view is column-major already and is copied in contiguous runs. potrf
    gets the same numbers either way, so at any BLAS thread count the factor
    is bit-identical to that of the C-ordered matrix."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    L, jitter = _factor_psd(arr[None], owned=False)
    return L[0], float(jitter[0])


def _factor_psd(arr: np.ndarray, owned: bool) -> tuple[np.ndarray, np.ndarray]:
    """cholesky_psd of every matrix of the (B, n, n) float stack arr, with
    every check made per member. Returns the (B, n, n) stack of factors and
    the (B,) array of jitters. A defect in any member raises as cholesky_psd
    raises on that member.

    The stack is factored by one stacked LAPACK call. If that fails, every
    member escalates its own jitter, from its own diagonal as it was before
    its dead rows were zeroed, and its factor overwrites it in the working
    stack. When owned is set, the caller gives arr up: symmetric parts,
    zeroed dead rows, jittered diagonals and fallback factors are written
    into it, so no second stack is made beside it. When it is not, arr is
    copied before the first such write."""
    B = len(arr)
    with np.errstate(invalid="ignore"):
        asym = 0.5 * _max_asymmetry(arr)  # asym = max |A - (A + A^T) / 2|
    if not math.isfinite(float(asym.max(initial=0.0))):
        raise ValueError("matrix has non-finite entries")
    scale = np.maximum(arr.max(axis=(1, 2), initial=0.0), -arr.min(axis=(1, 2), initial=0.0))
    if np.any(asym > 0.5e-12 * (1.0 + scale)):
        raise ValueError("matrix is not symmetric")
    sym = arr  # the stack of exactly symmetric matrices to factor
    for b in np.flatnonzero(asym):
        if not owned:
            sym, owned = arr.copy(), True
        np.add(arr[b], arr[b].T, out=sym[b])
        sym[b] *= 0.5

    # Zero-variance indices (e.g. grid points at t = 0) factor to zero rows:
    # they get a unit diagonal and no off-diagonal entries for the
    # factorization, and their rows of the factor are zeroed after it.
    diag = sym.diagonal(0, 1, 2).copy()
    if np.any(diag < 0.0):
        raise CholeskyError("negative diagonal entry; matrix is not PSD")
    dead_b, dead_i = np.nonzero(diag == 0.0)  # member and index of each dead row
    if dead_b.size:
        if np.any(np.abs(sym[dead_b, dead_i]).max(axis=1) > 1e-12 * (1.0 + scale[dead_b])):
            raise CholeskyError("zero-diagonal row has nonzero off-diagonal entries; not PSD")
        if not owned:
            sym, owned = sym.copy(), True
        sym[dead_b, dead_i] = 0.0
        sym[dead_b, :, dead_i] = 0.0
        sym[dead_b, dead_i, dead_i] = 1.0

    try:
        L = np.linalg.cholesky(sym.transpose(0, 2, 1))  # sym is exactly symmetric: see cholesky_psd
        jitter = np.zeros(B)
    except np.linalg.LinAlgError:
        if not owned:
            sym = sym.copy()
        L, jitter = sym, np.empty(B)
        for b in range(B):
            L[b], jitter[b] = _jittered_factor(sym[b], diag[b])
    L[dead_b, dead_i] = 0.0
    return L, jitter


def _jittered_factor(sym: np.ndarray, diag: np.ndarray) -> tuple[np.ndarray, float]:
    """Factor of the exactly symmetric matrix sym, with dead rows already
    unit, escalating a jitter on the live indices of its original diagonal
    diag, which is written into sym's diagonal. Returns (L, jitter)."""
    live = np.flatnonzero(diag)
    jitter = 0.0
    for step in range(_MAX_JITTER_STEPS + 2):
        try:
            return np.linalg.cholesky(sym.T), jitter
        except np.linalg.LinAlgError:
            if step > _MAX_JITTER_STEPS:
                raise CholeskyError(
                    f"matrix not PSD after jitter escalation up to {jitter}") from None
            # an all-dead matrix is the identity and never gets here
            jitter = 1e-14 * float(diag.sum()) / live.size * 10.0 ** step
            sym[live, live] = diag[live] + jitter
    raise CholeskyError("unreachable")  # pragma: no cover


def _max_asymmetry(arr: np.ndarray) -> np.ndarray:
    """max |A - A^T| of every matrix A of the (B, n, n) stack arr, as a (B,)
    array, taken over pairs of _TILE-sided tiles A[I, J] and A[J, I]
    (I <= J), so every transposed read stays within one tile. A diagonal
    tile's difference A[I, I] - A[I, I]^T is antisymmetric to the bit,
    because fl(a - b) = -fl(b - a), so its largest entry is its largest
    magnitude. An infinite or nan entry of any member, in any tile, makes
    its tile pair's maximum inf or nan, and the maxima are returned at once.
    Tile differences of all members are written to the front of one scratch
    buffer of B min(n, _TILE)^2 entries."""
    B, n = arr.shape[:2]
    scratch = np.empty(B * min(n, _TILE) ** 2)
    worst = np.zeros(B)
    for i0 in range(0, n, _TILE):
        for j0 in range(i0, n, _TILE):
            a, b = arr[:, i0:i0 + _TILE, j0:j0 + _TILE], arr[:, j0:j0 + _TILE, i0:i0 + _TILE]
            d = np.subtract(a, b.transpose(0, 2, 1), out=scratch[:a.size].reshape(a.shape))
            m = (d if i0 == j0 else np.abs(d, out=d)).max(axis=(1, 2))
            if not math.isfinite(float(m.max())):
                return m
            np.maximum(worst, m, out=worst)
    return worst


def sample_modes(model: SpectralModel, grid: TimeGrid, n_paths: int, seed: SeedSpec) -> np.ndarray:
    """Sample mode paths, exact in law on the grid.

    Returns an array of shape (n_paths, J, n_times). Values at any t = 0 grid
    point, and wherever a mode's variance underflows to 0, are exactly zero.
    The modes' Gram matrices come in stacks from mode_grams, and each stack
    is factored in place by one stacked _factor_psd call, as cholesky_psd
    factors each member. Each mode owns one stream, read 256 paths at a time
    for its live indices only, so output depends only on the SeedSpec (for a
    fixed numpy build and BLAS thread count).
    """
    if grid.points[-1] > model.T:
        raise ValueError(f"grid end {grid.points[-1]} exceeds the model horizon T={model.T}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    # modes per product: their normals for one block of paths fill at most
    # _STACK_ENTRIES entries (one mode at least)
    group = max(1, _STACK_ENTRIES // (_PATH_BLOCK * grid.n))
    out = np.empty((n_paths, model.J, grid.n))
    for j0, stack in mode_grams(model, grid):
        L, _ = _factor_psd(stack, owned=True)  # the stack is ours
        first = _first_live(L.diagonal(0, 1, 2))
        # runs of consecutive modes with one live suffix, cut into groups
        starts = np.flatnonzero(np.diff(first, prepend=-1))
        for a, end in zip(starts, [*starts[1:], len(L)]):
            for g0 in range(a, end, group):
                _sample_group(out, L[g0:min(g0 + group, end)], int(first[a]), j0 + g0, seed.master)
    return out


def _sample_group(out: np.ndarray, L: np.ndarray, i: int, j0: int, master: int):
    """Write the paths of modes j0 .. j0 + B - 1, whose factors make the
    (B, n, n) stack L and whose live indices are [i, n), into
    out[:, j0:j0 + B], one 256-path block at a time.

    Each block's normals, n - i per path and mode, go to one (B, 256, n - i)
    buffer, and one stacked product by L[:, :, i:]^T writes them, times the
    factors, straight into out; the factors' rows at dead indices are zero,
    and so are the values there. Modes with no live index (i = n) draw
    nothing and are zero. Products go in whole blocks of paths so every one
    is a BLAS call of one shape: BLAS may pick another kernel, and round
    differently, for another row count, and a path's values must not depend
    on it. The rows that pad the last block are 0, and their products are
    dropped."""
    (n_paths, _, n), B = out.shape, len(L)
    if i == n:
        out[:, j0:j0 + B] = 0.0
        return
    streams = [_mode_stream(master, j) for j in range(j0, j0 + B)]
    LT = L[:, :, i:].transpose(0, 2, 1)
    Z = np.empty((B, _PATH_BLOCK, n - i))
    for p0 in range(0, n_paths, _PATH_BLOCK):
        rows = min(_PATH_BLOCK, n_paths - p0)
        Z[:, rows:] = 0.0
        for z, stream in zip(Z, streams):
            stream.standard_normal(out=z[:rows])
        paths = out[p0:p0 + rows, j0:j0 + B].transpose(1, 0, 2)
        if rows == _PATH_BLOCK:
            np.matmul(Z, LT, out=paths)  # BLAS writes rows J * n apart
        else:
            paths[...] = np.matmul(Z, LT)[:, :rows]


def assemble_field(mode_paths: np.ndarray, basis: EigenBasis, space_points,
                   times: TimeGrid | None = None, seed_record: tuple | None = None) -> FieldSample:
    """Assemble field values sum_j Z_j(t) e_j(x) from mode paths of shape
    (n_paths, J, n_times). Linear in mode_paths."""
    mode_paths = np.asarray(mode_paths, dtype=float)
    if mode_paths.ndim != 3:
        raise ValueError(f"mode_paths must have shape (n_paths, J, n_times), got {mode_paths.shape}")
    if mode_paths.shape[1] != basis.J:
        raise ValueError(f"mode count {mode_paths.shape[1]} does not match basis J={basis.J}")
    pts = as_points(space_points, basis.d)
    E = evaluate_basis(basis, pts)  # (P, J)
    values = np.swapaxes(mode_paths, 1, 2) @ E.T
    if times is None:
        times = TimeGrid(np.arange(mode_paths.shape[2], dtype=float))
    return FieldSample(times=times, space_points=pts, values=values, seed_record=seed_record)


def sample_field(model: SpectralModel, grid: TimeGrid, space_points, n_paths: int,
                 seed: SeedSpec) -> FieldSample:
    """Sample mode paths and assemble them on the given spatial points."""
    paths = sample_modes(model, grid, n_paths, seed)
    return assemble_field(paths, model.basis, space_points, times=grid,
                          seed_record=(seed.master, 0))


# ---------------------------------------------------------------------------
# factorization-method sampler
# ---------------------------------------------------------------------------

def _frac_weights(delta: float, mu: float, h: float, n_cells: int) -> np.ndarray:
    """Exact cell integrals of the singular kernel: W[l] = (1/Gamma(delta))
    int_{l h}^{(l+1) h} u^{delta-1} e^{-mu u} du."""
    edges = h * np.arange(n_cells + 1)
    if mu == 0.0:
        pows = edges ** delta
        return (pows[1:] - pows[:-1]) / gamma_fn(delta + 1.0)
    lower = lower_incomplete_gamma(delta, mu * edges)
    return (lower[1:] - lower[:-1]) * mu ** -delta / gamma_fn(delta)


def fractional_convolution(values: np.ndarray, delta: float, mu: float, grid: TimeGrid) -> np.ndarray:
    """Apply the discrete singular convolution operator

        [B f](t_j) = (1/Gamma(delta)) int_0^{t_j} (t_j - s)^{delta-1}
                     e^{-mu (t_j - s)} f(s) ds

    by product integration: f is held piecewise constant on each cell at its
    right-endpoint value, and the singular weight is integrated exactly.
    values has the grid along its last axis; the grid must be uniform and
    start at 0.
    """
    if not delta > 0.0:
        raise ValueError(f"fractional_convolution requires delta > 0, got {delta}")
    if mu < 0.0:
        raise ValueError(f"fractional_convolution requires mu >= 0, got {mu}")
    if grid.points[0] != 0.0:
        raise ValueError("fractional_convolution requires the grid to start at 0")
    values = np.asarray(values, dtype=float)
    n = grid.n
    if values.shape[-1] != n:
        raise ValueError(f"values last axis {values.shape[-1]} must match grid size {n}")
    h = grid.step
    n_cells = n - 1
    W = _frac_weights(delta, mu, h, n_cells)
    flat = values.reshape(-1, n)
    out = np.zeros_like(flat)
    for row_in, row_out in zip(flat, out):
        row_out[1:] = np.convolve(row_in[1:], W)[:n_cells]
    return out.reshape(values.shape)


_held_factor = None  # (key, factor) of _inner_factor's latest law, replaced as one object


def _inner_factor(k: ModeKernel, delta: float, fine_grid: TimeGrid) -> np.ndarray:
    """The read-only Cholesky factor of the order-(gamma - delta) process on
    the fine grid, shared by factorized_covariance and factorized_sample: the
    factor of the law that is sampled, jitter included.

    Only the latest (k, delta, fine_grid) is held, in _held_factor.
    ModeKernel is compared by value and TimeGrid by identity, and the key
    keeps a reference to the grid; a TimeGrid's points are read-only, so a
    held factor always matches its key. A miss drops the held factor before
    it builds the next one. The Gram is factored in place and freed, so at
    most three n x n arrays are alive: the Gram, LAPACK's buffer and the
    factor. The factor keeps the order n of the grid, with the t = 0 row
    factored as a unit corner and then zeroed, as cholesky_psd does.
    """
    global _held_factor
    key = (k, delta, fine_grid)
    held = _held_factor
    if held is not None and held[0] == key:
        return held[1]
    _held_factor = held = None  # the local reference too, or the old factor stays alive
    if not 0.0 < delta < k.gamma - 0.5:
        raise ValueError(
            f"delta must lie in (0, gamma - 1/2) = (0, {k.gamma - 0.5}), got {delta}")
    if fine_grid.points[0] != 0.0:
        raise ValueError("the factorized sampler requires the grid to start at 0")
    G = gram(ModeKernel(mu=k.mu, weight=k.weight, gamma=k.gamma - delta), fine_grid)
    L = _factor_psd(G[None], owned=True)[0][0]
    L.setflags(write=False)
    _held_factor = (key, L)
    return L


def factorized_sample(k: ModeKernel, delta: float, fine_grid: TimeGrid, seed: SeedSpec,
                      path: int = 0) -> np.ndarray:
    """Sample one path whose law approximates the order-gamma mode process by
    the factorization construction: draw the order-(gamma - delta) process
    exactly on the fine grid (Cholesky factor of its gram), then apply the
    singular convolution operator. Normals are drawn for the live indices
    only, from the stream of mode 0 read path after path as sample_modes
    reads it (see STREAM_FORMAT): on an n-point grid whose only dead index
    is t = 0, path p takes normals p (n - 1) .. (p + 1)(n - 1) - 1, so a
    replay from path p first draws p (n - 1) normals, and the path is 0 at
    t = 0.
    """
    if path < 0:
        raise ValueError(f"path index must be >= 0, got {path}")
    L = _inner_factor(k, delta, fine_grid)
    i = int(_first_live(L.diagonal()))  # 1 or more: the grid starts at t = 0
    z, stream = np.empty(fine_grid.n - i), _mode_stream(seed.master, 0)
    for _ in range(path + 1):  # the paths before `path` are drawn and dropped
        stream.standard_normal(out=z)
    return fractional_convolution(L[:, i:] @ z, delta, k.mu, fine_grid)


def factorized_covariance(k: ModeKernel, delta: float, fine_grid: TimeGrid) -> float:
    """Exact variance, at the final grid point, of the law produced by
    factorized_sample on this grid (the infinite-sample limit of its
    empirical variance): ||c L'||^2, with L' the factor that
    factorized_sample applies, less its zero t = 0 row and column, and c the
    product-integration weights. L' L'^T is the inner process's gram on the
    grid's points after t = 0, plus the jitter its factorization needed.
    """
    L = _inner_factor(k, delta, fine_grid)
    n_cells = fine_grid.n - 1
    W = _frac_weights(delta, k.mu, fine_grid.step, n_cells)
    # weight of Z(s_i) in the estimator at t = t_end, contiguous: numpy hands
    # BLAS no vector of negative stride and would loop in C instead
    c = W[::-1].copy()
    v = c @ L[1:, 1:]
    return float(v @ v)
