"""Exact Gaussian sampling of mode paths and assembled space-time fields.

Sampling is exact in law on the time grid: each mode's Gram matrix of true
covariances is factorized (with an escalating-jitter Cholesky, since grids
containing t = 0 make the matrix singular by construction) and applied to
independent standard normals. The Grams come in stacks from
spectral.mode_grams, finite and exactly symmetric, and each stack is
factored in place by one stacked LAPACK call; cholesky_psd checks the
matrices it takes from outside. Normals come from streams in format v4
(STREAM_FORMAT): one SFC64 stream per mode, seeded by numpy's SeedSequence
spawn rule from (master seed, mode index), read sequentially by numpy's
ziggurat normal sampler, path after path. A mode draws normals only for its
live indices, those of positive variance: mode_var grows with t, so they
are a suffix of the grid, and the dead ones (t = 0, or a variance that
underflows) stay exact zeros and draw nothing. Only the paths asked for are
drawn, 256 paths at a time, and each such block of a group of modes with
one live suffix goes through one stacked product by the group's live
factor columns, packed into one contiguous stack where they fit the
product budget. Field values are assembled from the mode values by one
gemm per block of paths (256 of them unless a block's values would exceed
that budget), for sample_field, its chunks and assemble_field alike. Mode
values are held mode-major, so both products work on views of their
buffer. Every product of a run has one shape, the last block padded with
zero rows, so no path's values depend on how many paths are drawn or in
what chunks.
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

import itertools
from dataclasses import dataclass

import numpy as np

from .kernel import ModeKernel, TimeGrid, gram
from .specfun import gamma_fn, lower_incomplete_gamma
from .spectral import EigenBasis, SpectralModel, as_points, evaluate_basis, mode_grams

__all__ = [
    "FieldSample",
    "SeedSpec",
    "CholeskyError",
    "cholesky_psd",
    "sample_modes",
    "sample_field",
    "sample_field_chunks",
    "assemble_field",
    "fractional_convolution",
    "factorized_sample",
    "factorized_covariance",
]


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
    with none draws nothing, so output is reproducible as the module
    docstring states.
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

    def __post_init__(self):
        pts, vals = np.shape(self.space_points), np.shape(self.values)
        if len(pts) != 2 or len(vals) != 3 or pts[0] != vals[2]:
            raise ValueError(f"space_points must have shape (n_points, d) to match values of shape "
                             f"(n_paths, n_times, n_points), got {pts} and {vals}")
        if self.times.n != vals[1]:
            raise ValueError(f"times holds {self.times.n} points, values of shape {vals} "
                             f"hold {vals[1]}")
        for arr in (self.space_points, self.values):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


class CholeskyError(np.linalg.LinAlgError):
    """Matrix not PSD even after the maximum jitter escalation."""


_MAX_JITTER_STEPS = 8
_PATH_BLOCK = 256  # paths per BLAS call in sample_modes
# product budget (512 kB): one block's normals, packed factor columns, mode
# values or field values, one mode's or one path's at least
_PRODUCT_ENTRIES = 2 ** 16

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


def cholesky_psd(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower-triangular factor of a symmetric PSD matrix, escalating a tiny
    diagonal jitter when needed. Returns (L, jitter), jitter being the
    diagonal shift the factorization applied (0.0 when none).

    Matrices from outside enter the library here, so every check on them
    is made here. One that is not square, has an infinite or nan entry, or
    is not symmetric to 1e-12 (1 + max |A|) raises ValueError; one with a
    negative diagonal entry, a zero-diagonal row with off-diagonal entries
    above that tolerance, or that is not PSD raises CholeskyError. The
    symmetric part (A + A^T) / 2, in a working copy, is factored by
    _factor_psd, so the argument is never written. Indices with zero
    variance, wherever they sit, give zero rows and columns of the factor.

    The matrix handed to LAPACK is exactly symmetric, so its transpose is
    the same matrix. numpy copies a C-ordered input into LAPACK's
    column-major buffer one strided column at a time, but the transposed
    view is column-major already and is copied in contiguous runs. potrf
    gets the same numbers either way, so at any BLAS thread count the factor
    is bit-identical to that of the C-ordered matrix."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix has non-finite entries")
    scale = float(np.abs(arr).max(initial=0.0))
    asym = float(np.abs(arr - arr.T).max(initial=0.0))
    if asym > 1e-12 * (1.0 + scale):
        raise ValueError("matrix is not symmetric")
    sym = arr.copy() if asym == 0.0 else 0.5 * (arr + arr.T)
    diag = sym.diagonal()
    if np.any(diag < 0.0):
        raise CholeskyError("negative diagonal entry; matrix is not PSD")
    dead = diag == 0.0
    if np.any(np.abs(sym[dead]).max(axis=1, initial=0.0) > 1e-12 * (1.0 + scale)):
        raise CholeskyError("zero-diagonal row has nonzero off-diagonal entries; not PSD")
    L, jitter = _factor_psd(sym[None])
    return L[0], float(jitter[0])


def _factor_psd(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors of the (B, n, n) stack of exactly symmetric, finite matrices,
    which the caller gives up: the stack is overwritten. Returns the
    (B, n, n) stack of factors and the (B,) array of jitters. Nothing is
    checked: the Gram builder (kernel.gram_stacks) and cholesky_psd do that
    for their matrices.

    Zero-variance indices (e.g. grid points at t = 0) factor to zero rows:
    they get a unit diagonal and no off-diagonal entries for the
    factorization, and their rows of the factor are zeroed after it. The
    stack is factored by one stacked LAPACK call. If that fails, every
    member escalates its own jitter, from its own diagonal as it was before
    its dead rows were set, and its factor overwrites it in the stack."""
    diag = stack.diagonal(0, 1, 2).copy()
    dead_b, dead_i = np.nonzero(diag == 0.0)  # member and index of each dead row
    stack[dead_b, dead_i] = 0.0
    stack[dead_b, :, dead_i] = 0.0
    stack[dead_b, dead_i, dead_i] = 1.0
    try:
        L = np.linalg.cholesky(stack.transpose(0, 2, 1))  # exactly symmetric: see cholesky_psd
        jitter = np.zeros(len(stack))
    except np.linalg.LinAlgError:
        L, jitter = stack, np.empty(len(stack))
        for b in range(len(stack)):
            L[b], jitter[b] = _jittered_factor(stack[b], diag[b])
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


def sample_modes(model: SpectralModel, grid: TimeGrid, n_paths: int, seed: SeedSpec) -> np.ndarray:
    """Sample mode paths, exact in law on the grid.

    Returns an array of shape (n_paths, J, n_times), a view of the
    mode-major buffer of _mode_chunks. Values at any t = 0 grid point, and
    wherever a mode's variance underflows to 0, are exactly zero. Each
    stack of mode_grams is factored in place by one _factor_psd call, as
    cholesky_psd factors each member, and each mode reads its own stream
    (see SeedSpec). This is the one-chunk case of _mode_chunks.
    """
    return next(_mode_chunks(model, grid, n_paths, seed, n_paths)).transpose(1, 0, 2)


def _mode_chunks(model: SpectralModel, grid: TimeGrid, n_paths: int, seed: SeedSpec,
                 chunk: int):
    """Yield the mode paths of paths 0 .. n_paths - 1 as consecutive
    mode-major (J, rows, n_times) arrays of `chunk` paths, the last one of
    the rest. chunk is a whole number of 256-path blocks unless it covers
    every path. Every array is a view of one buffer, which the next
    overwrites. In it each mode's values for a block of paths are one
    contiguous run, so both products of a block, by the factors and by
    the basis, read and write it without a copy.

    A one-chunk run takes the stacks of mode_grams one at a time, as they
    come. Otherwise every mode's factor and stream are held from the first
    chunk to the others, and each mode reads its one stream on from chunk to
    chunk, so every path reads the normals it reads in a one-chunk run."""
    if grid.points[-1] > model.T:
        raise ValueError(f"grid end {grid.points[-1]} exceeds the model horizon T={model.T}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if chunk < n_paths and not (chunk > 0 and chunk % _PATH_BLOCK == 0):
        raise ValueError(f"chunk must be a whole number of {_PATH_BLOCK}-path blocks or cover "
                         f"all {n_paths} paths, got {chunk}")
    rows = min(chunk, n_paths)
    out = np.empty((model.J, rows, grid.n))
    groups = _mode_groups(model, grid, seed.master)
    if rows < n_paths:
        groups = list(groups)  # held for the later chunks
    _sample_chunk(out, groups)
    yield out
    for p0 in range(rows, n_paths, rows):
        last = out[:, :n_paths - p0]
        _sample_chunk(last, groups)
        yield last


def _sample_chunk(out: np.ndarray, groups):
    """Sample the groups of modes of _mode_groups into out, of shape (J,
    rows, n), drawing through one normals buffer, which is dropped on return."""
    normals = np.empty(0)
    for j0, LT, streams in groups:
        B, m = LT.shape[:2]
        if normals.size < B * _PATH_BLOCK * m:
            normals = np.empty(B * _PATH_BLOCK * m)
        Z = normals[:B * _PATH_BLOCK * m].reshape(B, _PATH_BLOCK, m)
        _sample_group(out[j0:j0 + B], LT, streams, Z)


def _mode_groups(model: SpectralModel, grid: TimeGrid, master: int):
    """Yield the modes of the model in the groups that share one product:
    (j0, LT, streams) for modes j0 .. j0 + B - 1, with LT the (B, n - i, n)
    stack of their factors' live columns L[:, :, i:], transposed, and
    streams their B normal streams at their start, none when i = n.

    Each stack of mode_grams is factored in place; runs of consecutive
    modes with one live suffix [i, n) are cut into groups whose normals for
    one block of paths fill at most _PRODUCT_ENTRIES entries (one mode at
    least). A group's LT is packed into one contiguous stack when it holds
    at most _PRODUCT_ENTRIES entries too, as on every grid of up to 256
    points; otherwise it stays a transposed view of the factors, since a
    copy would add up to one factor per group."""
    group = max(1, _PRODUCT_ENTRIES // (_PATH_BLOCK * grid.n))
    for j0, stack in mode_grams(model, grid):
        L, _ = _factor_psd(stack)  # the stack is ours
        first = _first_live(L.diagonal(0, 1, 2))
        starts = np.flatnonzero(np.diff(first, prepend=-1))
        for a, end in zip(starts, [*starts[1:], len(L)]):
            i = int(first[a])
            for g0 in range(a, end, group):
                g1 = min(g0 + group, end)
                live = range(j0 + g0, j0 + g1) if i < grid.n else ()
                LT = L[g0:g1, :, i:].transpose(0, 2, 1)
                yield (j0 + g0, LT.copy() if LT.size <= _PRODUCT_ENTRIES else LT,
                       [_mode_stream(master, j) for j in live])


def _sample_group(out: np.ndarray, LT: np.ndarray, streams: list, Z: np.ndarray):
    """Write the paths of one group of B modes (see _mode_groups) into out,
    of shape (B, rows, n), one 256-path block at a time, reading each
    mode's stream on from where it stands.

    Each block's normals, n - i per path and mode, fill the (B, 256, n - i)
    buffer Z, and one stacked product by LT writes them, times the factors,
    straight into out; the factors' rows at dead indices are zero, and so
    are the values there. Modes with no live index (i = n) draw nothing and
    are zero. Products go in whole blocks of paths so every one is a BLAS
    call of one shape: BLAS may pick another kernel, and round differently,
    for another row count, and a path's values must not depend on it. The
    rows that pad the last block are 0, and their products are dropped.
    Whether LT is packed or a view of the factors, BLAS gets the same
    numbers and gives the same bits."""
    n_paths = out.shape[1]
    if LT.shape[1] == 0:
        out[...] = 0.0
        return
    for p0 in range(0, n_paths, _PATH_BLOCK):
        rows = min(_PATH_BLOCK, n_paths - p0)
        Z[:, rows:] = 0.0
        for z, stream in zip(Z, streams):
            stream.standard_normal(out=z[:rows])
        if rows == _PATH_BLOCK:
            np.matmul(Z, LT, out=out[:, p0:p0 + rows])
        else:
            out[:, p0:] = np.matmul(Z, LT)[:, :rows]


def _assembly_block(n_times: int, J: int, n_points: int) -> int:
    """Paths per assembly product of _field_values: 256, halved while one
    block's mode values or field values, b * n_times * max(J, n_points)
    doubles, exceed _PRODUCT_ENTRIES, one path at least. A power of two, so
    it divides every chunk of a streamed run, and a function of the shapes
    only, so no path's values depend on n_paths."""
    b = _PATH_BLOCK
    while b > 1 and b * n_times * max(J, n_points) > _PRODUCT_ENTRIES:
        b //= 2
    return b


def _field_values(modes: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Field values (n_paths, n_times, P) of the mode-major mode paths
    modes, of shape (J, n_paths, n_times), on the points of the (P, J)
    basis matrix E, in blocks of b paths (_assembly_block): one gemm by E^T
    per block writes the block's values. A block's mode values enter it as
    the transposed (J, b * n_times) matrix, a view where each mode's values
    for the block are one contiguous run, as in _mode_chunks' buffer, and a
    copy otherwise. Every gemm has one shape, the last block padded with
    zero rows whose products are dropped, so a path's values depend neither
    on how many are assembled nor on the chunk they come in: BLAS may round
    differently for another row count, as in _sample_group."""
    J, n_paths, n = modes.shape
    P = len(E)
    b = _assembly_block(n, J, P)
    values = np.empty((n_paths, n, P))
    for p0 in range(0, n_paths, b):
        rows = min(b, n_paths - p0)
        if rows == b:
            A = modes[:, p0:p0 + b].reshape(J, b * n).T
            np.matmul(A, E.T, out=values[p0:p0 + b].reshape(b * n, P))
        else:
            block = np.zeros((J, b, n))
            block[:, :rows] = modes[:, p0:]
            values[p0:] = (block.reshape(J, b * n).T @ E.T).reshape(b, n, P)[:rows]
    return values


def assemble_field(mode_paths: np.ndarray, basis: EigenBasis, space_points,
                   times: TimeGrid) -> FieldSample:
    """Assemble field values sum_j Z_j(t) e_j(x) from mode paths of shape
    (n_paths, J, n_times) on the time grid `times`. Linear in mode_paths.

    The assembly is sample_field's own (_field_values, one gemm per block
    of paths), so assemble_field(sample_modes(...)) is bit-identical to
    sample_field(...) with the same arguments."""
    mode_paths = np.asarray(mode_paths, dtype=float)
    if mode_paths.ndim != 3:
        raise ValueError(f"mode_paths must have shape (n_paths, J, n_times), got {mode_paths.shape}")
    if mode_paths.shape[1] != basis.J:
        raise ValueError(f"mode count {mode_paths.shape[1]} does not match basis J={basis.J}")
    pts = as_points(space_points, basis)
    return FieldSample(times=times, space_points=pts, values=_field_values(
        mode_paths.transpose(1, 0, 2), evaluate_basis(basis, pts)))


def sample_field(model: SpectralModel, grid: TimeGrid, space_points, n_paths: int,
                 seed: SeedSpec) -> FieldSample:
    """Sample mode paths and assemble them on the given spatial points: the
    one-chunk case of sample_field_chunks."""
    return next(sample_field_chunks(model, grid, space_points, n_paths, seed, chunk=n_paths))


def _stream_chunk(n_times: int, n_paths: int) -> int:
    """Paths per chunk of a streamed run of n_paths paths on an n_times-point
    grid: the smallest whole number of 256-path blocks that is at least
    n_times, so the factors held across chunks (at most J n_times^2 values)
    never exceed one chunk's mode values. A run shorter than two such
    chunks is one chunk, since holding its factors would cost more than the
    chunking saves."""
    chunk = _PATH_BLOCK * -(-n_times // _PATH_BLOCK)
    return chunk if n_paths >= 2 * chunk else n_paths


def sample_field_chunks(model: SpectralModel, grid: TimeGrid, space_points, n_paths: int,
                        seed: SeedSpec, chunk: int | None = None):
    """The field sample of sample_field as an iterator of consecutive
    FieldSamples of `chunk` paths each, the last one of the rest, whose
    values are bit-identical to the matching paths of sample_field's.
    chunk must be a whole number of 256-path blocks unless it covers every
    path; by default it is _stream_chunk's.

    The first chunk's modes are sampled before this returns, so every Gram
    and factor failure is raised here. Peak memory is one chunk's mode and
    field values, chunk * n_times * (J + P) doubles, plus the (P, J) basis
    matrix, the streams of the modes, the product buffers of one block
    (each at most _PRODUCT_ENTRIES doubles, or one mode's normals or one
    path's values where that alone is more) and, with more than one chunk,
    the modes' factors, whatever n_paths is."""
    pts = as_points(space_points, model.basis)
    modes = _mode_chunks(model, grid, n_paths, seed,
                         _stream_chunk(grid.n, n_paths) if chunk is None else chunk)
    first = next(modes)
    E = evaluate_basis(model.basis, pts)
    return (FieldSample(times=grid, space_points=pts, values=_field_values(m, E))
            for m in itertools.chain([first], modes))


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
    L = _factor_psd(G[None])[0][0]
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
