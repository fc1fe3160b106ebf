"""Eigenpairs of constant-coefficient operators kappa^2 - Laplacian with
Dirichlet conditions on intervals and rectangles, and the space-time model
built on a shared eigenbasis.

Explicit sine eigenfunctions make every downstream covariance formula exactly
testable; the two operators of a model (one driving the dynamics, one coloring
the noise) must share eigenfunctions and may differ only in the constant shift.
"""

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .kernel import ModeKernel

__all__ = [
    "EigenBasis",
    "SpectralModel",
    "build_basis",
    "as_points",
    "evaluate_basis",
    "weyl_ratio",
    "mode_params",
    "load_config",
    "model_from_dict",
    "model_from_json",
    "model_to_dict",
]

MAX_MODES = 10 ** 7


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Sorted Dirichlet eigenpairs of kappa2 - Laplacian on an interval (d=1)
    or rectangle (d=2).

    eigenvalues[j] = kappa2 + sum_i (m_i pi / extent_i)^2 for the multi-index
    m = index_map[j]; ties in 2D are broken lexicographically so the ordering
    is deterministic.
    """

    d: int
    extents: tuple
    kappa2: float
    J: int
    eigenvalues: np.ndarray = field(repr=False)
    index_map: tuple = field(repr=False)

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)


def build_basis(d: int, extents, kappa2: float, J: int) -> EigenBasis:
    """Construct the smallest J eigenpairs."""
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension d={d} (only 1 and 2 ship)")
    if not J >= 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if J > MAX_MODES:
        raise ValueError(f"J={J} exceeds the supported cap {MAX_MODES}")
    if not (kappa2 >= 0.0 and math.isfinite(kappa2)):
        raise ValueError(f"kappa2 must be finite and >= 0, got {kappa2}")
    if np.isscalar(extents):
        extents = (float(extents),) * d
    else:
        extents = tuple(float(e) for e in extents)
    if len(extents) != d or not all(1e-100 <= e <= 1e100 for e in extents):
        raise ValueError(f"extents must be {d} lengths in [1e-100, 1e100], got {extents}")

    if d == 1:
        js = np.arange(1, J + 1)
        lam = kappa2 + (js * math.pi / extents[0]) ** 2
        index_map = tuple((int(j),) for j in js)
    else:
        # candidates that hold the J smallest, sorted with lexicographic tie-break
        j1, j2 = _lowest_pairs((math.pi / extents[0]) ** 2, (math.pi / extents[1]) ** 2,
                               kappa2, J)
        lam_all = kappa2 + (j1 * math.pi / extents[0]) ** 2 + (j2 * math.pi / extents[1]) ** 2
        order = np.lexsort((j2, j1, lam_all))[:J]
        lam = lam_all[order]
        index_map = tuple((int(a), int(b)) for a, b in zip(j1[order], j2[order]))
    return EigenBasis(d=d, extents=extents, kappa2=float(kappa2), J=int(J),
                      eigenvalues=np.asarray(lam, dtype=float), index_map=index_map)


def _lowest_pairs(s1: float, s2: float, kappa2: float, J: int):
    """Arrays j1, j2 of the multi-indices (j1, j2) >= 1 with s1 j1^2 + s2 j2^2
    at most the least bound under which J pairs lie (by bisection), widened
    by 1e-9 (kappa2 + bound) so that no eigenvalue that rounds to a tie with
    the J-th is dropped. A pair has j1 j2 - 1 pairs before it, as the sums
    grow in each index, so only pairs with j1 j2 <= J are formed: at most
    J (1 + ln J) of them, and O(J) unless many eigenvalues tie."""
    def row_counts(bound):
        rows = np.arange(1, min(J, int(math.sqrt(max(bound - s2, 0.0) / s1)) + 1) + 1)
        counts = np.floor(np.sqrt(np.maximum(bound - s1 * rows ** 2.0, 0.0) / s2))
        return np.minimum(counts, J // rows).astype(np.int64)

    # the first J pairs of row j2 = 1, of column j1 = 1 and of the square
    # [1, ceil(sqrt(J))]^2 each lie under hi
    lo, hi = 0.0, min(s1 * J ** 2 + s2, s1 + s2 * J ** 2, (s1 + s2) * math.ceil(math.sqrt(J)) ** 2)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if row_counts(mid).sum() >= J else (mid, hi)
    counts = row_counts(hi + 1e-9 * (kappa2 + hi))
    j1 = np.repeat(np.arange(1, counts.size + 1), counts)
    return j1, np.arange(j1.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1


def as_points(points, d: int) -> np.ndarray:
    """Points one per row; in 1-D a single row of several values is a column."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if d == 1 and pts.shape[0] == 1 and pts.shape[1] != 1:
        pts = pts.T
    return pts


def evaluate_basis(basis: EigenBasis, points) -> np.ndarray:
    """Matrix of eigenfunction values, shape (n_points, J)."""
    pts = as_points(points, basis.d)
    if pts.shape[1] != basis.d:
        raise ValueError(f"points must have {basis.d} coordinates, got shape {pts.shape}")
    for axis, ell in enumerate(basis.extents):
        coord = pts[:, axis]
        if not np.all((coord > 0.0) & (coord < ell)):
            raise ValueError(f"points must lie inside the open domain (0, {ell}) along axis {axis}")
    idx = np.asarray(basis.index_map)  # (J, d)
    out = np.ones((pts.shape[0], basis.J))
    for axis, ell in enumerate(basis.extents):
        out *= math.sqrt(2.0 / ell) * np.sin(np.outer(pts[:, axis], idx[:, axis]) * math.pi / ell)
    return out


def weyl_ratio(basis: EigenBasis) -> tuple:
    """(min, max) of eigenvalue_j / j^{2/d} over the upper half j in [J/2, J].

    The two-sided constants of the eigenvalue growth law, measured on the
    resolved part of the spectrum; used downstream for honest tail bounds.
    """
    if basis.J < 10:
        raise ValueError(f"weyl_ratio requires J >= 10, got {basis.J}")
    j_lo = int(math.ceil(basis.J / 2))
    js = np.arange(j_lo, basis.J + 1)
    ratios = basis.eigenvalues[j_lo - 1:] / js ** (2.0 / basis.d)
    return float(ratios.min()), float(ratios.max())


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Full model specification.

    basis carries the dynamics operator (decay rates lambda_j^beta),
    basis_tilde the noise-coloring operator (weights lambda_tilde_j^{-alpha});
    both must share dimension, extents, mode count, and index map. gamma is
    the fractional order of the parabolic operator, T the time horizon; both
    are finite and positive. gamma > 1/2, which every variance needs, is
    checked where variances are formed (kernel._variance_rows and
    kernel.stationary_constant), not at construction.
    """

    basis: EigenBasis
    basis_tilde: EigenBasis
    alpha: float
    beta: float
    gamma: float
    T: float

    def __post_init__(self):
        b, bt = self.basis, self.basis_tilde
        if (b.d, b.extents, b.J, b.index_map) != (bt.d, bt.extents, bt.J, bt.index_map):
            raise ValueError("basis and basis_tilde must share dimension, extents, J and index map")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be finite and > 0, got {self.T}")

    @property
    def J(self) -> int:
        return self.basis.J

    @property
    def d(self) -> int:
        return self.basis.d


def mode_params(model: SpectralModel, j: int) -> ModeKernel:
    """Temporal kernel of mode j (1-based): mu = lambda_j^beta,
    w = lambda_tilde_j^{-alpha}, order gamma. A power that overflows a
    double raises OverflowError, and one that underflows to 0
    ArithmeticError, naming the mode and the term."""
    if not 1 <= j <= model.J:
        raise IndexError(f"mode index {j} out of range [1, {model.J}]")
    lam = float(model.basis.eigenvalues[j - 1])
    lam_t = float(model.basis_tilde.eigenvalues[j - 1])
    mu = _mode_power(j, "decay rate lambda^beta", lam, float(model.beta))
    weight = _mode_power(j, "weight lambda_tilde^-alpha", lam_t, -float(model.alpha))
    return ModeKernel(mu=mu, weight=weight, gamma=model.gamma)


def _mode_power(j: int, term: str, base: float, exponent: float) -> float:
    try:  # Python float powers raise on overflow where numpy's would warn
        value = base ** exponent
    except ArithmeticError:
        raise OverflowError(f"mode {j}: {term} = {base}^{exponent} overflows") from None
    if value == 0.0:
        raise ArithmeticError(f"mode {j}: {term} = {base}^{exponent} underflows to 0")
    return value


class ConfigError(ValueError):
    """Invalid model configuration; names the offending field."""

    def __init__(self, field_name, message):
        super().__init__(f"config field '{field_name}': {message}")
        self.field = field_name


def config_int(raw, field_name: str) -> int:
    """Integer value of config field `field_name`. Booleans, strings and
    non-integral numbers are a ConfigError rather than truncated."""
    if isinstance(raw, bool) or not (isinstance(raw, int)
                                     or isinstance(raw, float) and raw.is_integer()):
        raise ConfigError(field_name, f"must be an integer, got {raw!r}")
    return int(raw)


def config_float(raw, field_name: str) -> float:
    """Finite real value of config field `field_name`. Booleans, strings,
    other non-numbers and the NaN and Infinity that JSON readers accept are
    a ConfigError rather than converted."""
    if isinstance(raw, bool) or not (isinstance(raw, (int, float))
                                     and abs(raw) <= sys.float_info.max):
        raise ConfigError(field_name, f"must be a finite number, got {raw!r}")
    return float(raw)


_MODEL_FIELDS = ("d", "extents", "kappa2", "kappa2_tilde", "J", "alpha", "beta", "gamma", "T")


def config_checked(raw, field_name: str, predicate, message: str, read=config_float):
    """Value of config field `field_name`, read by `read` (config_float or
    config_int); one for which `predicate` fails is a ConfigError naming the
    field, with `message` stating the rule."""
    value = read(raw, field_name)
    if not predicate(value):
        raise ConfigError(field_name, f"{message}, got {value!r}")
    return value


def load_config(path) -> dict:
    """The JSON object in file `path`. A missing file, invalid JSON or a
    root that is not an object is a ConfigError; the first two name the
    field '--config', the CLI option that passes `path`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("--config", f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("--config", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return doc


def model_from_dict(doc: dict) -> SpectralModel:
    """Build a SpectralModel from a bare model document with fields
    {d, extents, kappa2, kappa2_tilde, J, alpha, beta, gamma, T}, or from a
    run configuration whose "model" member is one.

    d and J are read by config_int, the other fields by config_float.
    Raises ConfigError naming the first offending field."""
    doc = doc.get("model", doc)
    if not isinstance(doc, dict):
        raise ConfigError("model", "must be a JSON object")
    for name in _MODEL_FIELDS:
        if name not in doc:
            raise ConfigError(name, "missing")
    d = config_checked(doc["d"], "d", lambda v: v in (1, 2), "must be 1 or 2", config_int)
    J = config_checked(doc["J"], "J", lambda v: 1 <= v <= MAX_MODES,
                       f"must be in [1, {MAX_MODES}]", config_int)
    extents = doc["extents"]
    extents = [config_float(e, "extents")
               for e in (extents if isinstance(extents, (list, tuple)) else [extents])]
    if len(extents) != d or any(not e > 0.0 for e in extents):
        raise ConfigError("extents", f"must be {d} positive length(s), got {doc['extents']!r}")
    kappa2, kappa2_t, alpha, beta = (
        config_checked(doc[name], name, lambda v: v >= 0.0, "must be >= 0")
        for name in ("kappa2", "kappa2_tilde", "alpha", "beta"))
    gamma, horizon = (config_checked(doc[name], name, lambda v: v > 0.0, "must be > 0")
                      for name in ("gamma", "T"))
    return SpectralModel(
        basis=build_basis(d, extents, kappa2, J),
        basis_tilde=build_basis(d, extents, kappa2_t, J),
        alpha=alpha, beta=beta, gamma=gamma, T=horizon)


def model_from_json(path) -> SpectralModel:
    """The model of the bare model document or run configuration in file
    `path`; every defect is a ConfigError, as for `stwm --config`."""
    return model_from_dict(load_config(path))


def model_to_dict(model: SpectralModel) -> dict:
    extents = model.basis.extents
    return {
        "d": model.d,
        "extents": list(extents) if model.d > 1 else extents[0],
        "kappa2": model.basis.kappa2,
        "kappa2_tilde": model.basis_tilde.kappa2,
        "J": model.J,
        "alpha": model.alpha,
        "beta": model.beta,
        "gamma": model.gamma,
        "T": model.T,
    }
