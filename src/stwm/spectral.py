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
from functools import cached_property

import numpy as np

from .kernel import ModeKernel, TimeGrid, gram_stacks

__all__ = [
    "EigenBasis",
    "SpectralModel",
    "build_basis",
    "as_points",
    "evaluate_basis",
    "weyl_ratio",
    "mode_params",
    "mode_columns",
    "mode_grams",
    "load_config",
    "model_from_dict",
    "model_from_json",
]

MAX_MODES = 10 ** 7


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Dirichlet eigenpairs of kappa2 - Laplacian on an interval (d=1) or
    rectangle (d=2): row j of the read-only (J, d) integer array index_map is
    the multi-index m of mode j, and eigenvalues[j] = kappa2 + s_j with
    s_j = sum_i (m_i pi / extent_i)^2. The modes are the J smallest by s,
    sorted by it with ties broken by (m_1, m_2), so every shift on one domain
    gives the same index_map.
    """

    d: int
    extents: tuple
    kappa2: float
    J: int
    eigenvalues: np.ndarray = field(repr=False)
    index_map: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.index_map.setflags(write=False)


def build_basis(d: int, extents, kappa2: float, J: int) -> EigenBasis:
    """The J modes of the domain with the smallest Laplacian eigenvalues, in
    EigenBasis order, with eigenvalues shifted by kappa2."""
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
        modes = np.arange(1, J + 1).reshape(J, 1)
    else:  # candidates that hold the J smallest
        modes = _lowest_pairs((math.pi / extents[0]) ** 2, (math.pi / extents[1]) ** 2, J)
    lap = sum((m * math.pi / ell) ** 2 for m, ell in zip(modes.T, extents))
    order = np.lexsort((*modes.T[::-1], lap))[:J]  # ties broken by (j1, j2)
    return EigenBasis(d=d, extents=extents, kappa2=float(kappa2), J=int(J),
                      eigenvalues=kappa2 + lap[order], index_map=modes[order])


def _lowest_pairs(s1: float, s2: float, J: int):
    """(n, 2) array of the multi-indices (j1, j2) >= 1 with s1 j1^2 + s2 j2^2
    at most the least bound under which J pairs lie (by bisection), widened
    by 1e-9 bound so that no sum that rounds to a tie with the J-th is
    dropped. A pair has j1 j2 - 1 pairs before it, as the sums grow in each
    index, so only pairs with j1 j2 <= J are formed: at most J (1 + ln J) of
    them, and O(J) unless many sums tie."""
    def row_counts(bound):
        # at most J rows of at most J pairs: quotients past J^2, inf among them, count alike
        rows = np.arange(1, min(J, int(math.sqrt(min(max(bound - s2, 0.0) / s1, J * J))) + 1) + 1)
        with np.errstate(over="ignore"):
            counts = np.floor(np.sqrt(np.maximum(bound - s1 * rows ** 2.0, 0.0) / s2))
        return np.minimum(counts, J // rows).astype(np.int64)

    # the first J pairs of row j2 = 1, of column j1 = 1 and of the square
    # [1, ceil(sqrt(J))]^2 each lie under hi
    lo, hi = 0.0, min(s1 * J ** 2 + s2, s1 + s2 * J ** 2, (s1 + s2) * math.ceil(math.sqrt(J)) ** 2)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if row_counts(mid).sum() >= J else (mid, hi)
    counts = row_counts(hi + 1e-9 * hi)
    j1 = np.repeat(np.arange(1, counts.size + 1), counts)
    j2 = np.arange(j1.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    return np.column_stack((j1, j2))


def as_points(points, basis: EigenBasis) -> np.ndarray:
    """Points one per row, (n_points, d), checked against `basis`: d
    coordinates each, inside the open domain. In 1-D a single row of several
    values is a column."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if basis.d == 1 and pts.shape[0] == 1 and pts.shape[1] != 1:
        pts = pts.T
    if pts.shape[1] != basis.d:
        raise ValueError(f"points must have {basis.d} coordinates, got shape {pts.shape}")
    for axis, ell in enumerate(basis.extents):
        coord = pts[:, axis]
        if not np.all((coord > 0.0) & (coord < ell)):
            raise ValueError(f"points must lie inside the open domain (0, {ell}) along axis {axis}")
    return pts


def evaluate_basis(basis: EigenBasis, points) -> np.ndarray:
    """Matrix of eigenfunction values at as_points(points, basis), shape (n_points, J)."""
    pts = as_points(points, basis)
    out = np.ones((pts.shape[0], basis.J))
    for x, ell, m in zip(pts.T, basis.extents, basis.index_map.T):
        out *= math.sqrt(2.0 / ell) * np.sin(np.outer(x, m) * math.pi / ell)
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
    checked where variances are formed (see kernel.ModeKernel).
    """

    basis: EigenBasis
    basis_tilde: EigenBasis
    alpha: float
    beta: float
    gamma: float
    T: float

    def __post_init__(self):
        b, bt = self.basis, self.basis_tilde
        if b.extents != bt.extents or not np.array_equal(b.index_map, bt.index_map):
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

    @cached_property
    def mode_table(self) -> np.ndarray:
        """Read-only (J, 2) array whose row j - 1 holds mode j's decay rate
        lambda_j^beta and weight lambda_tilde_j^-alpha: Python float powers,
        formed on first use, inf where one overflows and 0 where it underflows."""
        lams = zip(self.basis.eigenvalues.tolist(), self.basis_tilde.eigenvalues.tolist())
        table = np.array([(_power(lam, self.beta), _power(lam_t, -self.alpha))
                          for lam, lam_t in lams])
        table.setflags(write=False)
        return table


def mode_params(model: SpectralModel, j: int) -> ModeKernel:
    """Temporal kernel of mode j (1-based), from row j - 1 of model.mode_table:
    mu = lambda_j^beta, w = lambda_tilde_j^{-alpha}, order gamma. The table's
    one check: a power that overflows a double raises OverflowError, and one
    that underflows to 0 ArithmeticError, naming the mode and the term."""
    if not 1 <= j <= model.J:
        raise IndexError(f"mode index {j} out of range [1, {model.J}]")
    mu, weight = model.mode_table[j - 1].tolist()
    for value, term, basis, exponent in ((mu, "decay rate lambda^beta", model.basis, model.beta),
                                         (weight, "weight lambda_tilde^-alpha", model.basis_tilde,
                                          -model.alpha)):
        if value in (0.0, math.inf):
            message = f"mode {j}: {term} = {float(basis.eigenvalues[j - 1])}^{float(exponent)}"
            raise (OverflowError(f"{message} overflows") if value == math.inf
                   else ArithmeticError(f"{message} underflows to 0"))
    return ModeKernel(mu=mu, weight=weight, gamma=model.gamma)


def mode_columns(model: SpectralModel) -> np.ndarray:
    """(mu, w), the columns of model.mode_table. Its first mode with a zero or
    infinite entry raises, as mode_params raises for it."""
    table = model.mode_table
    bad = np.flatnonzero(((table == 0.0) | (table == math.inf)).any(axis=1))
    if bad.size:
        mode_params(model, int(bad[0]) + 1)
    return table.T


def mode_grams(model: SpectralModel, grid: TimeGrid):
    """kernel.gram_stacks of the model's modes: (j0, stack) pairs, stack
    the Gram matrices of modes j0 + 1 .. j0 + B on the grid."""
    return gram_stacks(model.gamma, *mode_columns(model), grid)


def _power(base: float, exponent: float) -> float:
    try:  # a Python float power raises on overflow where numpy's would warn
        return base ** exponent
    except ArithmeticError:
        return math.inf


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
        raise ConfigError(field_name, f"must be an integer, got {_shown(raw)}")
    return int(raw)


def config_float(raw, field_name: str) -> float:
    """Finite real value of config field `field_name`. Booleans, strings,
    other non-numbers and the NaN and Infinity that JSON readers accept are
    a ConfigError rather than converted."""
    if isinstance(raw, bool) or not (isinstance(raw, (int, float))
                                     and abs(raw) <= sys.float_info.max):
        raise ConfigError(field_name, f"must be a finite number, got {_shown(raw)}")
    return float(raw)


def _shown(raw) -> str:
    """repr of config value `raw`, or the JSON type of a non-empty list or
    object, whose repr may be long or nested deeper than repr can go."""
    kind = {list: "list", dict: "object"}.get(type(raw))
    return f"a non-empty JSON {kind}" if kind and raw else repr(raw)


def config_numbers(raw, field_name: str) -> list:
    """Numbers in config field `field_name`, a JSON list, each read by config_float."""
    if not isinstance(raw, list):
        raise ConfigError(field_name, f"must be a JSON list, got {_shown(raw)}")
    return [config_float(v, field_name) for v in raw]


def config_points(raw, field_name: str, basis: EigenBasis, single: bool = False) -> np.ndarray:
    """Points in config field `field_name` (a non-empty list of numbers or of
    equally long lists of numbers; with `single`, one point, in 1-D also a
    bare number) as as_points gives them, each number read by config_float
    and the points checked by as_points against `basis`."""
    rows = [raw] if single and not isinstance(raw, list) else raw
    if not (isinstance(rows, list) and rows):
        raise ConfigError(field_name, f"must be a non-empty JSON list, got {_shown(raw)}")
    width = len(rows[0]) if isinstance(rows[0], list) else 0  # 0: one number per point
    if width and not all(isinstance(row, list) and len(row) == width for row in rows):
        raise ConfigError(field_name, "must hold numbers or equally long lists of numbers")
    values = [config_float(v, field_name) for row in rows for v in (row if width else [row])]
    try:
        pts = as_points(np.reshape(values, (len(rows), width)) if width else values, basis)
    except ValueError as exc:
        raise ConfigError(field_name, str(exc)) from None
    if single and pts.shape[0] != 1:
        raise ConfigError(field_name, f"must be one point, got {pts.shape[0]} points")
    return pts


def _mode_index(raw, field_name: str, model: SpectralModel) -> int:
    j = config_int(raw, field_name)
    if not 1 <= j <= model.J:
        raise ConfigError(field_name, f"must be in [1, {model.J}], got {j!r}")
    return j


# each member kind's reader: (raw value, field name, model) -> the value in
# JSON form; the model is None while the model's own members are read
_READERS = {
    "integer": lambda raw, name, model: config_int(raw, name),
    "real": lambda raw, name, model: config_float(raw, name),
    "reals": lambda raw, name, model: config_numbers(raw, name),
    "lengths": lambda raw, name, model: config_numbers(
        list(raw) if isinstance(raw, (list, tuple)) else [raw], name),
    "points": lambda raw, name, model: config_points(raw, name, model.basis).tolist(),
    "point": lambda raw, name, model: config_points(raw, name, model.basis, True)[0].tolist(),
    "mode": _mode_index,
    "target": lambda raw, name, model: raw if raw == "field" else _mode_index(raw, name, model),
}
REQUIRED = "required"
_AT_LEAST_ONE, _NONNEGATIVE, _POSITIVE = ((lambda v: v >= 1, "must be >= 1"),
                                           (lambda v: v >= 0.0, "must be >= 0"),
                                           (lambda v: v > 0.0, "must be > 0"))

# the run configuration in README's order: each section's members, and the
# top-level members, as rows (reader kind, default, *bounds). The default is
# REQUIRED, None to leave an absent member out, or a function that forms it
# (so that importing forms no numpy array); a bound is a (predicate, rule)
# pair, checked on a list's least number. The callers check the rules that
# span members.
SCHEMA = {
    "model": {
        "d": ("integer", REQUIRED, (lambda v: v in (1, 2), "must be 1 or 2")),
        "extents": ("lengths", REQUIRED),  # d of them in range: model_from_dict
        "kappa2": ("real", REQUIRED, _NONNEGATIVE),
        "kappa2_tilde": ("real", REQUIRED, _NONNEGATIVE),
        "J": ("integer", REQUIRED, (lambda v: 1 <= v <= MAX_MODES, f"must be in [1, {MAX_MODES}]")),
        "alpha": ("real", REQUIRED, _NONNEGATIVE),
        "beta": ("real", REQUIRED, _NONNEGATIVE),
        "gamma": ("real", REQUIRED, _POSITIVE),
        "T": ("real", REQUIRED, _POSITIVE),
    },
    "grid": {"t_start": ("real", REQUIRED, _NONNEGATIVE), "t_end": ("real", REQUIRED),
             "steps": ("integer", REQUIRED, _AT_LEAST_ONE)},
    "space": {"points": ("points", None), "lattice": ("integer", None, _AT_LEAST_ONE)},
    "n_paths": ("integer", 1, _AT_LEAST_ONE, (lambda v: v < 2 ** 32,
                                              "must be below 2^32, the field file's limit")),
    "seed": ("integer", 0, (lambda v: 0 <= v < 2 ** 64, "must be in [0, 2^64)")),
    "cov": {"mode": ("target", 1), "x": ("point", None), "y": ("point", None)},
    "limits": {"temporal_kappa": ("real", 1.0, _POSITIVE),
               "lags": ("reals", lambda: list(np.geomspace(1e-2, 4.0, 25)), _NONNEGATIVE)},
    "holder": {"mode": ("mode", 1), "t0": ("real", 5.0, _AT_LEAST_ONE),
               "lags": ("reals", [2.0 ** -e for e in range(6, 13)])},
    "regularity": {"n": ("integer", 0), "tau": ("real", 0.0), "sigma": ("real", 0.0)},
}


def read_member(row: tuple, raw, field_name: str, model: SpectralModel = None):
    """Config field `field_name` read from the JSON value `raw` by the reader
    of its SCHEMA row's kind and checked against the row's bounds."""
    kind, _, *bounds = row
    value = _READERS[kind](raw, field_name, model)
    for holds, rule in bounds:
        least = min(value, default=None) if isinstance(value, list) else value
        if least is not None and not holds(least):
            raise ConfigError(field_name, f"{rule}, got {least!r}")
    return value


def _members(given, known, field_name: str, prefix: str) -> dict:
    """Config field `field_name`, refused if it is not a JSON object and then
    for its first member outside `known`, named `prefix + member`."""
    if not isinstance(given, dict):
        raise ConfigError(field_name, "must be a JSON object")
    for key in given:
        if key not in known:
            raise ConfigError(prefix + key, "unknown member")
    return given


def check_config(doc: dict):
    """Refuse a shape defect of run configuration doc before any value is
    read: a member unknown at its top level, then in a section (in SCHEMA
    order), then a section that is not a JSON object, then a space that is not
    one member, points or lattice. read_section checks the model section."""
    _members(doc, SCHEMA, "<root>", "")
    sections = [name for name, rows in SCHEMA.items()
                if isinstance(rows, dict) and name not in ("model", "space")]
    # the objects first, so that every unknown member comes before a non-object
    for name in sorted(sections, key=lambda name: not isinstance(doc.get(name, {}), dict)):
        _members(doc.get(name, {}), SCHEMA[name], name, f"{name}.")
    space = doc.get("space")
    if "space" in doc and not (isinstance(space, dict) and len(space) == 1
                               and space.keys() <= {"points", "lattice"}):
        raise ConfigError("space", "must hold one member, 'points' or 'lattice'")


def read_section(doc: dict, name: str, model: SpectralModel, prefix: str = None):
    """Section `name` of run configuration doc, or its top-level member
    `name`, each member read by read_member: an absent one as its default
    (formed, if a function), or left out if None. Refused before any value is
    read: an absent section with a REQUIRED member, then what _members refuses,
    then an absent REQUIRED member. Fields are `prefix` ("<name>.") + member."""
    rows = SCHEMA[name]
    if not isinstance(rows, dict):  # a top-level member
        return read_member(rows, doc.get(name, rows[1]), name, model)
    if name not in doc and any(row[1] == REQUIRED for row in rows.values()):
        raise ConfigError(name, f"missing {name} spec {{{', '.join(rows)}}}")
    prefix = f"{name}." if prefix is None else prefix
    given = _members(doc.get(name, {}), rows, name, prefix)
    for key, row in rows.items():
        if key not in given and row[1] == REQUIRED:
            raise ConfigError(prefix + key, "missing")
    raw = {key: given[key] if key in given else row[1]() if callable(row[1]) else row[1]
           for key, row in rows.items()}
    return {key: read_member(row, raw[key], prefix + key, model)
            for key, row in rows.items() if key in given or row[1] is not None}


def load_config(path) -> dict:
    """The JSON object in file `path`. A file that cannot be read, invalid or
    too deeply nested JSON or a root that is not an object is a ConfigError;
    the first two name the field '--config', the CLI option that passes `path`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:  # a missing file, a directory, no permission
        raise ConfigError("--config", f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # the decoder recurses per nesting level
        raise ConfigError("--config", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return doc


def model_from_dict(doc: dict) -> SpectralModel:
    """The SpectralModel of a run configuration, whose shape check_config
    checks first, or of a bare model document (one with no "model" member),
    read by read_section with extents d lengths in [1e-100, 1e100]. Raises
    ConfigError naming the first offending field: "model.<name>" in a run
    configuration, else "<name>"."""
    prefix = "model." if "model" in doc else ""
    if prefix:
        check_config(doc)
    v = read_section(doc if prefix else {"model": doc}, "model", None, prefix)
    if len(v["extents"]) != v["d"] or not all(1e-100 <= e <= 1e100 for e in v["extents"]):
        raise ConfigError(prefix + "extents", f"must be {v['d']} positive length(s) in [1e-100, "
                                              f"1e100], got {doc.get('model', doc)['extents']!r}")
    return SpectralModel(
        basis=build_basis(v["d"], v["extents"], v["kappa2"], v["J"]),
        basis_tilde=build_basis(v["d"], v["extents"], v["kappa2_tilde"], v["J"]),
        alpha=v["alpha"], beta=v["beta"], gamma=v["gamma"], T=v["T"])


def model_from_json(path) -> SpectralModel:
    """The model of the bare model document or run configuration in file
    `path`; every defect is a ConfigError, as for `stwm --config`."""
    return model_from_dict(load_config(path))

