"""Command-line front end.

Subcommands: basis, sample, cov, limits, regularity, holder. Configuration
comes from a JSON document (--config). `main` loads it and builds the model
once (spectral.load_config, spectral.model_from_dict), refuses gamma <= 1/2
(model invalid) for the subcommands that need a finite-variance solution
(sample, cov, limits, holder), and passes (args, doc, model) to the
subcommand. Tables are written and numbers printed through
fieldfile.write_csv and fieldfile.format_number. Randomized subcommands
print their full seed record so any run can be replayed. Exit codes: 0 ok /
condition satisfied, 1 condition unsatisfied, 2 config error, 3 model
invalid (existence condition violated), 4 numerical failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, fieldfile
from .fieldfile import format_number, write_csv
from .kernel import stationary_variance, temporal_matern_limit
from .sampler import STREAM_FORMAT, CholeskyError, SeedSpec, TimeGrid, gram, sample_field
from .spectral import (ConfigError, SpectralModel, as_points, config_checked, config_float,
                       config_int, load_config, model_from_dict, mode_params, weyl_ratio)

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_NUMERICAL = 4


class ModelInvalid(RuntimeError):
    pass


def _section(doc: dict, name: str) -> dict:
    """Optional subcommand section `name` of the config, a JSON object."""
    opts = doc.get(name, {})
    if not isinstance(opts, dict):
        raise ConfigError(name, "must be a JSON object")
    return opts


def _grid_from_config(doc: dict) -> TimeGrid:
    spec = doc.get("grid")
    if not isinstance(spec, dict):
        raise ConfigError("grid", "missing grid spec {t_start, t_end, steps}")
    t0 = config_float(spec.get("t_start"), "grid.t_start")
    t1 = config_float(spec.get("t_end"), "grid.t_end")
    steps = _at_least_one(spec.get("steps"), "grid.steps")
    try:
        return TimeGrid.uniform(t0, t1, steps)
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from None


def _config_list(raw, field: str) -> list:
    """JSON list, possibly nested, from config field `field`, with every
    number in it read by config_float."""
    if not isinstance(raw, list):
        raise ConfigError(field, f"must be a JSON list, got {raw!r}")
    return [_config_list(v, field) if isinstance(v, list) else config_float(v, field) for v in raw]


def _space_from_config(doc: dict, model: SpectralModel) -> np.ndarray:
    spec = doc.get("space")
    if spec is None:
        raise ConfigError("space", "missing space spec ({points: [...]} or {lattice: n})")
    if isinstance(spec, dict) and "points" in spec:
        return as_points(_config_list(spec["points"], "space.points"), model.d)
    if isinstance(spec, dict) and "lattice" in spec:
        n = _at_least_one(spec["lattice"], "space.lattice")
        axes = [np.linspace(0.0, ell, n + 2)[1:-1] for ell in model.basis.extents]
        return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    raise ConfigError("space", "must contain 'points' or 'lattice'")


def _at_least_one(raw, field: str) -> int:
    """Count from config field or option `field`, checked to be >= 1."""
    return config_checked(raw, field, lambda v: v >= 1, "must be >= 1", config_int)


def _mode_index(model: SpectralModel, raw, field: str) -> int:
    """Mode index (1-based) from config field `field`, checked against [1, J]."""
    return config_checked(raw, field, lambda j: 1 <= j <= model.J, f"must be in [1, {model.J}]",
                          config_int)


def _seed_from(args, doc: dict) -> SeedSpec:
    """The master seed: --seed when given, else config field `seed` (default 0)."""
    field, raw = ("seed", doc.get("seed", 0)) if args.seed is None else ("--seed", args.seed)
    return SeedSpec(config_checked(raw, field, lambda v: 0 <= v < 2 ** 64, "must be in [0, 2^64)",
                                   config_int))


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_basis(args, doc: dict, model: SpectralModel) -> int:
    out = _out_dir(args) / "basis.csv"
    lams = zip(model.basis.eigenvalues, model.basis_tilde.eigenvalues)
    write_csv(out, ("j", "lambda", "lambda_tilde", "weyl_ratio"),
              ((j, lam, lam_t, lam / j ** (2.0 / model.d))
               for j, (lam, lam_t) in enumerate(lams, start=1)))
    if model.J >= 10:
        lo, hi = weyl_ratio(model.basis)
        print(f"weyl ratio extrema over upper half spectrum: "
              f"[{format_number(lo)}, {format_number(hi)}]")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_sample(args, doc: dict, model: SpectralModel) -> int:
    if analysis.variance_series_exponent(model) >= -1.0:
        if not args.force:
            raise ModelInvalid(
                "field variance series fails the eigenvalue-growth summability test "
                "(pass --force to sample the truncated model anyway)")
        print("warning: variance series diverges; sampling the truncated model (--force)")
    grid = _grid_from_config(doc)
    space = _space_from_config(doc, model)
    n_paths = _at_least_one(doc.get("n_paths", 1), "n_paths")
    seed = _seed_from(args, doc)
    if args.threads is not None:
        _at_least_one(args.threads, "--threads")
    sample = sample_field(model, grid, space, n_paths, seed)
    out = _out_dir(args)
    bin_path = out / "field.stwm"
    fieldfile.write_field(bin_path, sample)
    summary = out / "sample_summary.csv"
    write_csv(summary, ("time", "mean", "variance"),
              ((t, v.mean(), v.var(ddof=1) if v.size > 1 else 0.0)
               for t, v in zip(grid.points, sample.values.swapaxes(0, 1))))
    print(f"seed record: master={seed.master} paths=0..{n_paths - 1} "
          f"(stream format {STREAM_FORMAT})")
    print(f"wrote {bin_path}")
    print(f"wrote {summary}")
    return EXIT_OK


def cmd_cov(args, doc: dict, model: SpectralModel) -> int:
    """Covariance table on the grid's upper triangle (s ascending, t >= s):
    one mode's q_j(s, t) from sampler.gram, or the truncated field covariance
    sum_j q_j(s, t) e_j(x) e_j(y) from analysis.field_gram."""
    grid = _grid_from_config(doc)
    opts = _section(doc, "cov")
    target = opts.get("mode", 1)
    if target == "field":
        if "x" not in opts:
            raise ConfigError("cov.x", "field covariance needs spatial points x (and optional y)")
        x = _config_list([opts["x"]], "cov.x")[0]
        y = _config_list([opts["y"]], "cov.y")[0] if "y" in opts else x
        cov = analysis.field_gram(model, grid, x, y)
    else:
        cov = gram(mode_params(model, _mode_index(model, target, "cov.mode")), grid)
    out = _out_dir(args) / "cov.csv"
    pts = grid.points
    write_csv(out, ("s", "t", "value"),
              ((s, pts[j], cov[i, j]) for i, s in enumerate(pts) for j in range(i, pts.size)))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_limits(args, doc: dict, model: SpectralModel) -> int:
    opts = _section(doc, "limits")
    kappa = config_checked(opts.get("temporal_kappa", 1.0), "limits.temporal_kappa",
                           lambda v: v > 0.0, "must be > 0")
    lags = _config_list(opts.get("lags", list(np.geomspace(1e-2, 4.0, 25))), "limits.lags")
    if not all(isinstance(h, float) and h >= 0.0 for h in lags):
        raise ConfigError("limits.lags", f"must be a list of numbers >= 0, got {lags!r}")
    # computed before any file is written: a mode's rate or weight may overflow
    stat = [stationary_variance(mode_params(model, j)) for j in range(1, model.J + 1)]
    out = _out_dir(args)
    stat_path = out / "limits_stationary.csv"
    write_csv(stat_path, ("j", "stationary_var"), enumerate(stat, start=1))
    temp_path = out / "limits_temporal.csv"
    write_csv(temp_path, ("h", "matern_value"),
              ((h, temporal_matern_limit(model.gamma, kappa, h)) for h in lags))
    print(f"wrote {stat_path}")
    print(f"wrote {temp_path}")
    return EXIT_OK


def cmd_regularity(args, doc: dict, model: SpectralModel) -> int:
    try:
        query = analysis.RegularityQuery(n=args.n, tau=args.tau, sigma=args.sigma)
    except ValueError as exc:
        raise ConfigError("query", str(exc)) from None
    report = analysis.check_exponents(model, query)
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK if report.satisfied else EXIT_UNSATISFIED


def _parse_lags(spec: str) -> np.ndarray:
    """Either comma-separated positive floats or a dyadic range '2^-6..2^-12'
    whose exponents lie in [-1074, -2] (positive lags up to 1/4)."""
    spec = spec.strip()
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)

        def dyadic(tok):
            tok = tok.strip()
            if not tok.startswith("2^"):
                raise ValueError(f"expected '2^<exp>', got {tok!r}")
            e = int(tok[2:])
            if not -1074 <= e <= -2:
                raise ValueError(f"dyadic exponent must lie in [-1074, -2], got {e}")
            return e

        e_lo, e_hi = dyadic(lo_s), dyadic(hi_s)
        step = -1 if e_hi < e_lo else 1
        return 2.0 ** np.arange(e_lo, e_hi + step, step, dtype=float)
    vals = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    if vals.size == 0:
        raise ValueError("empty lag list")
    return vals


def cmd_holder(args, doc: dict, model: SpectralModel) -> int:
    try:
        lags = _parse_lags(args.lags)
    except (ValueError, IndexError) as exc:
        raise ConfigError("--lags", str(exc)) from None
    opts = _section(doc, "holder")
    k = mode_params(model, _mode_index(model, opts.get("mode", 1), "holder.mode"))
    try:
        est = analysis.estimate_holder(k, args.t0, lags)
    except ValueError as exc:
        raise ConfigError("--t0/--lags", str(exc)) from None
    theory = analysis.holder_theory_slope(model.gamma)
    print(f"estimated slope: {format_number(est.slope)}")
    print(f"theory 2*min(gamma-1/2, 1): {format_number(theory)}")
    print(f"fit residual (rms): {format_number(est.residual)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stwm",
        description="Sampling and covariance analysis of spatiotemporal Whittle-Matern fields")
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--out", help="output directory (default: current directory)")
    parser.add_argument("--seed", type=int, help="master seed (64-bit unsigned)")
    parser.add_argument("--threads", type=int,
                        help="accepted and ignored: sampling is serial (must be >= 1)")
    parser.add_argument("--force", action="store_true",
                        help="sample even when the variance series diverges")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("basis", help="eigenvalue table with growth-law ratios")
    sub.add_parser("sample", help="sample field paths; writes binary field + summary CSV")
    sub.add_parser("cov", help="per-mode or field covariance table")
    sub.add_parser("limits", help="stationary variances and the temporal Matern curve")
    reg = sub.add_parser("regularity", help="exponent-condition report (exit 0 iff satisfied)")
    reg.add_argument("--n", type=int, default=0, help="time derivatives")
    reg.add_argument("--tau", type=float, default=0.0, help="Holder exponent in [0,1)")
    reg.add_argument("--sigma", type=float, default=0.0, help="spatial exponent")
    hold = sub.add_parser("holder", help="mean-square Holder slope from exact increments")
    hold.add_argument("--t0", type=float, default=5.0, help="base time (>= 1)")
    hold.add_argument("--lags", default="2^-6..2^-12",
                      help="comma-separated lags or dyadic range like 2^-6..2^-12")
    return parser


_COMMANDS = {
    "basis": cmd_basis,
    "sample": cmd_sample,
    "cov": cmd_cov,
    "limits": cmd_limits,
    "regularity": cmd_regularity,
    "holder": cmd_holder,
}

# subcommands whose covariances exist only for a finite-variance solution
_NEED_FINITE_VARIANCE = ("sample", "cov", "limits", "holder")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is None:
            raise ConfigError("--config", "a config file is required")
        doc = load_config(args.config)
        model = model_from_dict(doc)
        if args.command in _NEED_FINITE_VARIANCE and not model.gamma > 0.5:
            raise ModelInvalid(f"{args.command} requires gamma > 1/2, got gamma={model.gamma}")
        return _COMMANDS[args.command](args, doc, model)
    except ModelInvalid as exc:
        print(f"model invalid: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (CholeskyError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical failure: the host refused an allocation ({exc})", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError among them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
