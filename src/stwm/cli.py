"""Command-line front end.

Commands: basis, sample, cov, limits, regularity, holder (the table
_COMMANDS). `main` checks the global flags, loads the --config JSON document
and builds the model once (spectral.load_config, spectral.model_from_dict),
refuses gamma <= 1/2 (model invalid) for the commands that need a
finite-variance solution, and passes (args, doc, model) to the command.
Tables and printed numbers go through fieldfile.write_csv and
fieldfile.format_number. Randomized commands print their full seed record
so any run can be replayed. Exit codes: 0 ok / condition satisfied, 1
condition unsatisfied, 2 config error (an output that cannot be created or
written among them, named '--out'), 3 model invalid (existence condition
violated), 4 numerical failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, fieldfile
from .fieldfile import format_number, write_csv
from .kernel import TimeGrid, gram, temporal_matern_limit
from .sampler import STREAM_FORMAT, CholeskyError, SeedSpec, sample_field_chunks
from .spectral import (ConfigError, SpectralModel, check_members, config_checked, config_float,
                       config_int, config_numbers, config_points, load_config, model_from_dict,
                       mode_params, weyl_ratio)

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_NUMERICAL = 4


class ModelInvalid(RuntimeError):
    pass


# members of a run configuration's sections; model_from_dict checks the model's
_SECTIONS = {"grid": ("t_start", "t_end", "steps"), "cov": ("mode", "x", "y"),
             "limits": ("temporal_kappa", "lags"), "holder": ("mode", "t0", "lags"),
             "regularity": ("n", "tau", "sigma")}


def _check_members(doc: dict):
    """Check the shape of a run configuration before any value is read:
    refuse an unknown member of it or of one of its sections, then a
    section that is not a JSON object, then a space that is not an object
    of one member, points or lattice. A bare model document is left to
    model_from_dict."""
    if "model" not in doc:
        return
    check_members(doc, ("model", "space", "n_paths", "seed", *_SECTIONS))
    for name, members in _SECTIONS.items():
        if isinstance(doc.get(name), dict):
            check_members(doc[name], members, f"{name}.")
    for name in _SECTIONS:
        if not isinstance(doc.get(name, {}), dict):
            raise ConfigError(name, "must be a JSON object")
    space = doc.get("space")
    if "space" in doc and not (isinstance(space, dict) and len(space) == 1
                               and space.keys() <= {"points", "lattice"}):
        raise ConfigError("space", "must hold one member, 'points' or 'lattice'")


def _grid_from_config(doc: dict, model: SpectralModel) -> TimeGrid:
    spec = doc.get("grid")
    if spec is None:
        raise ConfigError("grid", "missing grid spec {t_start, t_end, steps}")
    # t_start >= 0 and t_end <= T bound the span that linspace forms
    t0 = config_checked(spec.get("t_start"), "grid.t_start", lambda v: v >= 0.0, "must be >= 0")
    t1 = config_checked(spec.get("t_end"), "grid.t_end", lambda v: v <= model.T,
                        f"must not exceed the model horizon T = {model.T}")
    steps = _at_least_one(spec.get("steps"), "grid.steps")
    try:
        return TimeGrid.uniform(t0, t1, steps)
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from None


def _space_from_config(doc: dict, model: SpectralModel) -> np.ndarray:
    spec = doc.get("space")
    if spec is None:
        raise ConfigError("space", "missing space spec ({points: [...]} or {lattice: n})")
    if "points" in spec:
        return config_points(spec["points"], "space.points", model.basis)
    n = _at_least_one(spec["lattice"], "space.lattice")
    axes = [np.linspace(0.0, ell, n + 2)[1:-1] for ell in model.basis.extents]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _at_least_one(raw, field: str) -> int:
    """Count from config field or option `field`, checked to be >= 1."""
    return config_checked(raw, field, lambda v: v >= 1, "must be >= 1", config_int)


def _mode_index(model: SpectralModel, raw, field: str) -> int:
    """Mode index (1-based) from config field `field`, checked against [1, J]."""
    return config_checked(raw, field, lambda j: 1 <= j <= model.J, f"must be in [1, {model.J}]",
                          config_int)


def _seed(raw, field: str) -> int:
    """Master seed from config field or option `field`, checked against [0, 2^64)."""
    return config_checked(raw, field, lambda v: 0 <= v < 2 ** 64, "must be in [0, 2^64)",
                          config_int)


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
    grid = _grid_from_config(doc, model)
    space = _space_from_config(doc, model)
    n_paths = _at_least_one(doc.get("n_paths", 1), "n_paths")
    if n_paths >= 2 ** 32:
        raise ConfigError("n_paths", f"must be below 2^32, the field file's limit, got {n_paths}")
    seed = SeedSpec(_seed(doc.get("seed", 0), "seed") if args.seed is None else args.seed)
    chunks = sample_field_chunks(model, grid, space, n_paths, seed)  # raises every Gram failure
    out = _out_dir(args)
    bin_path = out / "field.stwm"
    sums = np.zeros((2, grid.n))  # per time: sum and sum of squares over paths and points

    def summed():
        for chunk in chunks:
            v = chunk.values
            sums[0] += v.sum(axis=(0, 2))
            sums[1] += np.einsum("ptx,ptx->t", v, v)
            yield chunk

    fieldfile.write_field_chunks(bin_path, n_paths, summed())
    # the field's mean is 0, so the sum of squares loses no accuracy to the mean's
    count = n_paths * len(space)
    mean = sums[0] / count
    var = (sums[1] - sums[0] * mean) / (count - 1) if count > 1 else np.zeros(grid.n)
    summary = out / "sample_summary.csv"
    write_csv(summary, ("time", "mean", "variance"), zip(grid.points, mean, var))
    print(f"seed record: master={seed.master} paths=0..{n_paths - 1} "
          f"(stream format {STREAM_FORMAT})")
    print(f"wrote {bin_path}")
    print(f"wrote {summary}")
    return EXIT_OK


def cmd_cov(args, doc: dict, model: SpectralModel) -> int:
    """Covariance table on the grid's upper triangle (s ascending, t >= s):
    one mode's q_j(s, t) from kernel.gram, or the truncated field covariance
    sum_j q_j(s, t) e_j(x) e_j(y) from analysis.field_gram."""
    grid = _grid_from_config(doc, model)
    opts = doc.get("cov", {})
    target = opts.get("mode", 1)
    if target == "field":
        if "x" not in opts:
            raise ConfigError("cov.x", "field covariance needs spatial points x (and optional y)")
        x = config_points(opts["x"], "cov.x", model.basis, single=True)[0]
        y = config_points(opts["y"], "cov.y", model.basis, single=True)[0] if "y" in opts else x
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
    opts = doc.get("limits", {})
    kappa = config_checked(opts.get("temporal_kappa", 1.0), "limits.temporal_kappa",
                           lambda v: v > 0.0, "must be > 0")
    lags = config_numbers(opts.get("lags", list(np.geomspace(1e-2, 4.0, 25))), "limits.lags")
    if min(lags, default=0.0) < 0.0:
        raise ConfigError("limits.lags", f"must be >= 0, got {min(lags)!r}")
    # formed before any file is written: a rate, weight or variance may overflow
    stat = analysis.asymptotic_marginal_cov(model).coefficients
    temporal = [(h, temporal_matern_limit(model.gamma, kappa, h)) for h in lags]
    out = _out_dir(args)
    stat_path = out / "limits_stationary.csv"
    write_csv(stat_path, ("j", "stationary_var"), enumerate(stat, start=1))
    temp_path = out / "limits_temporal.csv"
    write_csv(temp_path, ("h", "matern_value"), temporal)
    print(f"wrote {stat_path}")
    print(f"wrote {temp_path}")
    return EXIT_OK


def cmd_regularity(args, doc: dict, model: SpectralModel) -> int:
    opts = doc.get("regularity", {})
    n, tau, sigma = (read(opts.get(name, 0), f"regularity.{name}") for name, read in
                     (("n", config_int), ("tau", config_float), ("sigma", config_float)))
    try:
        query = analysis.RegularityQuery(n=n, tau=tau, sigma=sigma)
    except ValueError as exc:
        raise ConfigError("regularity", str(exc)) from None
    report = analysis.check_exponents(model, query)
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK if report.satisfied else EXIT_UNSATISFIED


def cmd_holder(args, doc: dict, model: SpectralModel) -> int:
    opts = doc.get("holder", {})
    k = mode_params(model, _mode_index(model, opts.get("mode", 1), "holder.mode"))
    t0 = config_float(opts.get("t0", 5.0), "holder.t0")
    lags = config_numbers(opts.get("lags", [2.0 ** -e for e in range(6, 13)]), "holder.lags")
    try:
        est = analysis.estimate_holder(k, t0, lags)
    except ValueError as exc:  # estimate_holder checks t0 first, then the lags against it
        raise ConfigError("holder.t0" if str(exc).startswith("t0 ") else "holder.lags",
                          str(exc)) from None
    theory = analysis.holder_theory_slope(model.gamma)
    print(f"estimated slope: {format_number(est.slope)}")
    print(f"theory 2*min(gamma-1/2, 1): {format_number(theory)}")
    print(f"fit residual (rms): {format_number(est.residual)}")
    return EXIT_OK


# command: (function, help, needs a finite-variance solution); inputs are config fields
_COMMANDS = {
    "basis": (cmd_basis, "eigenvalue table with growth-law ratios", False),
    "sample": (cmd_sample, "sample field paths; writes binary field + summary CSV", True),
    "cov": (cmd_cov, "per-mode or field covariance table", True),
    "limits": (cmd_limits, "stationary variances and the temporal Matern curve", True),
    "regularity": (cmd_regularity, "exponent-condition report (exit 0 iff satisfied)", False),
    "holder": (cmd_holder, "mean-square Holder slope from exact increments", True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stwm", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Sampling and covariance analysis of spatiotemporal Whittle-Matern fields",
        epilog="commands:\n" + "\n".join(f"  {n:<12}{row[1]}" for n, row in _COMMANDS.items()))
    parser.add_argument("command", choices=_COMMANDS, help="the command to run (see below)")
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--out", help="output directory (default: current directory)")
    parser.add_argument("--seed", type=int, help="master seed (64-bit unsigned)")
    parser.add_argument("--threads", type=int,
                        help="accepted and ignored: sampling is serial (must be >= 1)")
    parser.add_argument("--force", action="store_true",
                        help="sample even when the variance series diverges")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, needs_finite_variance = _COMMANDS[args.command]
    try:
        if args.config is None:
            raise ConfigError("--config", "a config file is required")
        if args.seed is not None:
            _seed(args.seed, "--seed")
        if args.threads is not None:
            _at_least_one(args.threads, "--threads")
        doc = load_config(args.config)
        _check_members(doc)
        model = model_from_dict(doc)
        if needs_finite_variance and not model.gamma > 0.5:
            raise ModelInvalid(f"{args.command} requires gamma > 1/2, got gamma={model.gamma}")
        try:
            return run(args, doc, model)
        except OSError as exc:  # creating or writing an output
            target = (args.out or ".") if exc.filename is None else exc.filename
            raise ConfigError("--out", f"cannot write {target}: {exc.strerror or exc}") from None
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
