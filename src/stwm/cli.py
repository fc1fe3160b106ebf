"""Command-line front end.

Commands: basis, sample, cov, limits, regularity, holder (the table
_COMMANDS). `main` checks the global flags, builds the model once from the
--config JSON document (spectral.load_config, then model_from_dict, which
checks the config's shape), runs the command's model check (gamma <= 1/2
is model invalid for the commands that need a finite-variance solution),
and passes (args, cfg, model) to the command, cfg its resolved_config.
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
from .spectral import (SCHEMA, ConfigError, SpectralModel, load_config, model_from_dict,
                       mode_params, read_member, read_section, weyl_ratio)

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_NUMERICAL = 4


class ModelInvalid(RuntimeError):
    pass


def resolved_config(doc: dict, model: SpectralModel, command: str) -> dict:
    """The run configuration `command` runs from: the model section and each
    section that its _COMMANDS row names, read by spectral.read_section with
    defaults filled in, then checked against the rules that span members.
    Written back as a config it runs the same and resolves to itself."""
    cfg = {}
    for name in ("model", *_COMMANDS[command][3]):
        cfg[name] = section = read_section(doc, name, model)
        if name == "grid":  # t_start >= 0 and t_end <= T bound the span linspace forms
            if not section["t_end"] <= model.T:
                raise ConfigError("grid.t_end", f"must not exceed the model horizon T = "
                                                f"{model.T}, got {section['t_end']!r}")
            try:
                TimeGrid.uniform(**section)
            except ValueError as exc:
                raise ConfigError("grid", str(exc)) from None
        elif name == "space" and not section:
            raise ConfigError("space", "missing space spec ({points: [...]} or {lattice: n})")
        elif name == "cov" and section["mode"] != "field":  # a mode target reads no point
            for key in ("x", "y"):
                if key in section:
                    raise ConfigError(f"cov.{key}", 'only "mode": "field" reads points x and y')
        elif name == "cov":
            if "x" not in section:
                raise ConfigError("cov.x", "field covariance needs spatial points x "
                                           "(and optional y)")
            section.setdefault("y", section["x"])
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_basis(args, cfg: dict, model: SpectralModel) -> int:
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


def _points(space: dict, model: SpectralModel) -> np.ndarray:
    if "points" in space:
        return np.array(space["points"])
    n = space["lattice"]
    axes = [np.linspace(0.0, ell, n + 2)[1:-1] for ell in model.basis.extents]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def cmd_sample(args, cfg: dict, model: SpectralModel) -> int:
    grid = TimeGrid.uniform(**cfg["grid"])
    space = _points(cfg["space"], model)
    n_paths, seed = cfg["n_paths"], SeedSpec(cfg["seed"])
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


def cmd_cov(args, cfg: dict, model: SpectralModel) -> int:
    """Covariance table on the grid's upper triangle (s ascending, t >= s):
    one mode's q_j(s, t) from kernel.gram, or the truncated field covariance
    sum_j q_j(s, t) e_j(x) e_j(y) from analysis.field_gram."""
    grid = TimeGrid.uniform(**cfg["grid"])
    opts = cfg["cov"]
    if opts["mode"] == "field":
        cov = analysis.field_gram(model, grid, np.array(opts["x"]), np.array(opts["y"]))
    else:
        cov = gram(mode_params(model, opts["mode"]), grid)
    out = _out_dir(args) / "cov.csv"
    pts = grid.points
    write_csv(out, ("s", "t", "value"),
              ((s, pts[j], cov[i, j]) for i, s in enumerate(pts) for j in range(i, pts.size)))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_limits(args, cfg: dict, model: SpectralModel) -> int:
    opts = cfg["limits"]
    # formed before any file is written: a rate, weight or variance may overflow
    stat = analysis.asymptotic_marginal_cov(model)
    temporal = [(h, temporal_matern_limit(model.gamma, opts["temporal_kappa"], h))
                for h in opts["lags"]]
    out = _out_dir(args)
    stat_path = out / "limits_stationary.csv"
    write_csv(stat_path, ("j", "stationary_var"), enumerate(stat, start=1))
    temp_path = out / "limits_temporal.csv"
    write_csv(temp_path, ("h", "matern_value"), temporal)
    print(f"wrote {stat_path}")
    print(f"wrote {temp_path}")
    return EXIT_OK


def cmd_regularity(args, cfg: dict, model: SpectralModel) -> int:
    try:
        query = analysis.RegularityQuery(**cfg["regularity"])
    except ValueError as exc:
        raise ConfigError("regularity", str(exc)) from None
    report = analysis.check_exponents(model, query)
    print(json.dumps(report.as_dict(), indent=2, allow_nan=False))
    return EXIT_OK if report.satisfied else EXIT_UNSATISFIED


def cmd_holder(args, cfg: dict, model: SpectralModel) -> int:
    opts = cfg["holder"]
    k = mode_params(model, opts["mode"])
    try:
        est = analysis.estimate_holder(k, opts["t0"], opts["lags"])
    except ValueError as exc:  # t0 is in bounds, so the lags are at fault
        raise ConfigError("holder.lags", str(exc)) from None
    theory = analysis.holder_theory_slope(model.gamma)
    print(f"estimated slope: {format_number(est.slope)}")
    print(f"theory 2*min(gamma-1/2, 1): {format_number(theory)}")
    print(f"fit residual (rms): {format_number(est.residual)}")
    return EXIT_OK


# command: (function, help, what the model needs, checked before any section is
# read: "finite" variance, gamma > 1/2, or a "summable" variance series too;
# the sections and top-level members read); the inputs are config fields
_COMMANDS = {
    "basis": (cmd_basis, "eigenvalue table with growth-law ratios", None, ()),
    "sample": (cmd_sample, "sample field paths; writes binary field + summary CSV", "summable",
               ("grid", "space", "n_paths", "seed")),
    "cov": (cmd_cov, "per-mode or field covariance table", "finite", ("grid", "cov")),
    "limits": (cmd_limits, "stationary variances and the temporal Matern curve", "finite",
               ("limits",)),
    "regularity": (cmd_regularity, "exponent-condition report (exit 0 iff satisfied)", None,
                   ("regularity",)),
    "holder": (cmd_holder, "mean-square Holder slope from exact increments", "finite",
               ("holder",)),
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
    run, _, needs, _ = _COMMANDS[args.command]
    try:
        if args.config is None:
            raise ConfigError("--config", "a config file is required")
        if args.seed is not None:
            read_member(SCHEMA["seed"], args.seed, "--seed")
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
        doc = load_config(args.config)
        model = model_from_dict(doc)
        if needs and not model.gamma > 0.5:
            raise ModelInvalid(f"{args.command} requires gamma > 1/2, got gamma={model.gamma}")
        if needs == "summable" and analysis.spectral_margin(model) <= 0:
            if not args.force:
                raise ModelInvalid(
                    "field variance series fails the eigenvalue-growth summability test "
                    "(pass --force to sample the truncated model anyway)")
            print("warning: variance series diverges; sampling the truncated model (--force)")
        # a bare model document runs as {"model": doc}; the --seed flag's seed is the one used
        doc = doc if "model" in doc else {"model": doc}
        cfg = resolved_config(doc if args.seed is None else dict(doc, seed=args.seed), model,
                              args.command)
        try:
            return run(args, cfg, model)
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
