"""Workload process of the stwm benchmark.

One process runs one workload with a single op in flight (closed loop, one
client). It imports ``stwm`` from the ``src`` directory of the checkout it
lives in, builds its inputs from ``--seed``, runs one untimed warm-up op, then
times ops until ``--seconds`` have passed. Every op's output is checked and
every op's parameter draw is recorded, so any op can be replayed. The result
is written as JSON to ``--result``; ``run.py`` turns it into metrics.

Roles: ``setup`` stops after the warm-up op (it measures set-up time and
replays the warm-up draw in a fresh process); ``main`` also runs the timed
phase. With ``--trace 1`` each draw runs twice, untraced and then traced,
and the two outputs must be bit-identical. Untraced runs time a fixed speed
probe after the warm-up op and after every timed op (outside the timed call),
so each op's time can be scaled to the host's speed state it ran in.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# first-order error of factorized_covariance against mode_var that
# test_c07 establishes: <= 1e-2 at 2^12 cells, order >= 1 in the cell width
C07_REL_ERR_AT_4096 = 1e-2
COV_CHECKED_ENTRIES = 3
COV_TOL = 1e-9  # x sum_j |q_j e_j(x) e_j(y)|; observed default-vs-TIGHT gap ~1e-11
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
INVERSE_PHI = (math.sqrt(5.0) - 1.0) / 2.0
PROBE_REPEATS = 3
PROBE_ITERATIONS = 50_000


def import_stwm():
    """Import stwm from this checkout's src directory, never from elsewhere."""
    if not (SRC / "stwm" / "__init__.py").is_file():
        raise SystemExit(f"stwm sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import stwm
    from stwm import analysis, cli, fieldfile, kernel, sampler, spectral

    if Path(stwm.__file__).resolve().parent != (SRC / "stwm").resolve():
        raise SystemExit(f"imported stwm from {stwm.__file__}, not from {SRC}")
    return {"stwm": stwm, "analysis": analysis, "cli": cli, "fieldfile": fieldfile,
            "kernel": kernel, "sampler": sampler, "spectral": spectral}


def spread(u0: float, i: int, lo: float, hi: float) -> float:
    """i-th point of a golden-ratio sequence on [lo, hi] with seeded offset u0:
    every prefix of draws covers the range evenly, so the mix of op costs in a
    run depends little on the seed or on how many ops fit in the time."""
    return lo + (hi - lo) * ((u0 + i * INVERSE_PHI) % 1.0)


def speed_probe() -> float:
    """Median wall time of a fixed interpreter-bound kernel that does not use
    stwm: the host speed state around an op, by which run.py scales it."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_ITERATIONS):
            acc += math.exp(-1e-5 * i) * (i & 7)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Workload:
    """Op factory: draw(i) -> params, prepare(params) -> timed callable,
    check(params, output) -> failures, digest(output) -> replay key."""

    unit = ""
    units_per_op = 0

    def __init__(self, mods, np, seed, workdir):
        self.m = mods
        self.np = np
        self.seed = seed
        self.workdir = workdir
        self.u0 = float(np.random.default_rng([seed, 0]).random())

    def rng(self, *stream):
        return self.np.random.default_rng([self.seed, *stream])

    def draw_warmup(self) -> dict:
        return self.draw_from(self.rng(1), -1)

    def draw(self, i: int) -> dict:
        return self.draw_from(self.rng(2, i), i)

    def pooled_check(self) -> list:
        return []


class CliSample(Workload):
    """`stwm sample` in-process through stwm.cli.main."""

    unit = "mode-path normals"

    def __init__(self, mods, np, seed, workdir, *, d, J, alpha, beta, gamma, per_op_gamma,
                 t_end, steps, lattice, n_paths, threads):
        super().__init__(mods, np, seed, workdir)
        self.d, self.J, self.alpha, self.beta = d, J, alpha, beta
        self.gamma_range, self.per_op_gamma = gamma, per_op_gamma
        self.t_end, self.steps, self.lattice = t_end, steps, lattice
        self.n_paths, self.threads = n_paths, threads
        self.run_gamma = float(self.rng(0, 1).uniform(*gamma))
        self.units_per_op = n_paths * J * (steps + 1)
        self.n_points = lattice ** d
        self.probe = self.n_points // 2  # pooled variance point, at t_end
        self.z2_sum, self.z_count = 0.0, 0
        self._var_cache = {}

    def model_doc(self, gamma):
        return {"d": self.d, "extents": math.pi if self.d == 1 else [math.pi] * self.d,
                "kappa2": 0.0, "kappa2_tilde": 0.0, "J": self.J, "alpha": self.alpha,
                "beta": self.beta, "gamma": gamma, "T": self.t_end}

    def draw_from(self, rng, i):
        gamma = spread(self.u0, i + 1, *self.gamma_range) if self.per_op_gamma else self.run_gamma
        return {"gamma": gamma, "seed": int(rng.integers(0, 2 ** 63))}

    def prepare(self, p):
        cfg = {"model": self.model_doc(p["gamma"]),
               "grid": {"t_start": 0.0, "t_end": self.t_end, "steps": self.steps},
               "space": {"lattice": self.lattice}, "n_paths": self.n_paths}
        cfg_path = self.workdir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["--config", str(cfg_path), "--out", str(self.workdir), "--seed", str(p["seed"]),
                "--threads", str(self.threads), "sample"]
        cli = self.m["cli"]
        return lambda: cli.main(argv)

    def digest(self, out):
        return sha256_files(self.workdir / "field.stwm", self.workdir / "sample_summary.csv")

    def probe_variance(self, gamma, x):
        key = (gamma, x.tobytes())
        if key not in self._var_cache:
            model = self.m["spectral"].model_from_dict(self.model_doc(gamma))
            self._var_cache[key] = self.m["analysis"].field_cov(
                model, self.t_end, self.t_end, x, x).value
        return self._var_cache[key]

    def check(self, p, rc, pool=True):
        np = self.np
        if rc != 0:
            return [f"stwm sample exited {rc}"]
        fs = self.m["fieldfile"].read_field(self.workdir / "field.stwm")
        shape = (self.n_paths, self.steps + 1, self.n_points)
        if fs.values.shape != shape:
            return [f"field shape {fs.values.shape}, asked for {shape}"]
        failures = []
        if not np.array_equal(fs.times.points, np.linspace(0.0, self.t_end, self.steps + 1)):
            failures.append("time grid differs from the requested grid")
        if not np.all(np.isfinite(fs.values)):
            failures.append("non-finite field values")
        if np.any(fs.values[:, 0, :] != 0.0):
            failures.append("t=0 row is not exactly 0")
        if pool and not failures:
            x = fs.values[:, -1, self.probe]
            var = self.probe_variance(p["gamma"], fs.space_points[self.probe])
            self.z2_sum += float(np.sum(x * x)) / var
            self.z_count += x.size
        return failures

    def inject(self, p, out):
        """Corrupt the written field: one t=0 value becomes non-zero."""
        path = self.workdir / "field.stwm"
        data = bytearray(path.read_bytes())
        data[24:32] = self.np.float64(1e-3).astype("<f8").tobytes()  # (path 0, t=0, point 0)
        path.write_bytes(bytes(data))
        return out

    def pooled_check(self):
        """Pooled E[(X/sd)^2] = 1 at the probe point at t_end, within the 4
        standard errors that test_c06/test_c11 use."""
        if self.z_count == 0:
            return ["no samples for the pooled variance check"]
        emp = self.z2_sum / self.z_count
        se = math.sqrt(2.0 / self.z_count)
        if abs(emp - 1.0) > 4.0 * se:
            return [f"pooled variance ratio {emp:.5f} is {abs(emp - 1.0) / se:.2f} SE from 1"]
        return []


class CliCov(Workload):
    """`stwm cov` field table in-process through stwm.cli.main."""

    unit = "CSV entries"

    def __init__(self, mods, np, seed, workdir, *, J, gamma, t_end, steps):
        super().__init__(mods, np, seed, workdir)
        self.J, self.gamma_range, self.t_end, self.steps = J, gamma, t_end, steps
        self.grid = np.linspace(0.0, t_end, steps + 1)
        self.pairs = [(s, t) for s in self.grid for t in self.grid[self.grid >= s]]
        self.units_per_op = len(self.pairs)
        q = self.m["stwm"].QuadratureConfig
        self.tight = q(rel_tol=1e-12, abs_tol=1e-16, max_subdivisions=4000)

    def model_doc(self, gamma):
        return {"d": 1, "extents": math.pi, "kappa2": 0.0, "kappa2_tilde": 0.0, "J": self.J,
                "alpha": 1.0, "beta": 1.0, "gamma": gamma, "T": self.t_end}

    def draw_from(self, rng, i):
        while True:
            x, y = (float(v) for v in rng.uniform(0.05, math.pi - 0.05, 2))
            if abs(x - y) >= 0.05:
                break
        return {"gamma": spread(self.u0, i + 1, *self.gamma_range), "x": x, "y": y,
                "check_seed": int(rng.integers(0, 2 ** 63))}

    def prepare(self, p):
        cfg = {"model": self.model_doc(p["gamma"]),
               "grid": {"t_start": 0.0, "t_end": self.t_end, "steps": self.steps},
               "cov": {"mode": "field", "x": p["x"], "y": p["y"]}}
        cfg_path = self.workdir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["--config", str(cfg_path), "--out", str(self.workdir), "cov"]
        cli = self.m["cli"]
        return lambda: cli.main(argv)

    def digest(self, out):
        return sha256_files(self.workdir / "cov.csv")

    def checked_rows(self, p):
        """Seeded choice of entries (with s > 0) recomputed at TIGHT tolerance."""
        live = [i for i, (s, _) in enumerate(self.pairs) if s > 0.0]
        rng = self.np.random.default_rng(p["check_seed"])
        return sorted(int(i) for i in rng.choice(live, size=min(COV_CHECKED_ENTRIES, len(live)),
                                                 replace=False))

    def check(self, p, rc, pool=True):
        if rc != 0:
            return [f"stwm cov exited {rc}"]
        lines = (self.workdir / "cov.csv").read_text().splitlines()
        if lines[0] != "s,t,value" or len(lines) != len(self.pairs) + 1:
            return [f"cov table has {len(lines) - 1} rows, expected {len(self.pairs)}"]
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        failures = []
        for (s, t, v), (s_want, t_want) in zip(rows, self.pairs):
            if (s, t) != (float(s_want), float(t_want)):
                return [f"row ({s}, {t}) where ({s_want}, {t_want}) was expected"]
            if not math.isfinite(v):
                failures.append(f"non-finite entry at ({s}, {t})")
            elif s == 0.0 and v != 0.0:
                failures.append(f"entry at s=0 is {v}, not exactly 0")
        model = self.m["spectral"].model_from_dict(self.model_doc(p["gamma"]))
        spectral, kernel = self.m["spectral"], self.m["kernel"]
        ex = spectral.evaluate_basis(model.basis, [p["x"]])[0]
        ey = spectral.evaluate_basis(model.basis, [p["y"]])[0]
        for i in self.checked_rows(p):
            s, t, v = rows[i]
            terms = [kernel.mode_cov(spectral.mode_params(model, j), s, t, self.tight)
                     * ex[j - 1] * ey[j - 1] for j in range(1, self.J + 1)]
            ref = math.fsum(terms)
            scale = math.fsum(abs(z) for z in terms)
            if not abs(v - ref) <= COV_TOL * scale:
                failures.append(f"entry ({s}, {t}) = {v!r}, TIGHT recomputation {ref!r}")
        return failures

    def inject(self, p, out):
        """Corrupt the table: one checked entry is perturbed by 1e-6 relative."""
        path = self.workdir / "cov.csv"
        lines = path.read_text().splitlines()
        row = self.checked_rows(p)[0] + 1
        s, t, v = lines[row].split(",")
        lines[row] = f"{s},{t},{format(float(v) * (1.0 + 1e-6), '.17g')}"
        path.write_text("\n".join(lines) + "\n")
        return out


class Factorized(Workload):
    """factorized_covariance plus factorized_sample on a fine uniform grid."""

    unit = "fine-grid points"

    def __init__(self, mods, np, seed, workdir, *, cells, delta, gamma):
        super().__init__(mods, np, seed, workdir)
        self.cells, self.delta, self.gamma_range = cells, delta, gamma
        self.grid = self.m["sampler"].TimeGrid.uniform(0.0, 1.0, cells)
        self.units_per_op = cells + 1
        self.max_rel_err = C07_REL_ERR_AT_4096 * 4096 / cells

    def draw_from(self, rng, i):
        return {"gamma": spread(self.u0, i + 1, *self.gamma_range),
                "seed": int(rng.integers(0, 2 ** 63))}

    def prepare(self, p):
        stwm, sampler = self.m["stwm"], self.m["sampler"]
        k = stwm.ModeKernel(mu=1.0, weight=1.0, gamma=p["gamma"])
        seed = stwm.SeedSpec(p["seed"])

        def op():
            var = sampler.factorized_covariance(k, self.delta, self.grid)
            path = sampler.factorized_sample(k, self.delta, self.grid, seed)
            return var, path

        return op

    def digest(self, out):
        var, path = out
        return hashlib.sha256(self.np.float64(var).tobytes() + path.tobytes()).hexdigest()

    def check(self, p, out, pool=True):
        np = self.np
        var, path = out
        k = self.m["stwm"].ModeKernel(mu=1.0, weight=1.0, gamma=p["gamma"])
        want = self.m["kernel"].mode_var(k, 1.0)
        failures = []
        if not abs(var - want) <= self.max_rel_err * want:
            failures.append(f"factorized variance {var!r} vs mode_var {want!r} exceeds "
                            f"the first-order bound {self.max_rel_err:.3g} relative")
        if path.shape != (self.cells + 1,):
            return failures + [f"path shape {path.shape}, asked for {(self.cells + 1,)}"]
        if not np.all(np.isfinite(path)):
            failures.append("non-finite path values")
        if path[0] != 0.0:
            failures.append("path at t=0 is not exactly 0")
        return failures

    def inject(self, p, out):
        var, path = out
        path = path.copy()
        path[0] = 1e-3
        return var, path


# (class, full-size shape, tiny shape for the self-test)
WORKLOADS = {
    "sample_1d_streams": (CliSample, dict(
        d=1, J=64, alpha=1.0, beta=1.0, gamma=(0.9, 1.5), per_op_gamma=False,
        t_end=5.0, steps=2, lattice=32, n_paths=4000, threads=1), dict(J=8, n_paths=200, lattice=8)),
    "sample_2d_gram": (CliSample, dict(
        d=2, J=128, alpha=2.0, beta=1.0, gamma=(1.1, 1.5), per_op_gamma=True,
        t_end=1.0, steps=10, lattice=16, n_paths=100, threads=2), dict(J=8, n_paths=20, lattice=4)),
    "cov_table_cli": (CliCov, dict(J=64, gamma=(0.8, 1.6), t_end=5.0, steps=10),
                      dict(J=8, steps=4)),
    "factorized_fine_grid": (Factorized, dict(cells=2 ** 11, delta=0.3, gamma=(1.0, 1.6)),
                             dict(cells=2 ** 7)),
}


def run_op(wl, kind, p, tracer=None, op_id=-1, inject=False, pool=True):
    """Run one op: untimed preparation, the timed call, then the checks."""
    fn = wl.prepare(p)
    rec = {"kind": kind, "params": p, "units": wl.units_per_op, "failures": [], "digest": None}
    t0 = time.perf_counter()
    try:
        out = tracer.traced_op(op_id, fn) if tracer is not None else fn()
    except Exception:
        rec["wall_s"] = time.perf_counter() - t0
        rec["failures"].append("op raised: " + traceback.format_exc(limit=3))
        return rec
    t1 = time.perf_counter()
    rec["wall_s"] = t1 - t0
    try:
        if inject:
            out = wl.inject(p, out)
        rec["failures"] = wl.check(p, out, pool)
        rec["digest"] = wl.digest(out)
    except Exception:
        rec["failures"].append("check raised: " + traceback.format_exc(limit=3))
    rec["check_s"] = time.perf_counter() - t1
    return rec


def environment(np) -> dict:
    """Versions and thread settings that numbers from this run depend on."""
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
           "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
           "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = int(fn())
                return env
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), default="main")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject", action="store_true",
                    help="corrupt the first timed op's output (self-test of the checks)")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    # set-up time is bracketed by two speed probes; this one's own duration is
    # taken out of it
    t0 = time.perf_counter()
    start_probe = speed_probe()
    start_probe_cost = time.perf_counter() - t0
    mods = import_stwm()
    import numpy as np

    cls, shape, tiny = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = cls(mods, np, args.seed, workdir, **{**shape, **(tiny if args.tiny else {})})
    ops = [run_op(wl, "warmup", wl.draw_warmup())]
    result = {"role": args.role, "first_op_monotonic": time.monotonic(), "unit": wl.unit,
              "ops": ops}
    # outside set-up time; it is also the probe before op 0
    probe = speed_probe()
    result["setup_probes_s"] = [start_probe, probe]
    result["setup_probe_cost_s"] = start_probe_cost
    if args.role == "main":
        tracer = Tracer(mods) if args.trace else None
        start = time.perf_counter()
        i = 0
        while True:
            p = wl.draw(i)
            if tracer is None:
                ops.append(run_op(wl, "timed", p, inject=args.inject and i == 0))
                ops[-1]["probe_before_s"] = probe
                probe = ops[-1]["probe_after_s"] = speed_probe()
                n_min = MIN_OPS
            else:
                plain = run_op(wl, "untraced", p)
                traced = run_op(wl, "traced", p, tracer, op_id=i, pool=False)
                if plain["digest"] != traced["digest"]:
                    traced["failures"].append("traced output differs from the untraced output")
                ops += [plain, traced]
                n_min = MIN_TRACED_PAIRS
            i += 1
            typical = statistics.median(o["wall_s"] for o in ops[1:])
            if i >= n_min and time.perf_counter() - start + 0.5 * typical >= args.seconds:
                break
        result["pooled_failures"] = wl.pooled_check()
        result["environment"] = environment(np)
        if tracer is not None:
            Path(args.spans).write_text(json.dumps(tracer.dump()))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
