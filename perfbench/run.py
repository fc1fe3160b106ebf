"""End-to-end benchmark of stwm: seeded, closed-loop workloads.

BENCHMARK.json lists sample_1d_streams, cov_table_cli and factorized_fine_grid.
sample_2d_gram (Gram assembly on the square, two sampler threads) runs the
same way but is not listed: on a shared 2-vCPU host its op times spread more
than the benchmark's bound from run to run, scaled or not (see below).

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in its own process (perfbench/workloads.py) with one op in
flight. With --trace 0 the run reports the end-to-end metrics: set-up time is
sampled in several fresh processes and reported as their median, and the
timed phase runs in the last of them. With --trace 1 it reports per-layer
metrics from an outside-in span trace (perfbench/tracer.py).

The vCPUs of a shared host switch between speed states up to ~2.5x apart,
for seconds to minutes, and process CPU time does not show it. So the
end-to-end times are scaled to a nominal machine speed: each op's wall time
is multiplied by PROBE_NOMINAL_S / p, where p is the mean of the speed probes
(a fixed interpreter-bound kernel that does not use stwm) timed just before
and just after the op, and each set-up time likewise by the probes that
bracket it. The unscaled times are printed and kept in the run record.

Every op's output is checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A run record
(environment, per-op parameter draws and speed probes, checks and metrics,
scaled and unscaled) is written under .perfbench-out/.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ROOT_SPAN, layer_summary, thread_busy_ratio

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("sample_1d_streams", "sample_2d_gram", "cov_table_cli", "factorized_fine_grid")
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0
# speed probe time that defines the nominal machine speed (about the probe's
# time on a 2-core Xeon host in its fast state)
PROBE_NOMINAL_S = 0.010

END_TO_END_UNITS = {"work_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; self times and counts are per traced op
SELF_TIME_LAYERS = (
    "cli", "spectral.evaluate_basis", "fieldfile.write_field", "sampler.sample_modes",
    "sampler.gram", "kernel.mode_cov", "quadrature.integrate", "analysis.field_cov",
    "sampler.cholesky_psd", "sampler.uniform_mode_gram", "sampler.fractional_convolution",
    "specfun.lower_incomplete_gamma", "sampler.assemble_field",
)
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "fieldfile.write_field.bytes": "bytes",
    "sampler.normals_per_s": "1/s",
    "sampler.gram.calls": "count",
    "sampler.gram.distinct_frac": "ratio",
    "sampler.sample_modes.thread_busy_ratio": "ratio",
    "kernel.mode_cov.calls": "count",
    "kernel.mode_cov.zero_frac": "ratio",
    "quadrature.integrate.calls": "count",
    "quadrature.panels_per_call": "count",
    "sampler.cholesky_psd.calls": "count",
    "sampler.cholesky_psd.gflop": "GFLOP",
    "sampler.cholesky_psd.jitter_frac": "ratio",
    "sampler.cholesky_psd.jitter_max": "abs",
    "sampler.assemble_field.gflop": "GFLOP",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}
COMPUTED = {"fieldfile.write_field.bytes", "sampler.cholesky_psd.gflop",
            "sampler.assemble_field.gflop", "sampler.normals_per_s"}


class BenchError(RuntimeError):
    pass


def run_worker(args, role: str, index: int, deadline: float) -> dict:
    """Start one workload process, wait for it, and return its result."""
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{role}{index}"
    result_path = OUT / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--workdir", str(OUT / "work" / tag), "--result", str(result_path),
           "--spans", str(OUT / f"{args.workload}-s{args.seed}-spans.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd.append("--inject")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{role} process exceeded the {RUN_BUDGET_S:.0f} s budget") from None
    finally:
        shutil.rmtree(OUT / "work" / tag, ignore_errors=True)
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{role} process exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    # set-up ends where the first timed op would start; the benchmark's own
    # check of the warm-up output is not part of it
    result["setup_s"] = (result["first_op_monotonic"] - t0 - result["ops"][0].get("check_s", 0.0)
                         - result["setup_probe_cost_s"])
    return result


def environment_record(args, env: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # a source checkout without git metadata
    return {"git_sha": sha, **env, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}


def end_to_end(results: list, scaled: bool = True) -> dict:
    """End-to-end metrics, with times scaled to the nominal machine speed
    (or, with scaled=False, as measured)."""
    main = results[-1]
    timed = [o for o in main["ops"] if o["kind"] == "timed"]

    def op_scale(o):
        return PROBE_NOMINAL_S / (0.5 * (o["probe_before_s"] + o["probe_after_s"]))

    walls = [o["wall_s"] * (op_scale(o) if scaled else 1.0) for o in timed]
    setups = [r["setup_s"] * (PROBE_NOMINAL_S / statistics.mean(r["setup_probes_s"])
                              if scaled else 1.0) for r in results]
    return {
        "work_per_s": sum(o["units"] for o in timed) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["maxrss_kb"] / 1024.0,
    }


def per_layer(main: dict, trace: dict) -> tuple:
    summary = layer_summary(trace)
    self_s, calls = summary["self_s"], summary["calls"]
    c = trace["counters"]
    traced = [o for o in main["ops"] if o["kind"] == "traced"]
    untraced = [o for o in main["ops"] if o["kind"] == "untraced"]
    n = len(traced)

    def per_op(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": per_op(self_s.get(layer, 0.0)) for layer in SELF_TIME_LAYERS}
    op_wall = summary["wall_s"].get(ROOT_SPAN, 0.0)
    layer_self = sum(v for k, v in self_s.items() if k != ROOT_SPAN)
    m.update({
        "fieldfile.write_field.bytes": per_op(c.get("fieldfile.write_field.bytes", 0.0)),
        "sampler.normals_per_s": ratio(c.get("sampler.normals", 0.0),
                                       self_s.get("sampler.sample_modes", 0.0)),
        "sampler.gram.calls": per_op(calls.get("sampler.gram", 0)),
        "sampler.gram.distinct_frac": ratio(c.get("sampler.gram.distinct", 0.0),
                                            calls.get("sampler.gram", 0)),
        "sampler.sample_modes.thread_busy_ratio": thread_busy_ratio(trace),
        "kernel.mode_cov.calls": per_op(calls.get("kernel.mode_cov", 0)),
        "kernel.mode_cov.zero_frac": ratio(c.get("kernel.mode_cov.zeros", 0.0),
                                           calls.get("kernel.mode_cov", 0)),
        "quadrature.integrate.calls": per_op(calls.get("quadrature.integrate", 0)),
        "quadrature.panels_per_call": ratio(c.get("quadrature.integrate.panels", 0.0),
                                            calls.get("quadrature.integrate", 0)),
        "sampler.cholesky_psd.calls": per_op(calls.get("sampler.cholesky_psd", 0)),
        "sampler.cholesky_psd.gflop": per_op(c.get("sampler.cholesky_psd.flop", 0.0)) * 1e-9,
        "sampler.cholesky_psd.jitter_frac": ratio(c.get("sampler.cholesky_psd.jittered", 0.0),
                                                  calls.get("sampler.cholesky_psd", 0)),
        "sampler.cholesky_psd.jitter_max": c.get("sampler.cholesky_psd.jitter_max", 0.0),
        "sampler.assemble_field.gflop": per_op(c.get("sampler.assemble_field.flop", 0.0)) * 1e-9,
        "trace.overhead_frac": (sum(o["wall_s"] for o in traced)
                                / sum(o["wall_s"] for o in untraced) - 1.0),
        "trace.coverage_frac": ratio(layer_self, op_wall),
    })
    shares = {k: ratio(v, op_wall) for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])}
    return m, shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stwm end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny op shapes (self-test)")
    ap.add_argument("--inject", action="store_true",
                    help="corrupt the first timed op's output (self-test of the checks)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stwm" / "__init__.py").is_file():
        print(f"error: no stwm sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        results = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                results.append(run_worker(args, "setup", i, deadline))
        results.append(run_worker(args, "main", 0, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    main_res = results[-1]

    # every op that ran is checked and counted; the warm-up draw is replayed
    # in each set-up process and must reproduce the main process bit for bit
    warm_digest = main_res["ops"][0]["digest"]
    for r in results[:-1]:
        if r["ops"][0]["digest"] != warm_digest:
            r["ops"][0]["failures"].append("warm-up replay differs from the main process")
    ops = [o for r in results for o in r["ops"]]
    attempted = len(ops)
    failed = min(attempted, sum(1 for o in ops if o["failures"])
                 + (1 if main_res["pooled_failures"] else 0))

    unscaled = None
    if args.trace:
        trace = json.loads((OUT / f"{args.workload}-s{args.seed}-spans.json").read_text())
        metrics, shares = per_layer(main_res, trace)
        units = PER_LAYER_UNITS
    else:
        trace, shares = None, None
        metrics = end_to_end(results)
        units = END_TO_END_UNITS
        unscaled = end_to_end(results, scaled=False)

    n_timed = sum(1 for o in main_res["ops"] if o["kind"] in ("timed", "traced"))
    record = {"environment": environment_record(args, main_res["environment"]),
              "unit": main_res["unit"], "attempted": attempted, "failed": failed,
              "pooled_failures": main_res["pooled_failures"],
              "setup_s_samples": [r["setup_s"] for r in results],
              "ops": [{"process": f"{r['role']}", **o} for r in results for o in r["ops"]],
              "metrics": metrics, "unscaled_metrics": unscaled,
              "setup_probes_s": [r["setup_probes_s"] for r in results],
              "layer_self_share": shares,
              "absent_layers": trace["absent"] if trace else None}
    record_path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"work unit: {main_res['unit']}  ops: {n_timed}")
    for name, value in metrics.items():
        note = " (computed)" if name in COMPUTED else ""
        if name == "op_p50_s":
            note = f" (median of {n_timed} ops)"
        if unscaled and unscaled[name] != value:
            note += f" (unscaled {unscaled[name]:.6g})"
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    print(f"  error_rate = {failed / attempted:.6g} ratio ({failed} failed of {attempted} ops)")
    for o in ops:
        for f in o["failures"]:
            print(f"  FAILED {o['kind']} op {o['params']}: {f}")
    for f in main_res["pooled_failures"]:
        print(f"  FAILED pooled check: {f}")
    if shares:
        print("  self-time share of traced op wall time:")
        for name, share in shares.items():
            print(f"    {name:34s} {share:8.2%}")
        if trace["absent"]:
            print(f"  absent layers: {', '.join(trace['absent'])}")
    print(f"  run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
