"""Self-test of the stwm benchmark at tiny op sizes.

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics that BENCHMARK.json
names, with their units, in both the untraced and the traced run; that a
deliberately corrupted output (a non-zero t=0 value, or a covariance entry
perturbed by 1e-6 relative) counts as a failed op and makes the run
incorrect; that a wrapped attribute missing from stwm is reported as an
absent layer; and that the benchmark refuses to run, without printing a
result, when the checkout has no stwm sources. Exits 0 when all checks pass.
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / HERE.name / "run.py"), "--seed", str(SEED),
           "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            proc = bench("--workload", w, "--trace", str(trace), "--tiny")
            res = last_json(proc)
            where = f"{w} trace {trace}"
            if proc.returncode != 0 or res is None:
                problems.append(f"{where}: exit {proc.returncode}, stderr {proc.stderr[-500:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append(f"{where}: not correct: {proc.stdout[-1500:]}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics/units {got} differ from BENCHMARK.json")
            bad = [k for k, v in res["metrics"].items()
                   if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"]))]
            if bad:
                problems.append(f"{where}: non-numeric values for {bad}")
            print(f"ok    {where}: {len(got)} metrics, {res['attempted']} ops")

    # corrupted outputs must be caught and counted
    for w, expect in (("sample_1d_streams", "t=0 row is not exactly 0"),
                      ("sample_2d_gram", "t=0 row is not exactly 0"),
                      ("factorized_fine_grid", "path at t=0 is not exactly 0"),
                      ("cov_table_cli", "TIGHT recomputation")):
        proc = bench("--workload", w, "--trace", "0", "--tiny", "--inject")
        res = last_json(proc)
        caught = (res is not None and not res["correct"] and res["failed"] >= 1
                  and expect in proc.stdout)
        if not caught:
            problems.append(f"{w}: corrupted output was not caught: {proc.stdout[-1500:]}")
        print(f"{'ok' if caught else 'FAIL':5s} {w}: corrupted output counted as a failed op")

    # a wrapped attribute that a later change removed is reported as absent
    sys.path.insert(0, str(HERE))
    from tracer import Tracer, layer_summary
    from workloads import import_stwm

    mods = {name: types.SimpleNamespace(**vars(mod)) for name, mod in import_stwm().items()}
    del mods["sampler"].gram, mods["sampler"].uniform_mode_gram
    tracer = Tracer(mods)
    tracer.traced_op(0, lambda: mods["cli"].main)
    absent_ok = (tracer.absent == ["sampler.gram", "sampler.uniform_mode_gram"]
                 and layer_summary(tracer.dump())["calls"] == {"op": 1})
    if not absent_ok:
        problems.append(f"absent layers reported as {tracer.absent}")
    print(f"{'ok' if absent_ok else 'FAIL':5s} removed attributes reported as absent layers")

    # without the program's sources the benchmark must fail and print no result
    bare = ROOT / ".perfbench-out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "cov_table_cli", "--trace", "0", cwd=bare)
    refused = proc.returncode != 0 and last_json(proc) is None
    shutil.rmtree(bare)
    if not refused:
        problems.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-300:]}")
    print(f"{'ok' if refused else 'FAIL':5s} bare checkout refused (exit {proc.returncode})")

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
