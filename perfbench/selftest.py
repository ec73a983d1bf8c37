#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at tiny quotas (about a minute):

    python3 perfbench/selftest.py

For every workload it checks that
  - the untraced and traced loops give identical simulated results, and
    every other internal check passes;
  - the per-layer self times add up to the traced wall time within
    trace.overhead_pct;
  - a different seed changes the generated inputs, and the same seed
    does not;
  - a tampered reference value is reported as a failed run.
It also checks that a ROWSIM_* variable in the environment and a
directory without the simulator's sources both make run.py exit with an
error and no result line.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

failures = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_py(args, env=None, cwd=None, script=None):
    cmd = [sys.executable, str(script or Path(run.__file__)), *args]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, cwd=cwd, timeout=600)


def result_of(p):
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    driver = run.build()
    workdir = run.build_dir().parent / "perfbench-selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    for w in run.WORKLOADS:
        out = run.run_driver(driver, w, 1, 0, True, True)
        check(out["failed"] == 0,
              f"{w}: traced run matches the untraced run ({out['why']})")
        layers = out["layers"]
        total = sum(layers[key] for _, key in run.SELF_ROWS)
        base = layers["trace.base_s"]
        gap_pct = 100.0 * abs(total - base) / base
        check(gap_pct <= max(abs(layers["trace.overhead_pct"]), 1e-3),
              f"{w}: self times sum to {total:.6f} s, traced wall time "
              f"{base:.6f} s (gap {gap_pct:.4f}%, overhead "
              f"{layers['trace.overhead_pct']:.2f}%)")
        missing = [k for k in run.PER_LAYER_UNITS if k not in layers]
        check(not missing, f"{w}: every per-layer metric reported {missing}")

        again = run.run_driver(driver, w, 1, 0, False, True)
        other = run.run_driver(driver, w, 2, 0, False, True)
        check(again["input_digest"] == out["input_digest"],
              f"{w}: the same seed gives the same inputs")
        check(other["input_digest"] != out["input_digest"],
              f"{w}: another seed changes the inputs")
        check(other["sim"] != out["sim"],
              f"{w}: another seed changes the simulated results")

        ref = json.loads(run.REFERENCE.read_text())
        ok = run_py(["--workload", w, "--seed", str(ref["seed"]),
                     "--seconds", "0", "--trace", "0", "--tiny"])
        res = result_of(ok)
        check(res is not None and res["correct"] and res["failed"] == 0,
              f"{w}: matches the recorded reference")
        ref["workloads"][w]["tiny"]["sim_cycles"] += 1
        tampered = workdir / f"tampered-{w}.json"
        tampered.write_text(json.dumps(ref))
        bad = run_py(["--workload", w, "--seed", str(ref["seed"]),
                      "--seconds", "0", "--trace", "0", "--tiny",
                      "--reference", str(tampered)])
        res = result_of(bad)
        check(res is not None and not res["correct"] and
              res["failed"] == res["attempted"],
              f"{w}: a tampered reference fails the run")

    env = dict(os.environ, ROWSIM_FF="0")
    p = run_py(["--workload", "pc_eager", "--seed", "1", "--seconds", "0",
                "--trace", "0", "--tiny"], env=env)
    check(p.returncode != 0 and "ROWSIM_FF" in p.stderr and not p.stdout,
          "a ROWSIM_* variable stops the run and is named")

    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = run_py(["--workload", "pc_eager", "--seed", "1", "--seconds", "1",
                "--trace", "0"], env=env, cwd=bare,
               script=bare / "perfbench" / "run.py")
    check(p.returncode != 0 and not p.stdout,
          "a directory without the simulator's sources fails without a result")

    shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
