#!/usr/bin/env python3
"""Simulator-throughput benchmark for RoWSim (see perfbench/README.md).

Builds perfbench_driver from the checkout's sources, runs one workload
and prints one JSON result as the last line of standard output:

    python3 perfbench/run.py --workload pc_eager --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics (sim_kips, setup_s,
peak_rss_mb); --trace 1 makes a separate traced run and reports the
per-layer metrics, after a per-layer table whose shares name their base.
A run fails (correct: false) when any simulated result disagrees with
the recorded reference (default seed), between slices, between the
untraced and traced loops, or with the functional atomicity replay.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("pc_eager", "canneal_row", "tpcc_sampled")
DRIVER_TIMEOUT_S = 170

END_TO_END_UNITS = {"sim_kips": "kinst/s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "cpu.self_s": "s",
    "cpu.share_pct": "%",
    "cpu.ticks": "count",
    "cpu.ipc": "inst/cycle",
    "cpu.atomics": "count",
    "cpu.eager_issued": "count",
    "cpu.lazy_issued": "count",
    "row.pred_accuracy_pct": "%",
    "row.updates": "count",
    "net.self_s": "s",
    "net.msgs_delivered": "count",
    "net.msgs_per_kinst": "msg/kinst",
    "mem.dir.self_s": "s",
    "mem.dir.requests": "count",
    "mem.dir.queued_requests": "count",
    "mem.l1.self_s": "s",
    "mem.l1.accesses": "count",
    "mem.l1.miss_latency_cyc": "cycles",
    "sim.ff.probe_s": "s",
    "sim.ff.probes": "count",
    "sim.ff.skip_ratio": "ratio",
    "sim.ff.skipped_pct": "%",
    "sim.loop.self_s": "s",
    "sim.pipeline.self_s": "s",
    "sim.funcmode.s": "s",
    "sim.funcmode.kips": "kinst/s",
    "sim.snapshot.save_s": "s",
    "sim.snapshot.restore_s": "s",
    "sim.snapshot.mb": "MiB",
    "sim.window.s": "s",
    "trace.base_s": "s",
    "trace.overhead_pct": "%",
    "host.raw_kips": "kinst/s",
    "host.probe_ms": "ms",
}
# Self-time rows of the per-layer table; they add up to trace.base_s.
SELF_ROWS = (
    ("cpu", "cpu.self_s"),
    ("mem.dir", "mem.dir.self_s"),
    ("mem.l1", "mem.l1.self_s"),
    ("net", "net.self_s"),
    ("sim.ff", "sim.ff.probe_s"),
    ("sim.loop", "sim.loop.self_s"),
    ("sim.funcmode", "sim.funcmode.s"),
    ("sim.snapshot.save", "sim.snapshot.save_s"),
    ("sim.snapshot.restore", "sim.snapshot.restore_s"),
    ("sim.pipeline", "sim.pipeline.self_s"),
)
SAMPLED_ONLY = ("sim.funcmode", "sim.snapshot.save", "sim.snapshot.restore",
                "sim.pipeline")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def check_environment():
    """Any ROWSIM_* knob would silently change what is measured."""
    knobs = sorted(k for k in os.environ if k.startswith("ROWSIM_"))
    if knobs:
        fail("refusing to run with simulator knobs set in the environment "
             f"(they change what is measured): {', '.join(knobs)}")


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure and build perfbench_driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a "
             "checkout of the repository")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(log, "w") as f:
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                fail(f"cmake configure failed, see {log}")
        cmd = ["cmake", "--build", str(out), "--target", "perfbench_driver",
               "-j", "4"]
        if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
            fail(f"build failed, see {log}")
    return out / "perfbench_driver"


def run_driver(driver, workload, seed, seconds, trace, tiny, spans_out=None):
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if p.returncode:
        sys.stderr.write(p.stderr)
        fail(f"driver exited with code {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def reference_mismatches(out, reference_path):
    """Simulated results against the recorded default-seed reference."""
    ref = json.loads(Path(reference_path).read_text())
    if out["seed"] != ref["seed"]:
        return []
    want = ref["workloads"][out["workload"]]["tiny" if out["tiny"] else "full"]
    got = dict(out["sim"], input_digest=out["input_digest"])
    return [f"reference: {k} is {got[k]}, recorded {v}"
            for k, v in sorted(want.items()) if got[k] != v]


def record_reference(out, reference_path):
    if out["failed"]:
        fail("not recording a run that failed its own checks")
    path = Path(reference_path)
    ref = json.loads(path.read_text()) if path.is_file() else {}
    if ref.get("seed") != out["seed"]:
        ref = {"seed": out["seed"], "workloads": {}}
    entry = ref["workloads"].setdefault(out["workload"], {})
    entry["tiny" if out["tiny"] else "full"] = dict(
        out["sim"], input_digest=out["input_digest"])
    path.write_text(json.dumps(ref, indent=2) + "\n")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(out):
    return {
        "sim_kips": metric(statistics.median(out["slice_norm_kips"]),
                           END_TO_END_UNITS["sim_kips"]),
        "setup_s": metric(statistics.median(out["setup_s"]),
                          END_TO_END_UNITS["setup_s"]),
        "peak_rss_mb": metric(out["peak_rss_mb"],
                              END_TO_END_UNITS["peak_rss_mb"]),
    }


def per_layer(out):
    layers = out["layers"]
    return {k: metric(layers[k], u) for k, u in PER_LAYER_UNITS.items()}


def print_layer_table(out):
    layers = out["layers"]
    base = layers["trace.base_s"]
    sampled = out["workload"] == "tpcc_sampled"
    print(f"per-layer self time, {out['workload']} seed {out['seed']}: "
          f"shares are of the traced wall time, base {base:.6f} s "
          f"(untraced {layers['trace.untraced_s']:.6f} s, overhead "
          f"{layers['trace.overhead_pct']:+.2f}%)")
    total = 0.0
    for name, key in SELF_ROWS:
        v = layers[key]
        total += v
        note = ""
        if not sampled and name in SAMPLED_ONLY:
            note = "  (n/a: no functional phase or checkpoints)"
        print(f"  {name:22s} {v:12.6f} s {100.0 * v / base:7.2f}% of "
              f"{base:.6f} s{note}")
    print(f"  {'sum':22s} {total:12.6f} s {100.0 * total / base:7.2f}% of "
          f"{base:.6f} s")
    if not sampled:
        print("  sim.window.s: n/a (the whole run is one detail run)")
    if out["workload"] == "pc_eager":
        print("  row.*: n/a (eager policy has no RoW predictor)")
    for key in PER_LAYER_UNITS:
        if key not in dict(SELF_ROWS).values():
            print(f"  {key:28s} {layers[key]:.6g} {PER_LAYER_UNITS[key]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny quotas, for the self-tests")
    ap.add_argument("--reference", default=str(REFERENCE),
                    help="recorded simulated results (default: %(default)s)")
    ap.add_argument("--record", action="store_true",
                    help="store this run's simulated results as the "
                         "reference (the seed becomes the default seed)")
    args = ap.parse_args()

    check_environment()
    driver = build()
    spans_out = None
    if args.trace:
        spans_out = build_dir().parent / "perfbench-out" / f"spans-{args.workload}.csv"
        spans_out.parent.mkdir(parents=True, exist_ok=True)
    out = run_driver(driver, args.workload, args.seed, args.seconds,
                     args.trace, args.tiny, spans_out)

    if args.record:
        record_reference(out, args.reference)
    why = list(out["why"]) + reference_mismatches(out, args.reference)
    attempted = out["attempted"]
    failed = out["failed"]
    if len(why) > len(out["why"]):
        failed = attempted  # every slice reproduced the wrong values
    for line in why:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    if args.trace:
        print_layer_table(out)
        metrics = per_layer(out)
    else:
        metrics = end_to_end(out)
        for k, m in metrics.items():
            print(f"{out['workload']} {k} = {m['value']:.6g} {m['unit']}")
        print(f"{out['workload']} unscaled sim_kips = "
              f"{statistics.median(out['slice_kips']):.6g} kinst/s, "
              f"host probe {1e3 * statistics.median(out['probe_s']):.2f} ms "
              f"(nominal 110 ms)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
