#!/usr/bin/env python3
"""CI artifact validators for rowsim.

Centralises the schema and determinism checks that used to live as
inline heredocs in .github/workflows/ci.yml, so they are unit-testable
and identical between the PR gate and the nightly matrix.

Subcommands:
  perf-schema PERF_JSON [--min-entries N]
                                bench/perf_baseline history file: schema
                                (host, workloads, positive metrics), at
                                least N history entries (default 1).
  history-stability PERF_JSON   every entry in the file must report the
                                same sim_cycles per workload. Only valid
                                for same-build double-runs (one CI job
                                appending to one file); sim_cycles may
                                legitimately change across commits.
  profile-schema PROFILE_JSONL  tools/rowsim_report profile records: run
                                labels, CPI-stack slot conservation,
                                hot-line table, RoW decision totals.
  span-schema SPANS_JSONL       tools/rowsim_report span records: run
                                labels, span count accounting, segment
                                conservation (segments exactly tile
                                dispatch->commit for every retained span
                                and in aggregate), latency histograms.
  store-schema PATH             content-addressed result-store entry
                                (.res file) or a store directory: magic,
                                schema version, embedded key vs file
                                name, payload length, SHA-256 trailer.
  timeseries-schema PATH        metric time-series output (a stats JSON
                                report with a "timeseries" section, a
                                raw engine object, or a JSONL run
                                report): sample grid on the period,
                                window size, batch layout, CI
                                consistency, convergence outcome; in a
                                stats JSON, each metric's count and
                                points against the "intervals" series.
  heartbeat-schema PATH         ROWSIM_HEARTBEAT JSONL stream: event
                                schemas (run/job/sweep), per-job
                                lifecycle ordering, final sweep tallies.
  sampling-schema PATH          sampled-run report ("sampling" object in
                                a run report / JSONL, or the raw
                                object): spec shape, checkpoint grid
                                arithmetic, one window per checkpoint,
                                window/aggregate metric consistency,
                                extrapolation factors, well-formed
                                error bars.
  sampling-speedup PERF_JSON [--min-speedup X]
                                BENCH history: the latest sampled entry
                                must beat the latest cold-detail entry
                                by at least X (default 10) in wall_ms
                                on every shared workload.
  sampling-contain SAMPLED FULL [--metric M]... [--slack S] [--rel R]
                                sampled run reports vs full-detail run
                                reports (JSONL each): every full-detail
                                value lies within max(S * CI half-width,
                                R * estimate) of the sampled estimate
                                (defaults S=3, R=0.03 — the CI absorbs
                                sampling noise, the floor the SMARTS
                                steady-state bias), and wherever two
                                configs' unwidened CIs are disjoint the
                                full-detail ranking matches the sampled
                                ranking — the fig09 "ranking within
                                error bars" gate.
  selftest                      run the built-in unit tests.

Exit status 0 on success; 1 with a diagnostic on the first violation.
"""

import hashlib
import json
import os
import struct
import sys

PROFILE_CPI_BUCKETS = {
    "retired", "frontendStall", "robFull", "exec", "sqDrainWait",
    "atomicLazyWait", "atomicExecute", "coherenceMiss", "idle",
}


class ValidationError(Exception):
    """A CI artifact violated its contract."""


def validate_perf_schema(doc, min_entries=1):
    """Validate a perf_baseline history document (a list of run entries)."""
    if not isinstance(doc, list) or len(doc) < min_entries:
        raise ValidationError(
            f"expected a history array of >= {min_entries} entries, "
            f"got {type(doc).__name__} of {len(doc) if isinstance(doc, list) else 'n/a'}")
    for i, entry in enumerate(doc):
        if "host" not in entry or "workloads" not in entry:
            raise ValidationError(f"entry {i}: missing host/workloads")
        if not entry["workloads"]:
            raise ValidationError(f"entry {i}: empty workloads")
        for w, m in entry["workloads"].items():
            for key in ("sim_cycles", "wall_ms", "cycles_per_sec"):
                if m.get(key, 0) <= 0:
                    raise ValidationError(
                        f"entry {i}, workload {w}: {key} must be > 0, "
                        f"got {m.get(key)}")
    return len(doc)


def _history_group(entry):
    """The determinism-comparison group of one history entry.

    Detail, functional, and sampled runs of one build legitimately
    report different sim_cycles, and so do runs at different iteration
    quotas; only runs of the same kind must agree. Entries predate the
    mode/sampled/quota host fields, so each defaults to the historical
    behaviour (detail mode, unsampled, per-workload default quota).
    """
    host = entry.get("host", {})
    if not isinstance(host, dict):
        host = {}
    return (host.get("mode", "detail"), host.get("sampled", "off"),
            host.get("quota", "default"))


def validate_history_stability(doc):
    """Same-kind entries of a same-build history must agree on
    sim_cycles.

    The simulator is deterministic: two runs of one binary in one
    execution mode simulate the same machine, so any sim_cycles
    difference inside one (mode, sampled) group is a determinism bug.
    Entries of other kinds in the same file (the detail/func/sampled
    perf triple) are grouped apart, not compared. (Cross-commit
    comparisons do not belong here.)
    """
    validate_perf_schema(doc, min_entries=2)
    groups = {}
    for i, entry in enumerate(doc):
        groups.setdefault(_history_group(entry), []).append((i, entry))
    compared = 0
    for (mode, sampled, quota), entries in groups.items():
        base_i, base = entries[0]
        for i, entry in entries[1:]:
            # perf_baseline accepts a workload subset, so entries of one
            # group may cover different workloads; determinism is judged
            # on the workloads a pair shares.
            shared = [w for w in base["workloads"]
                      if w in entry["workloads"]]
            for w in shared:
                got = entry["workloads"][w]["sim_cycles"]
                want = base["workloads"][w]["sim_cycles"]
                if got != want:
                    raise ValidationError(
                        f"workload {w}: sim_cycles drifted between runs "
                        f"of the same build "
                        f"(mode={mode}, sampled={sampled}, "
                        f"quota={quota}: {want} vs {got}) — determinism "
                        f"regression")
            if shared:
                compared += 1
    if compared == 0:
        raise ValidationError(
            "no two entries share a (mode, sampled, quota) group with a "
            "common workload — nothing to compare")
    return len(doc)


def validate_profile_records(lines):
    """Validate profiler JSONL records (tools/rowsim_report input)."""
    n = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValidationError(f"line {lineno}: bad JSON: {e}")
        if not rec.get("workload") or not rec.get("config"):
            raise ValidationError(f"line {lineno}: missing run labels")
        p = rec["profile"]
        width = p.get("commitWidth", 0)
        if width <= 0:
            raise ValidationError(f"line {lineno}: commitWidth must be > 0")
        # Slot conservation: every core's CPI stack sums to
        # cycles x commitWidth.
        for core in p["cpi"]:
            total = sum(core[b] for b in PROFILE_CPI_BUCKETS)
            if total != rec["cycles"] * width:
                raise ValidationError(
                    f"line {lineno} ({rec['workload']}), core "
                    f"{core['core']}: CPI stack sums to {total}, "
                    f"expected {rec['cycles'] * width}")
        if p.get("linesTracked", 0) <= 0 or not p.get("lines"):
            raise ValidationError(f"line {lineno}: no hot-line profile")
        t = p["row"]["totals"]
        if t["updates"] != (t["eagerUncontended"] + t["eagerContended"]
                            + t["lazyUncontended"] + t["lazyContended"]):
            raise ValidationError(
                f"line {lineno}: RoW decision totals do not sum to "
                f"updates")
        n += 1
    if n == 0:
        raise ValidationError("no profile records")
    return n


SPAN_SEGS = {
    "dispatchWait", "sbDrain", "aqWait", "execute", "l1Miss",
    "unblockWait", "lockHeld",
}


def validate_span_records(lines):
    """Validate span-tracker JSONL records (tools/rowsim_report input)."""
    n = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValidationError(f"line {lineno}: bad JSON: {e}")
        if not rec.get("workload") or not rec.get("config"):
            raise ValidationError(f"line {lineno}: missing run labels")
        s = rec["spans"]
        opened, closed = s.get("opened", 0), s.get("closed", 0)
        open_end, truncated = s.get("openAtEnd", 0), s.get("truncated", 0)
        if closed + open_end > opened:
            raise ValidationError(
                f"line {lineno}: closed+openAtEnd ({closed}+{open_end}) "
                f"exceeds opened ({opened})")
        # truncated also counts atomics restored in-image (which never
        # opened a span), so it bounds the gap from below, not exactly.
        if opened - closed - open_end > truncated:
            raise ValidationError(
                f"line {lineno}: {opened - closed - open_end} spans "
                f"vanished without being closed or truncated")
        seg_totals = s["segTotals"]
        if set(seg_totals) < SPAN_SEGS:
            raise ValidationError(
                f"line {lineno}: segTotals missing segments "
                f"{SPAN_SEGS - set(seg_totals)}")
        if sum(seg_totals[k] for k in SPAN_SEGS) != seg_totals["total"]:
            raise ValidationError(
                f"line {lineno}: aggregate segments do not sum to the "
                f"total span-cycles")
        if s.get("latency", {}).get("count") != closed:
            raise ValidationError(
                f"line {lineno}: latency histogram count "
                f"{s.get('latency', {}).get('count')} != closed {closed}")
        # Per-span conservation: segments exactly tile dispatch->commit.
        for sp in s.get("spans", []):
            seg_sum = sum(sp["segs"][k] for k in SPAN_SEGS)
            window = sp["commit"] - sp["dispatch"]
            if not (seg_sum == window == sp["total"]):
                raise ValidationError(
                    f"line {lineno}, span {sp.get('id')}: segments sum "
                    f"to {seg_sum}, commit-dispatch is {window}, total "
                    f"reports {sp['total']} — conservation violated")
        # Per-PC / per-line aggregates obey the same conservation.
        for table in ("pcs", "lines"):
            for agg in s.get(table, []):
                if sum(agg[k] for k in SPAN_SEGS) != agg["total"]:
                    raise ValidationError(
                        f"line {lineno}: {table} aggregate segments do "
                        f"not sum to its total")
        n += 1
    if n == 0:
        raise ValidationError("no span records")
    return n


def _validate_ts_object(ts, where):
    """Validate one time-series engine object (the "timeseries" value)."""
    period = ts.get("period", 0)
    window = ts.get("window", 0)
    if period <= 0 or window <= 0:
        raise ValidationError(f"{where}: period/window must be > 0")
    metrics = ts.get("metrics")
    if not metrics:
        raise ValidationError(f"{where}: no metrics")
    for name, m in metrics.items():
        count = m.get("count", -1)
        if count < 0:
            raise ValidationError(f"{where}, {name}: bad count")
        pts = m.get("points", {})
        cycles, values = pts.get("cycles", []), pts.get("values", [])
        if len(cycles) != len(values):
            raise ValidationError(
                f"{where}, {name}: cycles/values length mismatch")
        if len(cycles) != min(window, count):
            raise ValidationError(
                f"{where}, {name}: window holds {len(cycles)} points, "
                f"not min(window={window}, count={count})")
        prev = 0
        for c in cycles:
            if c % period != 0 or c <= prev:
                raise ValidationError(
                    f"{where}, {name}: sample cycle {c} is not a "
                    f"strictly-increasing multiple of the period")
            prev = c
        batches, bsize = m.get("batches", 0), m.get("batchSize", 0)
        if bsize <= 0 or batches * bsize > count:
            raise ValidationError(
                f"{where}, {name}: batch layout {batches}x{bsize} "
                f"exceeds {count} samples")
        ci = m.get("ci", {})
        if ci.get("valid"):
            if not 0 < ci.get("confidence", 0) < 1:
                raise ValidationError(
                    f"{where}, {name}: CI confidence out of (0,1)")
            lo, hi, hw = ci.get("lo", 0), ci.get("hi", 0), \
                ci.get("halfwidth", -1)
            if hw < 0 or lo > hi:
                raise ValidationError(
                    f"{where}, {name}: degenerate CI [{lo}, {hi}]")
            # The JSON carries %.6g values, so the width is only exact
            # to the rounding of the (possibly much larger) endpoints.
            if abs((hi - lo) - 2 * hw) > 1e-5 * (abs(lo) + abs(hi) + 1):
                raise ValidationError(
                    f"{where}, {name}: CI width {hi - lo} is not twice "
                    f"the half-width {hw}")
    conv = ts.get("converge")
    if conv is not None:
        if conv.get("metric") not in metrics:
            raise ValidationError(
                f"{where}: converge metric {conv.get('metric')!r} is "
                f"not a tracked metric")
        if not conv.get("target", 0) > 0:
            raise ValidationError(f"{where}: converge target must be > 0")
        if not 0 < conv.get("confidence", 0) < 1:
            raise ValidationError(
                f"{where}: converge confidence out of (0,1)")
        if conv.get("converged"):
            at = conv.get("atCycle", 0)
            if at <= 0 or at % period != 0:
                raise ValidationError(
                    f"{where}: converged at cycle {at}, not a sampling "
                    f"boundary")
            achieved = conv.get("achieved")
            if achieved is None or achieved > conv["target"]:
                raise ValidationError(
                    f"{where}: converged but achieved {achieved} "
                    f"exceeds the target {conv['target']}")


def _validate_ts_against_intervals(ts, iv, where):
    """A stats document carries the sampler's full series ("intervals")
    beside the engine ("timeseries"): each metric must count every
    sample, and its points must be the newest of them."""
    cycles = iv.get("cycles", [])
    for name, m in ts["metrics"].items():
        series = iv.get("series", {}).get(name)
        if series is None:
            raise ValidationError(
                f"{where}, {name}: no intervals series for the metric")
        if m["count"] != len(series) or len(series) != len(cycles):
            raise ValidationError(
                f"{where}, {name}: count {m['count']} but the intervals "
                f"series holds {len(series)} of {len(cycles)} samples")
        pts = m["points"]
        tail = len(series) - len(pts["cycles"])
        if pts["cycles"] != cycles[tail:] or pts["values"] != series[tail:]:
            raise ValidationError(
                f"{where}, {name}: points are not the tail of the "
                f"intervals series")


def validate_timeseries(text):
    """Validate time-series output: a whole JSON document (stats report
    or raw engine object) or a JSONL stream of run records. Returns the
    number of time-series objects validated."""
    def extract(doc):
        if "timeseries" in doc:
            return doc["timeseries"]
        if "metrics" in doc:
            return doc
        return None

    try:
        doc = json.loads(text)
        docs = [("document", extract(doc), doc.get("intervals"))] \
            if isinstance(doc, dict) else []
    except json.JSONDecodeError:
        docs = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"line {lineno}: bad JSON: {e}")
            docs.append((f"line {lineno}", extract(rec), None))
    n = 0
    for where, ts, intervals in docs:
        if ts is None:
            continue
        _validate_ts_object(ts, where)
        if intervals is not None:
            _validate_ts_against_intervals(ts, intervals, where)
        n += 1
    if n == 0:
        raise ValidationError("no time-series records")
    return n


HEARTBEAT_JOB_STATES = {"queued", "started", "finished"}


def validate_heartbeat(lines):
    """Validate a ROWSIM_HEARTBEAT JSONL stream.

    Checks every event's schema and the per-job lifecycle ordering
    (queued -> started -> finished); when the sweep-end
    event is present, its ok/failed tally must cover every job and every
    job must have finished. Returns (events, jobs seen).
    """
    jobs = {}          # index -> last state
    sweep_jobs = None
    end_tally = None
    n = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValidationError(f"line {lineno}: bad JSON: {e}")
        kind = ev.get("ev")
        if ev.get("wall", 0) <= 0:
            raise ValidationError(f"line {lineno}: missing wall stamp")
        if kind == "run":
            if ev.get("cycle", -1) < 0 or ev.get("iters", -1) < 0:
                raise ValidationError(
                    f"line {lineno}: run event with negative progress")
            if not 0 <= ev.get("frac", -1) <= 1:
                raise ValidationError(
                    f"line {lineno}: quota fraction {ev.get('frac')} "
                    f"out of [0,1]")
            if ev.get("kcps", -1) < 0:
                raise ValidationError(f"line {lineno}: negative kcps")
            if "rssKb" not in ev:
                raise ValidationError(f"line {lineno}: run without rssKb")
        elif kind == "job":
            key, state = ev.get("job", ""), ev.get("state")
            if not key.startswith("j") or not key[1:].isdigit():
                raise ValidationError(
                    f"line {lineno}: bad job key {key!r}")
            if state not in HEARTBEAT_JOB_STATES:
                raise ValidationError(
                    f"line {lineno}: bad job state {state!r}")
            if state == "finished" and not ev.get("status"):
                raise ValidationError(
                    f"line {lineno}: {state} without a status")
            idx = int(key[1:])
            prev = jobs.get(idx)
            if state == "started" and prev != "queued":
                raise ValidationError(
                    f"line {lineno}: job {idx} started from "
                    f"{prev!r}, not queued")
            if state == "finished" and prev != "started":
                raise ValidationError(
                    f"line {lineno}: job {idx} {state} from {prev!r}, "
                    f"not started")
            jobs[idx] = state
        elif kind == "sweep":
            state = ev.get("state")
            if state not in ("start", "end"):
                raise ValidationError(
                    f"line {lineno}: bad sweep state {state!r}")
            if ev.get("jobs", 0) <= 0:
                raise ValidationError(
                    f"line {lineno}: sweep without jobs")
            sweep_jobs = ev["jobs"]
            if state == "end":
                end_tally = (ev.get("ok", -1), ev.get("failed", -1))
        else:
            raise ValidationError(
                f"line {lineno}: unknown event kind {kind!r}")
        n += 1
    if n == 0:
        raise ValidationError("no heartbeat events")
    if end_tally is not None:
        ok, failed = end_tally
        if ok < 0 or failed < 0 or ok + failed != sweep_jobs:
            raise ValidationError(
                f"sweep end tally ok={ok} failed={failed} does not "
                f"cover {sweep_jobs} jobs")
        unfinished = [i for i, s in jobs.items() if s != "finished"]
        if unfinished:
            raise ValidationError(
                f"sweep ended but jobs {unfinished} never finished")
    return n, len(jobs)


RES_MAGIC = b"ROWRES\x00\x00"
RES_HEADER_LEN = 8 + 4 + 32 + 8  # magic + version + key + payload length
RES_TRAILER_LEN = 32             # SHA-256 of the payload


def validate_store_entry(data, name=None):
    """Validate one result-store container (src/sim/resultstore.cc).

    Layout: magic, u32-LE schema version, 32-byte SHA-256 key, u64-LE
    payload length, payload, SHA-256(payload) trailer. When *name* is
    given it must be `<key hex>.res` — the content addressing itself.
    Returns the entry's schema version.
    """
    if len(data) < RES_HEADER_LEN + RES_TRAILER_LEN:
        raise ValidationError(
            f"entry is {len(data)} bytes, smaller than the "
            f"{RES_HEADER_LEN + RES_TRAILER_LEN}-byte envelope")
    if data[:8] != RES_MAGIC:
        raise ValidationError(f"bad magic {data[:8]!r}")
    (version,) = struct.unpack_from("<I", data, 8)
    if version == 0:
        raise ValidationError("schema version 0 is reserved")
    key = data[12:44]
    (payload_len,) = struct.unpack_from("<Q", data, 44)
    if len(data) != RES_HEADER_LEN + payload_len + RES_TRAILER_LEN:
        raise ValidationError(
            f"payload length {payload_len} does not match file size "
            f"{len(data)}")
    payload = data[RES_HEADER_LEN:RES_HEADER_LEN + payload_len]
    if hashlib.sha256(payload).digest() != data[-RES_TRAILER_LEN:]:
        raise ValidationError("payload SHA-256 does not match trailer")
    if name is not None and name != key.hex() + ".res":
        raise ValidationError(
            f"file name {name} does not match embedded key "
            f"{key.hex()[:16]}...")
    return version


def validate_store(path):
    """Validate a single .res entry or every entry in a store directory.

    Returns (entries, versions) where versions is the set of schema
    versions seen. Quarantined entries (damage already detected and set
    aside by the simulator) are ignored; a directory with no valid
    entries is an error.
    """
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".res"))
        if not names:
            raise ValidationError(f"{path}: no .res entries")
    else:
        names = [os.path.basename(path)]
        path = os.path.dirname(path) or "."
    versions = set()
    for name in names:
        with open(os.path.join(path, name), "rb") as f:
            data = f.read()
        try:
            versions.add(validate_store_entry(data, name))
        except ValidationError as e:
            raise ValidationError(f"{name}: {e}")
    return len(names), versions


def _validate_sampling_object(s, where):
    """Validate one sampled-run summary (the "sampling" object emitted
    by src/sim/sampling.cc)."""
    spec = s.get("spec", {})
    n = spec.get("checkpoints", 0)
    warm = spec.get("warmIters", -1)
    detail = spec.get("detailIters", 0)
    conf = spec.get("confidence", 0)
    if n < 1 or warm < 0 or detail < 1:
        raise ValidationError(
            f"{where}: bad spec {spec!r} (need checkpoints >= 1, "
            f"warmIters >= 0, detailIters >= 1)")
    if not 0 < conf < 1:
        raise ValidationError(
            f"{where}: confidence {conf} out of (0, 1)")
    quota = s.get("quota", 0)
    if quota <= 0:
        raise ValidationError(f"{where}: quota must be > 0")

    grid = s.get("grid", [])
    if len(grid) != n:
        raise ValidationError(
            f"{where}: grid has {len(grid)} marks, spec asks for {n}")
    for k, mark in enumerate(grid):
        if mark != quota * k // n:
            raise ValidationError(
                f"{where}: grid[{k}] = {mark}, the SMARTS layout "
                f"requires floor({quota}*{k}/{n}) = {quota * k // n}")
    if warm + detail > quota:
        raise ValidationError(
            f"{where}: window ({warm}+{detail} iterations) does not fit "
            f"the quota {quota}")

    windows = s.get("windows", [])
    if len(windows) != n:
        raise ValidationError(
            f"{where}: {len(windows)} windows for {n} checkpoints — "
            f"every checkpoint must contribute exactly one window")
    metrics = s.get("metrics", {})
    if not metrics:
        raise ValidationError(f"{where}: no aggregate metrics")
    for k, w in enumerate(windows):
        if w.get("k") != k or w.get("mark") != grid[k]:
            raise ValidationError(
                f"{where}: window {k} reports k={w.get('k')} "
                f"mark={w.get('mark')}, expected k={k} mark={grid[k]}")
        wm = w.get("metrics", {})
        if set(wm) != set(metrics):
            raise ValidationError(
                f"{where}: window {k} metric set differs from the "
                f"aggregate ({sorted(set(wm) ^ set(metrics))})")

    scale = quota / detail
    for name, m in metrics.items():
        values = [w["metrics"][name] for w in windows]
        mean = sum(values) / n
        tol = 1e-9 * (abs(mean) + 1)
        if abs(m.get("mean", float("nan")) - mean) > tol:
            raise ValidationError(
                f"{where}, {name}: aggregate mean {m.get('mean')} is "
                f"not the mean of its windows ({mean})")
        expect = mean * scale if m.get("extrapolated") else mean
        tol = 1e-9 * (abs(expect) + 1)
        if abs(m.get("estimate", float("nan")) - expect) > tol:
            raise ValidationError(
                f"{where}, {name}: estimate {m.get('estimate')} "
                f"inconsistent with mean x "
                f"{'quota/detailIters' if m.get('extrapolated') else '1'}"
                f" = {expect}")
        if m.get("stddev", -1) < 0:
            raise ValidationError(f"{where}, {name}: negative stddev")
        ci = m.get("ci")
        if ci is None:
            if n > 1:
                raise ValidationError(
                    f"{where}, {name}: no CI despite {n} windows")
            continue
        if ci.get("confidence") != conf:
            raise ValidationError(
                f"{where}, {name}: CI confidence {ci.get('confidence')} "
                f"differs from the spec's {conf}")
        hw = ci.get("halfwidth", -1)
        lo, hi = ci.get("lo", float("nan")), ci.get("hi", float("nan"))
        if hw < 0:
            raise ValidationError(
                f"{where}, {name}: negative CI half-width")
        est = m["estimate"]
        tol = 1e-9 * (abs(est) + hw + 1)
        if abs((est - hw) - lo) > tol or abs((est + hw) - hi) > tol:
            raise ValidationError(
                f"{where}, {name}: error bar [{lo}, {hi}] is not "
                f"estimate +/- halfwidth ({est} +/- {hw})")


def _extract_sampling(doc):
    if "sampling" in doc:
        return doc["sampling"]
    if "spec" in doc and "windows" in doc:
        return doc
    return None


def validate_sampling(text):
    """Validate sampled-run output: a whole JSON document (run report or
    raw sampling object) or a JSONL stream of run reports. Returns the
    number of sampling objects validated."""
    try:
        doc = json.loads(text)
        docs = [("document", _extract_sampling(doc))] \
            if isinstance(doc, dict) else []
    except json.JSONDecodeError:
        docs = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"line {lineno}: bad JSON: {e}")
            docs.append((f"line {lineno}", _extract_sampling(rec)))
    n = 0
    for where, s in docs:
        if s is None:
            continue
        _validate_sampling_object(s, where)
        n += 1
    if n == 0:
        raise ValidationError("no sampling records")
    return n


def validate_sampling_speedup(doc, min_speedup=10.0):
    """The latest sampled history entry must beat the latest cold
    detail entry by at least *min_speedup* in wall_ms per workload.

    This is the paper's reason for sampling to exist; a sampled run
    slower than a tenth of detail means the window layout (or a
    regression) ate the win. Entries are matched by the perf triple's
    host fields: detail = mode detail / sampled off.
    """
    validate_perf_schema(doc)
    detail_by_quota = {}
    sampled = sampled_quota = None
    for entry in doc:  # latest of each kind wins
        mode, samp, quota = _history_group(entry)
        if mode == "detail" and samp == "off":
            detail_by_quota[quota] = entry
        elif samp != "off":
            sampled, sampled_quota = entry, quota
    if sampled is None:
        raise ValidationError(
            "need a sampled entry (host.sampled) in the history")
    # Compare like with like: the detail baseline must have run at the
    # sampled entry's quota, or the ratio measures the quota, not the
    # sampling machinery.
    detail = detail_by_quota.get(sampled_quota)
    if detail is None:
        raise ValidationError(
            f"no detail entry at the sampled entry's quota "
            f"({sampled_quota}) to compare against")
    shared = set(detail["workloads"]) & set(sampled["workloads"])
    if not shared:
        raise ValidationError(
            "the detail and sampled entries share no workloads")
    worst = None
    for w in sorted(shared):
        ratio = (detail["workloads"][w]["wall_ms"]
                 / sampled["workloads"][w]["wall_ms"])
        if worst is None or ratio < worst[1]:
            worst = (w, ratio)
        if ratio < min_speedup:
            raise ValidationError(
                f"workload {w}: sampled run is only {ratio:.2f}x faster "
                f"than cold detail (gate: >= {min_speedup}x)")
    return len(shared), worst


def _jsonl_records(text, what):
    recs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            recs.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise ValidationError(f"{what} line {lineno}: bad JSON: {e}")
    if not recs:
        raise ValidationError(f"no {what} records")
    return recs


def validate_sampling_containment(sampled_text, full_text,
                                  metrics=("cycles",), slack=3.0,
                                  rel=0.03):
    """Sampled estimates must contain the full-detail truth.

    For every (workload, config) present in both report streams and
    every requested metric: the full-detail value must lie within
    max(slack * CI half-width, rel * |estimate|) of the sampled
    estimate. The widened CI absorbs sampling noise (short windows have
    startup transients the batch-means CI underestimates); the relative
    floor absorbs the systematic SMARTS bias — windows measure steady
    state, the full run includes the ramp, and no amount of
    window-to-window agreement shrinks that gap (the literature's
    typical figure is ~3%). And the fig09 acceptance: wherever two
    configs of one workload have disjoint *unwidened* CIs — the sampled
    run's own error bars claim to distinguish them — the full-detail
    ordering must agree. Returns (pairs checked, ranking comparisons
    made).
    """
    sampled = {}
    for rec in _jsonl_records(sampled_text, "sampled"):
        s = _extract_sampling(rec)
        if s is None:
            raise ValidationError(
                f"sampled record {rec.get('workload')}/"
                f"{rec.get('config')} has no sampling object")
        _validate_sampling_object(
            s, f"{rec.get('workload')}/{rec.get('config')}")
        sampled[(rec.get("workload"), rec.get("config"))] = s
    full = {(rec.get("workload"), rec.get("config")): rec
            for rec in _jsonl_records(full_text, "full-detail")}

    checked = 0
    intervals = {}  # (workload, metric) -> [(config, lo, hi, estimate)]
    for key, s in sampled.items():
        if key not in full:
            raise ValidationError(
                f"sampled run {key[0]}/{key[1]} has no full-detail "
                f"counterpart")
        for metric in metrics:
            m = s["metrics"].get(metric)
            if m is None:
                raise ValidationError(
                    f"{key[0]}/{key[1]}: sampled report lacks metric "
                    f"{metric!r}")
            truth = full[key].get(metric)
            if truth is None:
                raise ValidationError(
                    f"{key[0]}/{key[1]}: full-detail report lacks "
                    f"metric {metric!r}")
            ci = m.get("ci")
            hw = ci["halfwidth"] if ci else 0.0
            est = m["estimate"]
            delta = max(hw * slack, abs(est) * rel)
            lo, hi = est - delta, est + delta
            if not lo <= truth <= hi:
                raise ValidationError(
                    f"{key[0]}/{key[1]}, {metric}: full-detail value "
                    f"{truth} outside the widened sampled interval "
                    f"[{lo:.6g}, {hi:.6g}] (slack {slack}x, rel floor "
                    f"{rel:g})")
            intervals.setdefault((key[0], metric), []).append(
                (key[1], est - hw, est + hw, est, truth))
            checked += 1

    rankings = 0
    for (workload, metric), rows in intervals.items():
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                ca, loa, hia, esta, trutha = rows[i]
                cb, lob, hib, estb, truthb = rows[j]
                if hia < lob or hib < loa:  # CIs disjoint: a real claim
                    rankings += 1
                    if (esta < estb) != (trutha < truthb):
                        raise ValidationError(
                            f"{workload}, {metric}: sampled run ranks "
                            f"{ca} vs {cb} as {esta:.6g} vs {estb:.6g} "
                            f"with disjoint error bars, but full detail "
                            f"says {trutha} vs {truthb} — ranking "
                            f"flipped outside the error bars")
    return checked, rankings


def _selftest():
    import copy
    import unittest

    good_perf = [
        {"host": "ci", "workloads": {
            "cq": {"sim_cycles": 100, "wall_ms": 5.0,
                   "cycles_per_sec": 2e4},
            "sps": {"sim_cycles": 250, "wall_ms": 9.0,
                    "cycles_per_sec": 2.7e4}}},
        {"host": "ci", "workloads": {
            "cq": {"sim_cycles": 100, "wall_ms": 4.0,
                   "cycles_per_sec": 2.5e4},
            "sps": {"sim_cycles": 250, "wall_ms": 8.0,
                    "cycles_per_sec": 3.1e4}}},
    ]
    good_profile = json.dumps({
        "workload": "cq", "config": "eager", "cycles": 10,
        "profile": {
            "commitWidth": 2,
            "cpi": [{"core": 0, "retired": 6, "frontendStall": 2,
                     "robFull": 2, "exec": 4, "sqDrainWait": 0,
                     "atomicLazyWait": 2, "atomicExecute": 2,
                     "coherenceMiss": 1, "idle": 1}],
            "linesTracked": 1, "lines": [{"line": 64}],
            "row": {"totals": {"updates": 4, "eagerUncontended": 1,
                               "eagerContended": 1, "lazyUncontended": 1,
                               "lazyContended": 1}}}})
    good_span = json.dumps({
        "workload": "cq", "config": "eager", "cycles": 100,
        "spans": {
            "opened": 3, "closed": 2, "openAtEnd": 1, "truncated": 0,
            "segTotals": {"dispatchWait": 2, "sbDrain": 10, "aqWait": 4,
                          "execute": 6, "l1Miss": 20, "unblockWait": 0,
                          "lockHeld": 8, "total": 50, "netCycles": 12,
                          "dirBlocked": 4, "lockStall": 0},
            "latency": {"count": 2, "mean": 25, "p50": 24, "p90": 30,
                        "p99": 30, "min": 20, "max": 30},
            "pcs": [{"pc": "0x1000", "count": 2, "total": 50,
                     "dispatchWait": 2, "sbDrain": 10, "aqWait": 4,
                     "execute": 6, "l1Miss": 20, "unblockWait": 0,
                     "lockHeld": 8}],
            "lines": [],
            "spans": [{"id": 1, "dispatch": 10, "commit": 40,
                       "total": 30,
                       "segs": {"dispatchWait": 1, "sbDrain": 6,
                                "aqWait": 2, "execute": 4, "l1Miss": 12,
                                "unblockWait": 0, "lockHeld": 5}}]}})

    good_ts = json.dumps({
        "workload": "cq", "config": "eager",
        "timeseries": {
            "period": 1024, "window": 512,
            "metrics": {
                "instructions": {
                    "count": 16, "mean": 100.0, "stddev": 5.0,
                    "lag1": 0.2, "batches": 16, "batchSize": 1,
                    "ci": {"valid": True, "confidence": 0.95,
                           "halfwidth": 2.5, "rel": 0.025,
                           "lo": 97.5, "hi": 102.5},
                    "points": {"cycles": [1024 * k
                                          for k in range(1, 17)],
                               "values": [99.0, 101.0] * 8}}},
            "converge": {"metric": "instructions", "target": 0.05,
                         "confidence": 0.95, "achieved": 0.025,
                         "converged": True, "atCycle": 16384}}})
    good_hb = [
        json.dumps({"ev": "sweep", "wall": 10, "state": "start",
                    "jobs": 2}),
        json.dumps({"ev": "job", "wall": 11, "job": "j0",
                    "state": "queued", "workload": "pc",
                    "config": "eager"}),
        json.dumps({"ev": "job", "wall": 11, "job": "j1",
                    "state": "queued", "workload": "cq",
                    "config": "lazy"}),
        json.dumps({"ev": "job", "wall": 12, "job": "j0",
                    "state": "started", "workload": "pc",
                    "config": "eager"}),
        json.dumps({"ev": "run", "wall": 13, "job": "j0", "cycle": 4096,
                    "iters": 10, "quota": 100, "frac": 0.1,
                    "kcps": 850.0, "etaMs": 900, "rssKb": 51200}),
        json.dumps({"ev": "job", "wall": 14, "job": "j0",
                    "state": "finished", "workload": "pc",
                    "config": "eager", "status": "ok"}),
        json.dumps({"ev": "job", "wall": 14, "job": "j1",
                    "state": "started", "workload": "cq",
                    "config": "lazy"}),
        json.dumps({"ev": "job", "wall": 17, "job": "j1",
                    "state": "finished", "workload": "cq",
                    "config": "lazy", "status": "ok"}),
        json.dumps({"ev": "sweep", "wall": 18, "state": "end",
                    "jobs": 2, "ok": 2, "failed": 0}),
    ]

    def make_sampling(quota=100, n=4, warm=2, detail=5, conf=0.95,
                      cycles=(10.0, 12.0, 11.0, 11.0)):
        """A consistent sampled-run report, built with the simulator's
        own aggregation arithmetic."""
        grid = [quota * k // n for k in range(n)]
        mean = sum(cycles) / n
        stddev = (sum((v - mean) ** 2 for v in cycles)
                  / (n - 1)) ** 0.5 if n > 1 else 0.0
        scale = quota / detail
        est = mean * scale
        hw = 1.7 * stddev * scale  # any nonnegative width is schema-legal
        metrics = {
            "cycles": {"mean": mean, "stddev": stddev, "estimate": est,
                       "extrapolated": True,
                       "ci": {"confidence": conf, "halfwidth": hw,
                              "lo": est - hw, "hi": est + hw}},
            "missLatency": {"mean": 8.0, "stddev": 0.0, "estimate": 8.0,
                            "extrapolated": False,
                            "ci": {"confidence": conf, "halfwidth": 0.0,
                                   "lo": 8.0, "hi": 8.0}},
        }
        windows = [{"k": k, "mark": grid[k], "fromCache": False,
                    "metrics": {"cycles": cycles[k], "missLatency": 8.0}}
                   for k in range(n)]
        return {"workload": "cq", "config": "eager",
                "sampling": {
                    "spec": {"checkpoints": n, "warmIters": warm,
                             "detailIters": detail, "confidence": conf},
                    "quota": quota, "grid": grid, "windows": windows,
                    "metrics": metrics}}

    good_sampling = json.dumps(make_sampling())

    def make_speedup_history(ratio=20.0):
        detail = {"host": {"mode": "detail", "sampled": "off"},
                  "workloads": {"cq": {"sim_cycles": 1000,
                                       "wall_ms": 100.0 * ratio / 20,
                                       "cycles_per_sec": 1e4}}}
        sampled = {"host": {"mode": "detail", "sampled": "5:2:10"},
                   "workloads": {"cq": {"sim_cycles": 990,
                                        "wall_ms": 5.0 * 20 / 20,
                                        "cycles_per_sec": 2e5}}}
        detail["workloads"]["cq"]["wall_ms"] = 5.0 * ratio
        return [detail, sampled]

    def make_containment(truth=220.0, flip=False):
        """Sampled reports for two configs + matching full-detail
        reports. The configs' own CIs are disjoint (~[192, 248] vs
        ~[272, 328]) but the 3x-widened intervals overlap, so a *flip*
        stays containment-clean and must be caught by the ranking
        gate; *truth* moves eager's full-detail cycles."""
        a = make_sampling(cycles=(10.0, 12.0, 11.0, 11.0))  # est 220
        b = make_sampling(cycles=(14.0, 16.0, 15.0, 15.0))  # est 300
        b["config"] = "lazy"
        sampled = "\n".join(json.dumps(r) for r in (a, b))
        full_a = {"workload": "cq", "config": "eager",
                  "cycles": 290.0 if flip else truth}
        full_b = {"workload": "cq", "config": "lazy",
                  "cycles": 280.0 if flip else 300.0}
        full = "\n".join(json.dumps(r) for r in (full_a, full_b))
        return sampled, full

    def make_store_entry(payload=b"result-bytes", version=1):
        key = hashlib.sha256(b"some key preimage").digest()
        data = (RES_MAGIC + struct.pack("<I", version) + key
                + struct.pack("<Q", len(payload)) + payload
                + hashlib.sha256(payload).digest())
        return key.hex() + ".res", data

    class SelfTest(unittest.TestCase):
        def test_store_accepts_good_entry(self):
            name, data = make_store_entry()
            self.assertEqual(validate_store_entry(data, name), 1)

        def test_store_rejects_bad_magic(self):
            name, data = make_store_entry()
            with self.assertRaisesRegex(ValidationError, "magic"):
                validate_store_entry(b"ROWRUINS" + data[8:], name)

        def test_store_rejects_truncation(self):
            name, data = make_store_entry()
            for cut in (5, RES_HEADER_LEN, len(data) - 1):
                with self.assertRaises(ValidationError):
                    validate_store_entry(data[:cut], name)

        def test_store_rejects_bit_flip(self):
            name, data = make_store_entry()
            flipped = bytearray(data)
            flipped[RES_HEADER_LEN] ^= 0x01
            with self.assertRaisesRegex(ValidationError, "SHA-256"):
                validate_store_entry(bytes(flipped), name)

        def test_store_rejects_misnamed_entry(self):
            _, data = make_store_entry()
            with self.assertRaisesRegex(ValidationError, "name"):
                validate_store_entry(data, "00" * 32 + ".res")

        def test_store_rejects_version_zero(self):
            name, data = make_store_entry(version=0)
            with self.assertRaisesRegex(ValidationError, "version"):
                validate_store_entry(data, name)

        def test_perf_schema_accepts_good(self):
            self.assertEqual(validate_perf_schema(good_perf), 2)

        def test_perf_schema_rejects_non_list(self):
            with self.assertRaises(ValidationError):
                validate_perf_schema({"host": "ci"})

        def test_perf_schema_rejects_nonpositive_metric(self):
            bad = copy.deepcopy(good_perf)
            bad[1]["workloads"]["cq"]["wall_ms"] = 0
            with self.assertRaises(ValidationError):
                validate_perf_schema(bad)

        def test_perf_schema_rejects_empty_workloads(self):
            with self.assertRaises(ValidationError):
                validate_perf_schema([{"host": "ci", "workloads": {}}])

        def test_stability_accepts_stable_history(self):
            self.assertEqual(validate_history_stability(good_perf), 2)

        def test_stability_needs_two_entries(self):
            with self.assertRaises(ValidationError):
                validate_history_stability(good_perf[:1])

        def test_stability_rejects_cycle_drift(self):
            bad = copy.deepcopy(good_perf)
            bad[1]["workloads"]["sps"]["sim_cycles"] = 251
            with self.assertRaisesRegex(ValidationError, "sps"):
                validate_history_stability(bad)

        def test_profile_accepts_good_record(self):
            self.assertEqual(validate_profile_records([good_profile]), 1)

        def test_profile_rejects_unbalanced_cpi_stack(self):
            rec = json.loads(good_profile)
            rec["profile"]["cpi"][0]["idle"] += 1
            with self.assertRaisesRegex(ValidationError, "CPI stack"):
                validate_profile_records([json.dumps(rec)])

        def test_profile_rejects_unbalanced_row_totals(self):
            rec = json.loads(good_profile)
            rec["profile"]["row"]["totals"]["updates"] = 5
            with self.assertRaisesRegex(ValidationError, "RoW"):
                validate_profile_records([json.dumps(rec)])

        def test_profile_rejects_empty_input(self):
            with self.assertRaises(ValidationError):
                validate_profile_records(["", "  "])

        def test_profile_rejects_bad_json(self):
            with self.assertRaisesRegex(ValidationError, "bad JSON"):
                validate_profile_records(["{nope"])

        def test_span_accepts_good_record(self):
            self.assertEqual(validate_span_records([good_span]), 1)

        def test_span_rejects_unbalanced_span(self):
            rec = json.loads(good_span)
            rec["spans"]["spans"][0]["segs"]["lockHeld"] += 1
            with self.assertRaisesRegex(ValidationError, "conservation"):
                validate_span_records([json.dumps(rec)])

        def test_span_rejects_untiled_window(self):
            rec = json.loads(good_span)
            rec["spans"]["spans"][0]["commit"] += 5
            with self.assertRaisesRegex(ValidationError, "conservation"):
                validate_span_records([json.dumps(rec)])

        def test_span_rejects_unbalanced_aggregate(self):
            rec = json.loads(good_span)
            rec["spans"]["segTotals"]["execute"] += 1
            with self.assertRaisesRegex(ValidationError, "aggregate"):
                validate_span_records([json.dumps(rec)])

        def test_span_rejects_vanished_spans(self):
            rec = json.loads(good_span)
            rec["spans"]["openAtEnd"] = 0
            with self.assertRaisesRegex(ValidationError, "vanished"):
                validate_span_records([json.dumps(rec)])

        def test_span_rejects_histogram_count_mismatch(self):
            rec = json.loads(good_span)
            rec["spans"]["latency"]["count"] = 3
            with self.assertRaisesRegex(ValidationError, "histogram"):
                validate_span_records([json.dumps(rec)])

        def test_span_rejects_empty_input(self):
            with self.assertRaises(ValidationError):
                validate_span_records([""])

        def test_timeseries_accepts_good_record(self):
            self.assertEqual(validate_timeseries(good_ts), 1)

        def test_timeseries_accepts_raw_engine_object(self):
            raw = json.dumps(json.loads(good_ts)["timeseries"])
            self.assertEqual(validate_timeseries(raw), 1)

        def test_timeseries_rejects_off_grid_sample(self):
            rec = json.loads(good_ts)
            rec["timeseries"]["metrics"]["instructions"]["points"][
                "cycles"][1] = 2000
            with self.assertRaisesRegex(ValidationError, "multiple"):
                validate_timeseries(json.dumps(rec))

        def test_timeseries_rejects_degenerate_ci(self):
            rec = json.loads(good_ts)
            rec["timeseries"]["metrics"]["instructions"]["ci"]["lo"] = 200
            with self.assertRaisesRegex(ValidationError, "CI"):
                validate_timeseries(json.dumps(rec))

        def test_timeseries_rejects_batch_overrun(self):
            rec = json.loads(good_ts)
            rec["timeseries"]["metrics"]["instructions"]["batches"] = 99
            with self.assertRaisesRegex(ValidationError, "batch"):
                validate_timeseries(json.dumps(rec))

        def test_timeseries_rejects_off_boundary_convergence(self):
            rec = json.loads(good_ts)
            rec["timeseries"]["converge"]["atCycle"] = 16000
            with self.assertRaisesRegex(ValidationError, "boundary"):
                validate_timeseries(json.dumps(rec))

        def test_timeseries_rejects_unmet_target_marked_converged(self):
            rec = json.loads(good_ts)
            rec["timeseries"]["converge"]["achieved"] = 0.06
            with self.assertRaisesRegex(ValidationError, "target"):
                validate_timeseries(json.dumps(rec))

        def test_timeseries_accepts_points_tailing_intervals(self):
            rec = json.loads(good_ts)
            rec["timeseries"]["window"] = 4
            pts = rec["timeseries"]["metrics"]["instructions"]["points"]
            rec["intervals"] = {"period": 1024, "cycles": pts["cycles"],
                                "series": {"instructions": pts["values"]}}
            pts["cycles"], pts["values"] = \
                pts["cycles"][-4:], pts["values"][-4:]
            self.assertEqual(validate_timeseries(json.dumps(rec)), 1)

        def test_timeseries_rejects_points_off_the_intervals_tail(self):
            rec = json.loads(good_ts)
            pts = rec["timeseries"]["metrics"]["instructions"]["points"]
            rec["intervals"] = {"period": 1024, "cycles": pts["cycles"],
                                "series": {"instructions":
                                           pts["values"][:-1] + [5.0]}}
            with self.assertRaisesRegex(ValidationError, "tail"):
                validate_timeseries(json.dumps(rec))

        def test_timeseries_rejects_empty_input(self):
            with self.assertRaises(ValidationError):
                validate_timeseries("{}")

        def test_heartbeat_accepts_good_stream(self):
            self.assertEqual(validate_heartbeat(good_hb), (9, 2))

        def test_heartbeat_rejects_unknown_event(self):
            with self.assertRaisesRegex(ValidationError, "unknown"):
                validate_heartbeat(
                    [json.dumps({"ev": "pulse", "wall": 1})])

        def test_heartbeat_rejects_bad_fraction(self):
            bad = list(good_hb)
            rec = json.loads(bad[4])
            rec["frac"] = 1.5
            bad[4] = json.dumps(rec)
            with self.assertRaisesRegex(ValidationError, "fraction"):
                validate_heartbeat(bad)

        def test_heartbeat_rejects_finish_without_status(self):
            bad = list(good_hb)
            rec = json.loads(bad[5])
            del rec["status"]
            bad[5] = json.dumps(rec)
            with self.assertRaisesRegex(ValidationError, "status"):
                validate_heartbeat(bad)

        def test_heartbeat_rejects_lifecycle_skip(self):
            bad = list(good_hb)
            del bad[3]  # j0 finishes without ever starting
            with self.assertRaisesRegex(ValidationError, "not started"):
                validate_heartbeat(bad)

        def test_heartbeat_rejects_end_tally_mismatch(self):
            bad = list(good_hb)
            rec = json.loads(bad[-1])
            rec["ok"] = 1
            bad[-1] = json.dumps(rec)
            with self.assertRaisesRegex(ValidationError, "tally"):
                validate_heartbeat(bad)

        def test_heartbeat_rejects_unfinished_job_at_end(self):
            bad = list(good_hb)
            del bad[7]  # j1 never finishes
            with self.assertRaisesRegex(ValidationError, "finished"):
                validate_heartbeat(bad)

        def test_heartbeat_rejects_retrying_state(self):
            bad = list(good_hb)
            rec = json.loads(bad[5])
            rec["state"] = "retrying"
            bad[5] = json.dumps(rec)
            with self.assertRaisesRegex(ValidationError, "bad job state"):
                validate_heartbeat(bad)

        def test_heartbeat_rejects_empty_input(self):
            with self.assertRaises(ValidationError):
                validate_heartbeat([""])

        def test_sampling_accepts_good_report(self):
            self.assertEqual(validate_sampling(good_sampling), 1)

        def test_sampling_accepts_raw_object(self):
            raw = json.dumps(json.loads(good_sampling)["sampling"])
            self.assertEqual(validate_sampling(raw), 1)

        def test_sampling_accepts_jsonl(self):
            self.assertEqual(
                validate_sampling(good_sampling + "\n" + good_sampling),
                2)

        def test_sampling_rejects_off_grid_mark(self):
            rec = json.loads(good_sampling)
            rec["sampling"]["grid"][2] = 51
            with self.assertRaisesRegex(ValidationError, "SMARTS"):
                validate_sampling(json.dumps(rec))

        def test_sampling_rejects_missing_window(self):
            rec = json.loads(good_sampling)
            del rec["sampling"]["windows"][3]
            with self.assertRaisesRegex(ValidationError, "window"):
                validate_sampling(json.dumps(rec))

        def test_sampling_rejects_mean_drift(self):
            rec = json.loads(good_sampling)
            rec["sampling"]["metrics"]["cycles"]["mean"] += 0.5
            with self.assertRaisesRegex(ValidationError, "mean"):
                validate_sampling(json.dumps(rec))

        def test_sampling_rejects_bad_extrapolation(self):
            rec = json.loads(good_sampling)
            m = rec["sampling"]["metrics"]["cycles"]
            m["estimate"] = m["mean"]  # extrapolated but unscaled
            with self.assertRaisesRegex(ValidationError, "estimate"):
                validate_sampling(json.dumps(rec))

        def test_sampling_rejects_skewed_error_bar(self):
            rec = json.loads(good_sampling)
            rec["sampling"]["metrics"]["cycles"]["ci"]["lo"] -= 1.0
            with self.assertRaisesRegex(ValidationError, "error bar"):
                validate_sampling(json.dumps(rec))

        def test_sampling_rejects_empty_input(self):
            with self.assertRaises(ValidationError):
                validate_sampling("{}")

        def test_speedup_accepts_fast_sampled_run(self):
            n, worst = validate_sampling_speedup(make_speedup_history())
            self.assertEqual(n, 1)
            self.assertAlmostEqual(worst[1], 20.0)

        def test_speedup_rejects_slow_sampled_run(self):
            with self.assertRaisesRegex(ValidationError, "faster"):
                validate_sampling_speedup(make_speedup_history(4.0))

        def test_speedup_needs_both_kinds(self):
            with self.assertRaisesRegex(ValidationError, "sampled"):
                validate_sampling_speedup(good_perf)

        def test_containment_accepts_contained_truth(self):
            sampled, full = make_containment()
            checked, rankings = \
                validate_sampling_containment(sampled, full)
            self.assertEqual(checked, 2)
            self.assertEqual(rankings, 1)

        def test_containment_rejects_escaped_truth(self):
            sampled, full = make_containment(truth=500.0)
            with self.assertRaisesRegex(ValidationError, "outside"):
                validate_sampling_containment(sampled, full)

        def test_containment_rejects_ranking_flip(self):
            sampled, full = make_containment(flip=True)
            with self.assertRaisesRegex(ValidationError, "flipped"):
                validate_sampling_containment(sampled, full)

        def test_containment_rel_floor_absorbs_smarts_bias(self):
            # Zero window variance collapses the CI to a point; the
            # relative floor still tolerates the systematic
            # steady-state bias, but not an estimate that is simply
            # wrong.
            a = make_sampling(cycles=(11.0, 11.0, 11.0, 11.0))  # 220
            sampled = json.dumps(a)
            near = json.dumps({"workload": "cq", "config": "eager",
                               "cycles": 224.0})  # within 3%
            checked, _ = validate_sampling_containment(sampled, near)
            self.assertEqual(checked, 1)
            far = json.dumps({"workload": "cq", "config": "eager",
                              "cycles": 240.0})  # 9% off
            with self.assertRaisesRegex(ValidationError, "outside"):
                validate_sampling_containment(sampled, far)

        def test_containment_rejects_missing_counterpart(self):
            sampled, full = make_containment()
            full = full.splitlines()[0]
            with self.assertRaisesRegex(ValidationError, "counterpart"):
                validate_sampling_containment(sampled, full)

        def test_stability_groups_modes_apart(self):
            # A detail/func/sampled triple with disagreeing sim_cycles
            # across kinds but agreement within each kind must pass.
            mixed = copy.deepcopy(good_perf)
            func = copy.deepcopy(good_perf[0])
            func["host"] = {"mode": "func", "sampled": "off"}
            func["workloads"]["cq"]["sim_cycles"] = 7
            samp = copy.deepcopy(good_perf[0])
            samp["host"] = {"mode": "detail", "sampled": "5:2:10"}
            samp["workloads"]["cq"]["sim_cycles"] = 90
            mixed += [func, samp]
            self.assertEqual(validate_history_stability(mixed), 4)

        def test_stability_rejects_drift_within_a_mode(self):
            mixed = copy.deepcopy(good_perf)
            for e in mixed:
                e["host"] = {"mode": "func"}
            mixed[1]["workloads"]["cq"]["sim_cycles"] = 101
            with self.assertRaisesRegex(ValidationError, "mode=func"):
                validate_history_stability(mixed)

        def test_stability_needs_a_comparable_pair(self):
            lone = copy.deepcopy(good_perf)
            lone[1]["host"] = {"mode": "func"}
            with self.assertRaisesRegex(ValidationError, "group"):
                validate_history_stability(lone)

        def test_stability_groups_quotas_apart(self):
            # A longer-quota rerun simulates more iterations: different
            # sim_cycles is correct, not drift.
            mixed = copy.deepcopy(good_perf)
            long = copy.deepcopy(good_perf[0])
            long["host"] = {"quota": "3000"}
            long["workloads"]["cq"]["sim_cycles"] = 12345
            mixed.append(long)
            self.assertEqual(validate_history_stability(mixed), 3)

        def test_speedup_needs_a_quota_matched_baseline(self):
            hist = make_speedup_history()
            for e in hist:
                if e["host"]["sampled"] != "off":
                    e["host"]["quota"] = "3000"
            with self.assertRaisesRegex(ValidationError, "quota"):
                validate_sampling_speedup(hist)

    suite = unittest.defaultTestLoader.loadTestsFromTestCase(SelfTest)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    cmd = argv[1]
    try:
        if cmd == "selftest":
            return _selftest()
        if cmd == "perf-schema":
            min_entries = 1
            rest = argv[3:]
            if rest[:1] == ["--min-entries"]:
                min_entries = int(rest[1])
            with open(argv[2]) as f:
                n = validate_perf_schema(json.load(f), min_entries)
            print(f"perf schema ok: {n} history entries")
            return 0
        if cmd == "history-stability":
            with open(argv[2]) as f:
                n = validate_history_stability(json.load(f))
            print(f"history stability ok: {n} same-build runs bit-stable")
            return 0
        if cmd == "profile-schema":
            with open(argv[2]) as f:
                n = validate_profile_records(f)
            print(f"profile schema ok: {n} records")
            return 0
        if cmd == "span-schema":
            with open(argv[2]) as f:
                n = validate_span_records(f)
            print(f"span schema ok: {n} records")
            return 0
        if cmd == "store-schema":
            n, versions = validate_store(argv[2])
            vers = ", ".join(str(v) for v in sorted(versions))
            print(f"store schema ok: {n} entries (schema version {vers})")
            return 0
        if cmd == "timeseries-schema":
            with open(argv[2]) as f:
                n = validate_timeseries(f.read())
            print(f"timeseries schema ok: {n} records")
            return 0
        if cmd == "heartbeat-schema":
            with open(argv[2]) as f:
                n, jobs = validate_heartbeat(f)
            print(f"heartbeat schema ok: {n} events, {jobs} jobs")
            return 0
        if cmd == "sampling-schema":
            with open(argv[2]) as f:
                n = validate_sampling(f.read())
            print(f"sampling schema ok: {n} records")
            return 0
        if cmd == "sampling-speedup":
            min_speedup = 10.0
            rest = argv[3:]
            if rest[:1] == ["--min-speedup"]:
                min_speedup = float(rest[1])
            with open(argv[2]) as f:
                n, worst = validate_sampling_speedup(json.load(f),
                                                     min_speedup)
            print(f"sampling speedup ok: {n} workloads, worst "
                  f"{worst[0]} at {worst[1]:.1f}x (gate "
                  f">= {min_speedup}x)")
            return 0
        if cmd == "sampling-contain":
            metrics = []
            slack = 3.0
            rel = 0.03
            rest = argv[4:]
            while rest:
                if rest[0] == "--metric":
                    metrics.append(rest[1])
                    rest = rest[2:]
                elif rest[0] == "--slack":
                    slack = float(rest[1])
                    rest = rest[2:]
                elif rest[0] == "--rel":
                    rel = float(rest[1])
                    rest = rest[2:]
                else:
                    raise ValidationError(f"unknown option {rest[0]!r}")
            with open(argv[2]) as f:
                sampled_text = f.read()
            with open(argv[3]) as f:
                full_text = f.read()
            n, rankings = validate_sampling_containment(
                sampled_text, full_text,
                metrics=tuple(metrics) or ("cycles",), slack=slack,
                rel=rel)
            print(f"sampling containment ok: {n} (run, metric) pairs "
                  f"inside the error bars, {rankings} resolved "
                  f"rankings consistent")
            return 0
    except ValidationError as e:
        print(f"ci_validate: {cmd}: {e}", file=sys.stderr)
        return 1
    except (OSError, IndexError) as e:
        print(f"ci_validate: {cmd}: {e}", file=sys.stderr)
        return 2
    print(f"ci_validate: unknown subcommand '{cmd}'", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
