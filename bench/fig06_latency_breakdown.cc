/**
 * @file
 * Fig. 6: atomic-instruction latency from dispatch to write, broken into
 * dispatch->issue, issue->lock, and lock->unlock, for eager (1st bar)
 * and lazy (2nd bar) execution.
 *
 * Paper shape: lazy trades a larger blue segment (waiting to become the
 * oldest memory instruction with an empty SB) for much smaller orange
 * (acquisition) and yellow (lock-held) segments; on contended workloads
 * the eager issue->lock segment explodes.
 *
 * Also reports the tail (p50/p90/p99) of the acquisition phase
 * alongside the means, both read from the same per-phase histograms —
 * contention shows up in the tail long before it moves the mean.
 */

#include "bench/bench_common.hh"

using namespace rowsim;
using namespace rowsim::bench;

namespace
{

void
breakdown(benchmark::State &state, const std::string &workload)
{
    for (auto _ : state) {
        const RunResult &e = cachedRun(workload, eagerConfig());
        const RunResult &l = cachedRun(workload, lazyConfig());
        state.counters["eager_d2i"] = e.dispatchToIssue;
        state.counters["eager_i2l"] = e.issueToLock;
        state.counters["eager_l2u"] = e.lockToUnlock;
        state.counters["eager_i2l_p99"] = e.issueToLockP99;
        state.counters["lazy_d2i"] = l.dispatchToIssue;
        state.counters["lazy_i2l"] = l.issueToLock;
        state.counters["lazy_l2u"] = l.lockToUnlock;
        state.counters["lazy_i2l_p99"] = l.issueToLockP99;
        auto &t = table("Fig. 6 — atomic latency breakdown (cycles)");
        t.cell(workload, "E:disp->iss", e.dispatchToIssue);
        t.cell(workload, "E:iss->lock", e.issueToLock);
        t.cell(workload, "E:lock->unl", e.lockToUnlock);
        t.cell(workload, "L:disp->iss", l.dispatchToIssue);
        t.cell(workload, "L:iss->lock", l.issueToLock);
        t.cell(workload, "L:lock->unl", l.lockToUnlock);
        auto &p = table("Fig. 6 — acquisition tail (issue->lock cycles)");
        p.cell(workload, "E:p50", e.issueToLockP50);
        p.cell(workload, "E:p90", e.issueToLockP90);
        p.cell(workload, "E:p99", e.issueToLockP99);
        p.cell(workload, "L:p50", l.issueToLockP50);
        p.cell(workload, "L:p90", l.issueToLockP90);
        p.cell(workload, "L:p99", l.issueToLockP99);
    }
}

const int registered = [] {
    for (const auto &w : atomicIntensiveWorkloads()) {
        addPrewarm(w, eagerConfig());
        addPrewarm(w, lazyConfig());
        benchmark::RegisterBenchmark(("fig06/" + w).c_str(), breakdown, w)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
    }
    return 0;
}();

} // namespace

ROWSIM_BENCH_MAIN()
