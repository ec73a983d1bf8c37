#include "sim/system.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/heartbeat.hh"
#include "common/io.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

System::System(const SystemParams &params,
               std::vector<std::unique_ptr<InstStream>> streams)
    : System(params, resolveRunOptions(params), std::move(streams))
{
}

System::System(const SystemParams &params, const RunOptions &opts,
               std::vector<std::unique_ptr<InstStream>> streams)
    : params_(params), opts_(opts), memsys(params),
      streams_(std::move(streams))
{
    ROWSIM_ASSERT(streams_.size() == params.numCores,
                  "need one instruction stream per core (%u vs %zu)",
                  params.numCores, streams_.size());
    cores.reserve(params.numCores);
    for (CoreId c = 0; c < params.numCores; c++) {
        cores.emplace_back(std::make_unique<Core>(
            c, params.core, &memsys.cache(c), &memsys.functional(),
            streams_[c].get()));
    }
    // Directory contention oracle (Fig. 5 ground truth): concurrent
    // interest in a line marks matching in-flight atomics on both the
    // requesting and holding cores.
    for (unsigned b = 0; b < memsys.numBanks(); b++) {
        memsys.directory(b).setOracleHook(
            [this](Addr line, CoreId requester, CoreId holder, bool overlap,
                   Cycle now) {
                // Holders are concurrently using the line; requesters only
                // face contention when the transaction truly overlapped.
                if (overlap && requester < cores.size())
                    cores[requester]->oracleContentionHint(line, now);
                if (holder != invalidCore && holder < cores.size())
                    cores[holder]->oracleContentionHint(line, now);
            });
    }

    // Every thread-local gate (trace, checker, profiler, spans) is
    // re-applied from this System's options, so no System inherits a
    // mask an earlier one on the same thread selected.
    setupObservability();
    setupSelfChecking();
    setupProfiling();
    setupSpans();
    // Idle cores sleep under the fast-forward mode (DESIGN §9), except
    // while CPI stacks classify every tick: the bucket of a waiting
    // head reads MSHR state that moves while the core sleeps.
    const FastForwardMode sleep = Profiler::enabled(ProfCategory::Cpi)
                                      ? FastForwardMode::Off
                                      : opts_.fastForward;
    for (auto &c : cores)
        c->setSleepMode(sleep);

    // Every panic — checker violation, watchdog fire, protocol assert —
    // dumps the diagnostics snapshot before unwinding.
    coreProgress_.assign(params_.numCores, CoreProgress{});
    watchdogPeriod_ = std::clamp<Cycle>(params_.deadlockCycles / 8,
                                        Cycle{32}, Cycle{4096});
    pushPanicHook(this, [this](const std::string &msg) {
        dumpCrashDiagnostics(msg.c_str());
    });
}

System::~System()
{
    removePanicHook(this);
}

void
System::setupObservability()
{
    // Self-checking runs want post-mortem context: keep a retroactive
    // trace ring so crash dumps can replay the events leading up to a
    // violation, even with every trace sink off.
    std::uint64_t ring = opts_.traceRing;
    if (ring == 0 && (opts_.checkMask || opts_.faults.mask))
        ring = 256;
    Trace::instance().setup(opts_.traceMask, static_cast<std::size_t>(ring),
                            opts_.traceFile, opts_.traceJson);
    if (Trace::instance().jsonOpen()) {
        Trace &t = Trace::instance();
        for (CoreId c = 0; c < params_.numCores; c++) {
            const int pid = static_cast<int>(c);
            t.nameProcess(pid, strprintf("core%u", c));
            t.nameThread(pid, traceTidPipeline, "pipeline");
            t.nameThread(pid, traceTidAtomics, "atomics");
            t.nameThread(pid, traceTidPredictor, "predictor");
            t.nameThread(pid, traceTidCache, "l1d");
        }
        for (unsigned b = 0; b < memsys.numBanks(); b++)
            t.nameProcess(tracePidDirBase + static_cast<int>(b),
                          strprintf("dir%u", b));
        t.nameProcess(tracePidNetwork, "network");
    }

    // Interval sampler, with the metric time-series engine (and its
    // convergence monitor) when asked for.
    Cycle period = opts_.statsInterval;
    const ConvergeSpec &conv = opts_.converge;
    if (opts_.timeseries && period == 0)
        period = 8192; // default cadence when only the engine asked
    sampler_.configure(period, opts_.timeseries, conv);
    sampler_.addProbe("instructions", [this] {
        return static_cast<double>(totalInstructions());
    });
    sampler_.addProbe("atomics", [this] {
        return static_cast<double>(totalAtomics());
    });
    sampler_.addProbe("contendedAtomics", [this] {
        return static_cast<double>(totalCounter("atomicsDetectedContended"));
    });
    sampler_.addProbe("lazyIssued", [this] {
        return static_cast<double>(totalCounter("atomicsIssuedLazy"));
    });
    if (conv.active && !sampler_.find(conv.metric)) {
        std::string valid;
        for (const auto &p : sampler_.probes())
            valid += (valid.empty() ? "" : ", ") + p.name;
        ROWSIM_FATAL("ROWSIM_CONVERGE: unknown metric '%s' (valid: %s)",
                     conv.metric.c_str(), valid.c_str());
    }

    // Heartbeat sink, polled from the run loop.
    hb_ = Heartbeat(opts_.heartbeat);
    hbEnabled_ = hb_.enabled();

    // Derived whole-system statistics (Formula exercising).
    simStats_.formula("ipc") = [this] {
        return currentCycle
                   ? static_cast<double>(totalInstructions()) /
                         static_cast<double>(currentCycle)
                   : 0.0;
    };
    simStats_.formula("atomicsPer10k") = [this] {
        const double insts = static_cast<double>(totalInstructions());
        return insts ? 1e4 * static_cast<double>(totalAtomics()) / insts
                     : 0.0;
    };
    simStats_.formula("contendedPct") = [this] {
        const double unlocked =
            static_cast<double>(totalCounter("atomicsUnlocked"));
        return unlocked ? 100.0 *
                              static_cast<double>(totalCounter(
                                  "atomicsOracleContended")) /
                              unlocked
                        : 0.0;
    };
}

void
System::setupSelfChecking()
{
    // Invariant checker: the object always exists; the static mask
    // decides whether tick() ever calls into it.
    Checker::configure(opts_.checkMask);
    checker_ = std::make_unique<Checker>(this, opts_.checkInterval);

    // Fault injector: only constructed when a category is selected, so
    // the per-tick cost with faults off is one null-pointer test. The
    // store key fingerprints the same resolved setup.
    const FaultSetup &fs = opts_.faults;
    if (fs.mask) {
        faults_ = std::make_unique<FaultInjector>(this, fs.mask, fs.seed,
                                                  fs.rate);
        memsys.network().setDelayHook(
            [this](const Msg &msg, Cycle now) {
                return faults_->extraDelay(msg, now);
            });
    }
}

void
System::setupProfiling()
{
    Profiler::configure(opts_.profileMask);
    if (!Profiler::anyEnabled())
        return;
    profiler_ = std::make_unique<Profiler>(params_.numCores,
                                           params_.core.commitWidth);
    for (auto &c : cores)
        c->setProfiler(profiler_.get());
}

void
System::setupSpans()
{
    SpanTracker::configure(opts_.spans, opts_.spansTopK);
    if (!SpanTracker::enabled())
        return;
    spans_ = std::make_unique<SpanTracker>(params_.numCores);
    for (auto &c : cores)
        c->setSpans(spans_.get());
    for (CoreId c = 0; c < params_.numCores; c++)
        memsys.cache(c).setSpans(spans_.get());
    for (unsigned b = 0; b < memsys.numBanks(); b++)
        memsys.directory(b).setSpans(spans_.get());
    memsys.network().setSpans(spans_.get());
}

void
System::tick()
{
    currentCycle++;
    if (Trace::anyEnabled())
        Trace::setNow(currentCycle);
    if (faults_)
        faults_->tick(currentCycle);
    memsys.tick(currentCycle);
    for (auto &c : cores)
        c->tick(currentCycle);
    // Rare services (interval sample, checker sweep, watchdog scan) are
    // hoisted behind one precomputed deadline comparison.
    if (currentCycle >= nextServiceCycle_)
        serviceTick();
}

void
System::serviceTick()
{
    sampler_.tick(currentCycle);
    if (Checker::anyEnabled())
        checker_->tick(currentCycle);
    if (currentCycle - lastWatchdogScan_ >= watchdogPeriod_)
        watchdogScan();
    recomputeNextService();
}

void
System::recomputeNextService()
{
    // The watchdog deadline is always finite, bounding both the service
    // gap and the fast-forward skip length.
    Cycle next = lastWatchdogScan_ + watchdogPeriod_;
    if (sampler_.enabled())
        next = std::min(next, sampler_.nextSampleAt());
    if (Checker::anyEnabled())
        next = std::min(next, checker_->nextSweepAt());
    nextServiceCycle_ = next;
}

Cycle
System::nextEventCycle() const
{
    // Cores answer "busy, tick next cycle" with a handful of flag
    // checks, so scan them first and bail as soon as the running min
    // collapses to the next tick — no skip is possible then and the
    // (pricier) memory-side scan would be wasted work.
    const Cycle next_tick = currentCycle + 1;
    Cycle next = nextServiceCycle_;
    for (const auto &c : cores) {
        next = std::min(next, c->nextEventCycle(currentCycle));
        if (next <= next_tick)
            return next;
    }
    return std::min(next, memsys.nextEventCycle(currentCycle));
}

void
System::maybeFastForward()
{
    const Cycle next = nextEventCycle();
    if (next == invalidCycle || next <= currentCycle + 1) {
        // Busy phases cluster: double the probe interval (up to 64
        // ticks) on consecutive failures. A late probe only shortens a
        // skip, never changes simulated behaviour.
        ffBackoffLen_ = std::min<Cycle>(ffBackoffLen_ ? ffBackoffLen_ * 2 : 4,
                                        64);
        ffBackoff_ = ffBackoffLen_;
        return;
    }
    ffBackoffLen_ = 0;
    if (opts_.fastForward == FastForwardMode::Check) {
        auto dumpAll = [&]() {
            std::string s;
            auto addGroup = [&](const StatGroup &g) {
                for (const auto &kv : g.counters())
                    s += g.name() + "." + kv.first + "=" +
                         std::to_string(kv.second.value()) + "\n";
                for (const auto &kv : g.averages())
                    s += g.name() + "." + kv.first + "=" +
                         std::to_string(kv.second.count()) + ":" +
                         std::to_string(kv.second.sum()) + "\n";
            };
            forEachStatGroup(addGroup);
            // Interval samples must land at the same cycles with the
            // same deltas whether the window is skipped or ticked
            // through — compare the whole sampler, not just counters.
            Ser sampled;
            sampler_.save(sampled);
            s.append(sampled.bytes().begin(), sampled.bytes().end());
            return s;
        };
        const std::string before = dumpAll();
        // Equivalence assert: tick through the predicted-idle window and
        // verify nothing the skip would elide actually happens.
        const std::uint64_t insts = totalInstructions();
        const std::uint64_t atomics = totalAtomics();
        const std::uint64_t delivered =
            memsys.network().stats().counterValue("delivered");
        std::uint64_t steals = 0;
        for (CoreId c = 0; c < cores.size(); c++) {
            steals += memsys.cache(c).stats()
                          .counterValue("stealAttempts");
        }
        const Cycle from = currentCycle;
        while (currentCycle < next - 1)
            tick();
        std::uint64_t steals_after = 0;
        for (CoreId c = 0; c < cores.size(); c++) {
            steals_after += memsys.cache(c).stats()
                                .counterValue("stealAttempts");
        }
        if (totalInstructions() != insts || totalAtomics() != atomics ||
            memsys.network().stats().counterValue("delivered") !=
                delivered ||
            steals_after != steals) {
            ROWSIM_PANIC("[ff-check] cycles %llu..%llu were predicted "
                         "idle but committed work (insts %llu->%llu, "
                         "atomics %llu->%llu)",
                         static_cast<unsigned long long>(from + 1),
                         static_cast<unsigned long long>(next - 1),
                         static_cast<unsigned long long>(insts),
                         static_cast<unsigned long long>(
                             totalInstructions()),
                         static_cast<unsigned long long>(atomics),
                         static_cast<unsigned long long>(totalAtomics()));
        }
        const std::string after = dumpAll();
        if (before != after) {
            std::size_t p = 0;
            while (p < before.size() && p < after.size() &&
                   before[p] == after[p])
                p++;
            std::fprintf(stderr, "[ff-check] stats drift in window "
                         "%llu..%llu near: %.120s\n",
                         static_cast<unsigned long long>(from + 1),
                         static_cast<unsigned long long>(next - 1),
                         before.substr(p > 60 ? p - 60 : 0, 120).c_str());
            ROWSIM_PANIC("[ff-check] full-stats drift");
        }
        return;
    }
    ROWSIM_TRACE(TraceCategory::Pipeline, currentCycle,
                 "ff skip %llu..%llu",
                 static_cast<unsigned long long>(currentCycle + 1),
                 static_cast<unsigned long long>(next - 1));
    // Skipped windows never get per-tick classification; credit them as
    // explicit Idle slots so the CPI stacks stay slot-conserving.
    if (profiler_ && Profiler::enabled(ProfCategory::Cpi))
        profiler_->addIdleSlots(next - 1 - currentCycle);
    ffSkipped_ += next - 1 - currentCycle;
    currentCycle = next - 1;
}

void
System::watchdogScan()
{
    lastWatchdogScan_ = currentCycle;

    // Per-core commit progress. A drained core is legitimately idle
    // (quota reached, pipeline empty); everything else must commit
    // within the deadlock bound.
    for (CoreId c = 0; c < cores.size(); c++) {
        Core &core = *cores[c];
        CoreProgress &p = coreProgress_[c];
        const std::uint64_t insts = core.committedInstructions();
        if (insts != p.insts || core.drained()) {
            p.insts = insts;
            p.cycle = currentCycle;
        } else if (currentCycle - p.cycle > params_.deadlockCycles) {
            ROWSIM_PANIC("[watchdog] core%u made no commit progress for "
                         "%llu cycles (rob=%u lq=%u sq=%u aq=%u, last "
                         "committed seq %llu)",
                         c,
                         static_cast<unsigned long long>(
                             currentCycle - p.cycle),
                         core.robOccupancy(), core.loadQueue().size(),
                         core.storeQueue().size(),
                         core.atomicQueue().size(),
                         static_cast<unsigned long long>(
                             core.lastCommittedSeq()));
        }
    }

    // Per-structure ages (MSHRs, directory Blocked entries). These scan
    // hash maps, so they run at a much coarser cadence than the per-core
    // counter comparison above.
    const Cycle struct_period = std::max<Cycle>(params_.deadlockCycles / 2,
                                                Cycle{1});
    if (currentCycle - lastStructScan_ < struct_period)
        return;
    lastStructScan_ = currentCycle;
    const Cycle bound = params_.deadlockCycles;
    for (CoreId c = 0; c < cores.size(); c++) {
        memsys.cache(c).forEachMshr([&](Addr line, const Mshr &m) {
            if (currentCycle > m.netIssueCycle &&
                currentCycle - m.netIssueCycle > bound) {
                ROWSIM_PANIC("[watchdog] l1d%u MSHR for line %#llx "
                             "outstanding for %llu cycles",
                             c, static_cast<unsigned long long>(line),
                             static_cast<unsigned long long>(
                                 currentCycle - m.netIssueCycle));
            }
        });
    }
    for (unsigned b = 0; b < memsys.numBanks(); b++) {
        memsys.directory(b).forEachLine(
            [&](const Directory::LineInfo &i) {
                if (i.state == DirState::Blocked &&
                    i.blockedSince != invalidCycle &&
                    currentCycle > i.blockedSince &&
                    currentCycle - i.blockedSince > bound) {
                    ROWSIM_PANIC("[watchdog] dir%u line %#llx Blocked "
                                 "for %llu cycles (requester core%u)",
                                 b,
                                 static_cast<unsigned long long>(i.line),
                                 static_cast<unsigned long long>(
                                     currentCycle - i.blockedSince),
                                 i.txnRequester);
                }
            });
    }
}

Cycle
System::run(std::uint64_t iter_quota)
{
    return runLoop(iter_quota, 0);
}

Cycle
System::runWarmup(std::uint64_t iter_quota, std::uint64_t warm_iters)
{
    ROWSIM_ASSERT(warm_iters > 0 && warm_iters < iter_quota,
                  "warmup stop %llu must lie inside the quota %llu",
                  static_cast<unsigned long long>(warm_iters),
                  static_cast<unsigned long long>(iter_quota));
    return runLoop(iter_quota, warm_iters);
}

Cycle
System::runLoop(std::uint64_t iter_quota, std::uint64_t warm_iters)
{
    if (hbEnabled_ && hbStartMs_ == 0) {
        hbStartMs_ = Heartbeat::wallMs();
        hbLastCycle_ = currentCycle;
    }
    while (true) {
        tick();
        if (hbEnabled_ && currentCycle >= hbNextProbe_) {
            // Coarse cycle grid keeps the hot loop at one comparison;
            // the probe itself rate-limits on wall clock.
            hbNextProbe_ = currentCycle + 4096;
            heartbeatProbe(iter_quota);
        }

        bool all_done = true;
        for (auto &c : cores) {
            if (c->committedIterations() >= iter_quota) {
                if (!c->isHalted())
                    c->halt();
            } else {
                all_done = false;
            }
        }
        if (all_done) {
            if (profiler_)
                profiler_->checkConservation(currentCycle, "end of run");
            return currentCycle;
        }
        if (warm_iters) {
            bool warm = true;
            for (auto &c : cores) {
                if (c->committedIterations() < warm_iters) {
                    warm = false;
                    break;
                }
            }
            // Return with every core still running: the state here is
            // exactly the state a cold run's loop continues from. (The
            // one skipped fast-forward probe below is result-equivalent
            // by construction — skipping later or less never changes
            // simulated behaviour.)
            if (warm)
                return currentCycle;
        }
        // Convergence-bounded run: the flag latches inside the interval
        // sample (in this very tick), so the stop lands exactly on the
        // sample cycle — a period multiple, identical with fast-forward
        // on, off, or check. Cores stay unhalted, like a warmup return;
        // the quota above remains the upper bound. Warmup runs ignore
        // convergence so a checkpoint is never cut short.
        if (!warm_iters && sampler_.converged())
            return currentCycle;
        // Deadlock detection lives in watchdogScan() (called from
        // tick()): per-core commit progress plus per-structure ages,
        // so a fire names the stuck component.
        if (opts_.fastForward != FastForwardMode::Off) {
            if (ffBackoff_ == 0)
                maybeFastForward();
            else
                ffBackoff_--;
        }
    }
}

void
System::heartbeatProbe(std::uint64_t iter_quota)
{
    const std::uint64_t now_ms = Heartbeat::wallMs();
    if (hbLastMs_ != 0 && now_ms - hbLastMs_ < opts_.heartbeatMs)
        return;
    std::uint64_t iters = 0;
    for (const auto &c : cores)
        iters += std::min(c->committedIterations(), iter_quota);
    const std::uint64_t quota_total =
        iter_quota * static_cast<std::uint64_t>(cores.size());
    double kcps = 0;
    if (hbLastMs_ != 0 && now_ms > hbLastMs_) {
        // Kcycles/s == simulated cycles per wall-clock ms.
        kcps = static_cast<double>(currentCycle - hbLastCycle_) /
               static_cast<double>(now_ms - hbLastMs_);
    }
    double eta_ms = -1;
    if (iters > 0 && quota_total > iters && now_ms > hbStartMs_) {
        eta_ms = static_cast<double>(now_ms - hbStartMs_) *
                 static_cast<double>(quota_total - iters) /
                 static_cast<double>(iters);
    }
    hb_.emitRun(currentCycle, iters, quota_total, kcps, eta_ms);
    hbLastMs_ = now_ms;
    hbLastCycle_ = currentCycle;
}

void
System::runCycles(Cycle cycles)
{
    const Cycle end = currentCycle + cycles;
    while (currentCycle < end)
        tick();
}

void
System::drain()
{
    for (auto &c : cores)
        c->halt();
    const Cycle start = currentCycle;
    while (true) {
        bool quiet = memsys.idle();
        for (auto &c : cores)
            quiet = quiet && c->drained();
        if (quiet)
            return;
        tick();
        if (currentCycle - start > params_.deadlockCycles) {
            ROWSIM_PANIC("drain did not quiesce after %llu cycles; "
                         "stuck: %s",
                         static_cast<unsigned long long>(
                             currentCycle - start),
                         stuckSummary().c_str());
        }
    }
}

template <class Ar>
void
System::visitArch(Ar &ar)
{
    // Integer-only pass: everything that decides future simulated
    // behaviour. stateDigest() hashes exactly these bytes, so no
    // floating-point value may land here (doubles travel in the stats
    // pass, which is outside the digest).
    ar.section("arch");
    ar.u64(currentCycle);
    for (auto &c : cores)
        ar.io(*c);
    ar.io(memsys);
    bool had_faults = faults_ != nullptr;
    ar.b(had_faults);
    if (had_faults != (faults_ != nullptr)) {
        throw SnapshotError(strprintf(
            "fault-injection mismatch: image was taken %s fault "
            "injection, this run is %s it",
            had_faults ? "with" : "without",
            faults_ ? "with" : "without"));
    }
    if (faults_)
        ar.io(*faults_);
}

template <class Ar>
void
System::visit(Ar &ar)
{
    visitArch(ar);

    // Bookkeeping that steers wall-clock behaviour (watchdog cadence,
    // fast-forward backoff) but never simulated results; kept out of
    // the digest so ROWSIM_FF settings cannot perturb it.
    ar.section("aux");
    for (auto &p : coreProgress_) {
        ar.u64(p.insts);
        ar.u64(p.cycle);
    }
    ar.u64(lastWatchdogScan_);
    ar.u64(lastStructScan_);
    ar.u64(ffSkipped_);
    ar.u64(ffBackoff_);
    ar.u64(ffBackoffLen_);
    Cycle last_sweep = checker_->lastSweepAt();
    std::uint64_t sweeps = checker_->sweepsRun();
    ar.u64(last_sweep);
    ar.u64(sweeps);
    if constexpr (Ar::loading)
        checker_->restoreSweepState(last_sweep, sweeps);

    ar.section("stats");
    forEachStatGroup([&](StatGroup &g) { ar.io(g); });
    ar.io(sampler_);
}

void
System::save(Ser &s) const
{
    // A warm-up's images grow from mark to mark: reserving the last
    // one's size and a quarter more writes the next without regrowing
    // the buffer. Untouched capacity costs address space, not memory.
    const std::size_t start = s.size();
    s.reserve(start + lastImageBytes_ + lastImageBytes_ / 4);
    const_cast<System &>(*this).visit(s);
    s.finish();
    lastImageBytes_ = s.size() - start;
}

void
System::restore(Deser &d)
{
    visit(d);
    d.expectEnd();
    // Span state is never serialized: any span still open crossed the
    // restore point, and atomics in flight inside the image can never
    // open one. Both are dropped and counted, so no dangling span ID
    // survives a restore.
    if (spans_) {
        spans_->truncateOpen();
        std::uint64_t in_image = 0;
        for (const auto &c : cores) {
            c->atomicQueue().forEach([&](const AqEntry &a) {
                if (a.valid)
                    in_image++;
            });
        }
        spans_->noteTruncated(in_image);
    }
    // The service deadline is derived state: recompute it from the
    // restored watchdog / sampler / checker positions.
    recomputeNextService();
    if (Trace::anyEnabled())
        Trace::setNow(currentCycle);
}

std::uint64_t
System::configFingerprint() const
{
    // Delegate to the standalone encoder with this System's actual
    // injector setup, so the fingerprint reflects what is running, not
    // what the environment would resolve to now.
    return rowsim::configFingerprint(
        params_, faults_ ? faults_->mask() : 0,
        faults_ ? faults_->seed() : 0, faults_ ? faults_->rate() : 0);
}

std::string
System::stateDigest() const
{
    Ser s;
    return digestHex(s, [&] {
        s.u64(configFingerprint());
        const_cast<System &>(*this).visitArch(s);
    });
}

void
System::saveCheckpoint(const std::string &path) const
{
    if (profiler_ && profiler_->active()) {
        throw SnapshotError(
            "cannot checkpoint while the attribution profiler is "
            "active (the snapshot format does not carry profiler "
            "state; rerun with profiling off)");
    }
    Ser s;
    save(s);
    writeSnapshotFile(path, s.bytes(), configFingerprint());
}

void
System::restoreCheckpoint(const std::string &path)
{
    if (profiler_ && profiler_->active()) {
        throw SnapshotError(
            "cannot restore a checkpoint while the attribution "
            "profiler is active (the snapshot format does not carry "
            "profiler state; rerun with profiling off)");
    }
    const std::vector<std::uint8_t> payload =
        readSnapshotFile(path, configFingerprint());
    Deser d(payload);
    restore(d);
}

std::string
System::stuckSummary()
{
    std::string s;
    for (CoreId c = 0; c < cores.size(); c++) {
        Core &core = *cores[c];
        if (!core.drained()) {
            s += strprintf("core%u(rob=%u,lq=%u,sq=%u,aq=%u) ", c,
                           core.robOccupancy(), core.loadQueue().size(),
                           core.storeQueue().size(),
                           core.atomicQueue().size());
        }
    }
    for (CoreId c = 0; c < cores.size(); c++) {
        if (!memsys.cache(c).idle()) {
            s += strprintf("l1d%u(mshr=%zu) ", c,
                           memsys.cache(c).mshrCount());
        }
    }
    for (unsigned b = 0; b < memsys.numBanks(); b++) {
        if (!memsys.directory(b).idle()) {
            s += strprintf("dir%u(blocked=%u) ", b,
                           memsys.directory(b).blockedCount());
        }
    }
    if (!memsys.network().idle()) {
        s += strprintf("network(%zu msgs) ",
                       memsys.network().inFlightCount());
    }
    if (s.empty())
        return "no stuck components identified";
    s.pop_back();
    return s;
}

void
System::emitCrashJson(std::FILE *out, const char *reason)
{
    std::fprintf(out, "{\"reason\":\"%s\",\"cycle\":%llu,\"cores\":[",
                 jsonEscape(reason).c_str(),
                 static_cast<unsigned long long>(currentCycle));
    for (CoreId c = 0; c < cores.size(); c++) {
        std::fprintf(out, "%s", c ? "," : "");
        cores[c]->dumpDiag(out, currentCycle);
    }
    std::fprintf(out, "],\"caches\":[");
    for (CoreId c = 0; c < cores.size(); c++) {
        std::fprintf(out, "%s", c ? "," : "");
        memsys.cache(c).dumpDiag(out, currentCycle);
    }
    std::fprintf(out, "],\"directories\":[");
    for (unsigned b = 0; b < memsys.numBanks(); b++) {
        std::fprintf(out, "%s", b ? "," : "");
        memsys.directory(b).dumpDiag(out, currentCycle);
    }
    std::fprintf(out, "],\"network\":");
    memsys.network().dumpDiag(out, currentCycle);
    std::fprintf(out, ",\"recentTrace\":[");
    const auto recent = Trace::instance().ringSnapshot();
    for (std::size_t i = 0; i < recent.size(); i++) {
        std::fprintf(out, "%s\"%s\"", i ? "," : "",
                     jsonEscape(recent[i]).c_str());
    }
    std::fprintf(out, "]}");
}

void
System::dumpCrashDiagnostics(const char *reason)
{
    if (dumpingCrash_)
        return; // a panic inside the dump must not recurse
    dumpingCrash_ = true;
    // Serialise whole dumps across threads: concurrent sweep workers
    // panicking together must not interleave marker pairs on stderr or
    // racily clobber the ROWSIM_CRASH_JSON file.
    static std::mutex crashDumpMutex;
    std::lock_guard<std::mutex> lock(crashDumpMutex);
    std::fprintf(stderr, "=== ROWSIM CRASH DUMP BEGIN ===\n");
    emitCrashJson(stderr, reason);
    std::fprintf(stderr, "\n=== ROWSIM CRASH DUMP END ===\n");
    // Both crash sinks carry the sweep job key (like the trace / span
    // sinks), so concurrently failing jobs — or the same job's retries
    // in different processes — write distinct files instead of
    // clobbering one shared path.
    if (!opts_.crashJson.empty()) {
        const std::string dst = suffixJobPath(opts_.crashJson,
                                              Trace::jobKey());
        // Render in memory first: the dump must land atomically (the
        // sweep parent reads it while the dying child is still exiting)
        // and a panic inside a diagnostic printer must not leave a
        // half-written file.
        char *buf = nullptr;
        std::size_t len = 0;
        bool written = false;
        if (std::FILE *mem = open_memstream(&buf, &len)) {
            emitCrashJson(mem, reason);
            std::fprintf(mem, "\n");
            std::fclose(mem);
            try {
                atomicWriteFile(dst, buf, len);
                written = true;
            } catch (const std::exception &) {
            }
            std::free(buf);
        }
        if (!written) {
            std::fprintf(stderr,
                         "rowsim: cannot write crash dump to '%s'\n",
                         dst.c_str());
        }
    }
    // Crash checkpoint: reuse the snapshot layer to leave a resumable
    // image behind. Best effort — a panic can fire mid-tick, and a
    // failed save must not mask the original panic.
    if (!opts_.crashCkpt.empty()) {
        const std::string dst = suffixJobPath(opts_.crashCkpt,
                                              Trace::jobKey());
        try {
            saveCheckpoint(dst);
            std::fprintf(stderr,
                         "rowsim: crash checkpoint written to '%s'\n",
                         dst.c_str());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "rowsim: crash checkpoint failed: %s\n",
                         e.what());
        }
    }
    std::fflush(stderr);
    dumpingCrash_ = false;
}

namespace
{
void
dumpGroupJson(std::FILE *out, StatGroup &g, bool &first_group)
{
    if (!first_group)
        std::fprintf(out, ",\n");
    first_group = false;
    std::fprintf(out, "    \"%s\": {", g.name().c_str());
    bool first = true;
    for (const auto &kv : g.counters()) {
        std::fprintf(out, "%s\"%s\": %llu", first ? "" : ", ",
                     kv.first.c_str(),
                     static_cast<unsigned long long>(kv.second.value()));
        first = false;
    }
    for (const auto &kv : g.averages()) {
        std::fprintf(out,
                     "%s\"%s\": {\"mean\": %.6g, \"min\": %.6g, "
                     "\"max\": %.6g, \"count\": %llu}",
                     first ? "" : ", ", kv.first.c_str(),
                     kv.second.mean(), kv.second.min(), kv.second.max(),
                     static_cast<unsigned long long>(kv.second.count()));
        first = false;
    }
    for (const auto &kv : g.formulas()) {
        std::fprintf(out, "%s\"%s\": %.6g", first ? "" : ", ",
                     kv.first.c_str(), kv.second.value());
        first = false;
    }
    for (const auto &kv : g.histograms()) {
        const Histogram &h = kv.second;
        std::fprintf(out,
                     "%s\"%s\": {\"mean\": %.6g, \"min\": %.6g, "
                     "\"max\": %.6g, \"count\": %llu, "
                     "\"p50\": %.6g, \"p90\": %.6g, \"p99\": %.6g, "
                     "\"lo\": %.6g, \"hi\": %.6g, \"underflow\": %llu, "
                     "\"overflow\": %llu, \"buckets\": [",
                     first ? "" : ", ", kv.first.c_str(),
                     h.summary().mean(), h.summary().min(),
                     h.summary().max(),
                     static_cast<unsigned long long>(h.summary().count()),
                     h.percentile(0.50), h.percentile(0.90),
                     h.percentile(0.99), h.lo(), h.hi(),
                     static_cast<unsigned long long>(h.underflow()),
                     static_cast<unsigned long long>(h.overflow()));
        for (std::size_t i = 0; i < h.buckets().size(); i++) {
            std::fprintf(out, "%s%llu", i ? ", " : "",
                         static_cast<unsigned long long>(
                             h.buckets()[i]));
        }
        std::fprintf(out, "]}");
        first = false;
    }
    std::fprintf(out, "}");
}
} // namespace

std::string
System::statsJson() const
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *mem = open_memstream(&buf, &len);
    if (!mem) {
        ROWSIM_WARN("open_memstream failed; statsJson not captured");
        return "";
    }
    dumpStatsJson(mem);
    std::fclose(mem);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

void
System::dumpStatsJson(std::FILE *out) const
{
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"cycles\": %llu,\n",
                 static_cast<unsigned long long>(currentCycle));
    std::fprintf(out, "  \"instructions\": %llu,\n",
                 static_cast<unsigned long long>(totalInstructions()));
    std::fprintf(out, "  \"atomics\": %llu,\n",
                 static_cast<unsigned long long>(totalAtomics()));
    std::fprintf(out, "  \"numCores\": %u,\n", numCores());

    std::fprintf(out, "  \"groups\": {\n");
    bool first_group = true;
    const_cast<System &>(*this).forEachStatGroup(
        [&](StatGroup &g) { dumpGroupJson(out, g, first_group); });
    std::fprintf(out, "\n  }");

    if (sampler_.enabled()) {
        std::fprintf(out, ",\n  \"intervals\": {\n");
        std::fprintf(out, "    \"period\": %llu,\n",
                     static_cast<unsigned long long>(sampler_.period()));
        std::fprintf(out, "    \"cycles\": [");
        const auto &cyc = sampler_.sampleCycles();
        for (std::size_t i = 0; i < cyc.size(); i++)
            std::fprintf(out, "%s%llu", i ? ", " : "",
                         static_cast<unsigned long long>(cyc[i]));
        std::fprintf(out, "],\n    \"series\": {");
        const auto &probes = sampler_.probes();
        for (std::size_t p = 0; p < probes.size(); p++) {
            std::fprintf(out, "%s\"%s\": [", p ? ", " : "",
                         probes[p].name.c_str());
            const auto &series = probes[p].series;
            for (std::size_t i = 0; i < series.size(); i++)
                std::fprintf(out, "%s%.6g", i ? ", " : "", series[i]);
            std::fprintf(out, "]");
        }
        std::fprintf(out, "}\n  }");
    }

    // Metric time-series engine (absent — not empty — when off, keeping
    // the off-mode dump byte-identical to pre-engine builds).
    if (sampler_.engineOn()) {
        std::fprintf(out, ",\n  \"timeseries\": %s",
                     sampler_.toJson().c_str());
    }
    // Attribution profiler (absent — not empty — when profiling is off,
    // keeping the off-mode dump byte-identical to pre-profiler builds).
    if (profiler_ && profiler_->active())
        std::fprintf(out, ",\n  \"profile\": %s",
                     profiler_->toJson().c_str());
    // Span tracker (same absent-when-off contract as "profile").
    if (spans_ && spans_->active())
        std::fprintf(out, ",\n  \"spans\": %s", spans_->toJson().c_str());
    std::fprintf(out, "\n}\n");
}

std::uint64_t
System::totalCounter(const std::string &name) const
{
    std::uint64_t sum = 0;
    for (const auto &c : cores)
        sum += const_cast<Core &>(*c).stats().counterValue(name);
    return sum;
}

double
System::meanAverage(const std::string &name) const
{
    double sum = 0;
    std::uint64_t n = 0;
    for (const auto &c : cores) {
        const Average *a =
            const_cast<Core &>(*c).stats().findAverage(name);
        if (a) {
            sum += a->sum();
            n += a->count();
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
System::meanCacheAverage(const std::string &name) const
{
    double sum = 0;
    std::uint64_t n = 0;
    for (CoreId c = 0; c < cores.size(); c++) {
        const Average *a = const_cast<MemSystem &>(memsys)
                               .cache(c).stats().findAverage(name);
        if (a) {
            sum += a->sum();
            n += a->count();
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

std::uint64_t
System::totalInstructions() const
{
    std::uint64_t sum = 0;
    for (const auto &c : cores)
        sum += c->committedInstructions();
    return sum;
}

std::uint64_t
System::totalAtomics() const
{
    std::uint64_t sum = 0;
    for (const auto &c : cores)
        sum += c->committedAtomics();
    return sum;
}

} // namespace rowsim
