/**
 * @file
 * Functional fast-mode interpreter (ROWSIM_MODE=func).
 *
 * A multi-instruction-per-tick execution path that retires the kernel
 * streams architecturally — the gem5 AtomicSimpleCPU / esesc
 * AtomicProcessor analogue — while skipping every out-of-order
 * structure. Each simulated cycle, every unhalted core retires a fixed
 * batch of micro-ops; memory operations go through the synchronous
 * MemSystem::funcAccess path, which applies each coherence
 * transaction's end state directly (caches, LRU order, directory
 * entries, and LLC presence all stay warm), and branches/atomics train
 * the branch and RoW predictors with the same update calls the detail
 * pipeline uses. Because nothing is ever in flight, any func-mode
 * cycle boundary is a legal snapshot point: the ordinary three-pass
 * save/restore round-trips func-warmed state into a detail run (and
 * back) without a dedicated format.
 *
 * What func mode deliberately does NOT model (the functional/detail
 * state contract; DESIGN.md): timing statistics, the StoreSet
 * dependence predictor (its only training input — memory-order
 * violations — is a speculation artifact that functional execution
 * cannot observe; it carries over unchanged), prefetching, and the
 * fault injector (runFunctional is refused under fault injection).
 */

#include <algorithm>

#include "common/log.hh"
#include "common/trace.hh"
#include "cpu/core.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"

namespace rowsim
{

namespace
{
/** Micro-ops retired per core per functional cycle. The exact value
 *  only scales how fast currentCycle advances relative to retirement
 *  (func-mode cycles are bookkeeping, not time); it is fixed so
 *  func-warmed checkpoints are deterministic. */
constexpr unsigned kFuncBatchOps = 64;
} // namespace

std::uint64_t
Core::funcRun(const std::function<bool(Addr, bool)> &access,
              unsigned max_ops, std::uint64_t iter_limit,
              std::uint64_t inst_limit, Cycle now)
{
    interruptSleep();
    std::uint64_t retired = 0;
    while (retired < max_ops && !halted) {
        if (iter_limit && iterations >= iter_limit)
            break;
        if (inst_limit && committedInsts >= inst_limit)
            break;
        const MicroOp op = stream->next();
        switch (op.cls) {
          case OpClass::Branch:
            // Same training call dispatch makes; the mispredict
            // penalty is timing and does not exist here.
            branchPred.update(op.pc, op.takenBranch);
            break;
          case OpClass::Load:
            access(op.addr, false);
            break;
          case OpClass::Store:
            access(op.addr, true);
            fmem->write64(op.addr, op.value);
            break;
          case OpClass::AtomicRMW: {
            // A cache-to-cache transfer is the same evidence the RWDir
            // detector keys on in detail mode (remote fill); the
            // latency half of the heuristic has no functional
            // equivalent, so "remote" stands in for "contended".
            const bool remote = access(op.addr, true);
            const std::uint64_t old = fmem->read64(op.addr);
            fmem->write64(op.addr, atomicModify(op, old));
            committedAtomicCount++;
            if (params.atomicPolicy == AtomicPolicy::RoW)
                rowPredictor.update(op.pc, remote, now);
            break;
          }
          default:
            // IntAlu / FpAlu / Fence / Nop: no architectural side
            // effect outside the counters (fences order nothing when
            // nothing is ever reordered).
            break;
        }
        committedInsts++;
        if (op.endOfIteration)
            iterations++;
        retired++;
    }
    return retired;
}

Cycle
System::runFunctional(std::uint64_t iter_quota, std::uint64_t warm_iters)
{
    if (faults_) {
        ROWSIM_FATAL("functional fast mode is incompatible with fault "
                     "injection (per-tick RNG draws have no functional "
                     "equivalent); run ROWSIM_MODE=detail");
    }
    if (warm_iters) {
        ROWSIM_ASSERT(warm_iters < iter_quota,
                      "warmup stop %llu must lie inside the quota %llu",
                      static_cast<unsigned long long>(warm_iters),
                      static_cast<unsigned long long>(iter_quota));
    }
    ROWSIM_ASSERT(memsys.idle(),
                  "runFunctional needs a quiesced memory system");

    // Successive warm-up calls with non-decreasing marks (the sampling
    // checkpoint grid) must not advance past a mark that is already
    // met: reaching the warm point is a return condition, not a
    // progress obligation.
    if (warm_iters) {
        bool reached = true;
        for (const auto &c : cores) {
            if (c->committedIterations() < warm_iters) {
                reached = false;
                break;
            }
        }
        if (reached)
            return currentCycle;
    }

    const auto accessFor = [this](CoreId c) {
        return [this, c](Addr addr, bool exclusive) {
            return memsys.funcAccess(c, addr, exclusive, currentCycle);
        };
    };

    while (true) {
        currentCycle++;
        if (Trace::anyEnabled())
            Trace::setNow(currentCycle);

        bool all_done = true;
        bool warm = warm_iters != 0;
        for (CoreId c = 0; c < cores.size(); c++) {
            Core &core = *cores[c];
            if (core.committedIterations() >= iter_quota) {
                if (!core.isHalted())
                    core.halt();
                continue;
            }
            all_done = false;
            core.funcRun(accessFor(c), kFuncBatchOps, iter_quota, 0,
                         currentCycle);
            if (warm && core.committedIterations() < warm_iters)
                warm = false;
        }
        if (all_done || warm)
            break;
    }
    finishFunctional();
    return currentCycle;
}

void
System::runFunctionalToInstCounts(
    const std::vector<std::uint64_t> &targets)
{
    if (faults_) {
        ROWSIM_FATAL("functional fast mode is incompatible with fault "
                     "injection (per-tick RNG draws have no functional "
                     "equivalent); run ROWSIM_MODE=detail");
    }
    ROWSIM_ASSERT(targets.size() == cores.size(),
                  "need one instruction target per core (%zu vs %zu)",
                  targets.size(), cores.size());
    ROWSIM_ASSERT(memsys.idle(),
                  "runFunctional needs a quiesced memory system");

    while (true) {
        currentCycle++;
        bool all_done = true;
        for (CoreId c = 0; c < cores.size(); c++) {
            Core &core = *cores[c];
            if (core.committedInstructions() >= targets[c])
                continue;
            all_done = false;
            const auto access = [this, c](Addr addr, bool exclusive) {
                return memsys.funcAccess(c, addr, exclusive,
                                         currentCycle);
            };
            core.funcRun(access, kFuncBatchOps, 0, targets[c],
                         currentCycle);
        }
        if (all_done)
            break;
    }
    finishFunctional();
}

void
System::finishFunctional()
{
    // Re-anchor the timing-side bookkeeping at the new cycle: the
    // watchdog / service schedule must not see the functional segment
    // as a detail-mode commit drought, and interval sampling resumes
    // from here.
    for (CoreId c = 0; c < cores.size(); c++) {
        coreProgress_[c].insts = cores[c]->committedInstructions();
        coreProgress_[c].cycle = currentCycle;
    }
    lastWatchdogScan_ = currentCycle;
    lastStructScan_ = currentCycle;
    // The functional path never ticks the checker: sweep once here,
    // so ROWSIM_CHECK covers the state it leaves behind.
    if (Checker::anyEnabled())
        checker_->sweep(currentCycle);
    recomputeNextService();
}

std::string
System::funcStateDigest() const
{
    // Mode-independent architectural facts only: committed-work
    // counters and the value memory. Everything timing-dependent
    // (cache/LRU contents, predictors, currentCycle itself) is
    // excluded — see the header comment for the contract.
    Ser s;
    return digestHex(s, [&] {
        s.u64(configFingerprint());
        s.section("funcdigest");
        s.u64(cores.size());
        for (const auto &c : cores) {
            s.u64(c->committedInstructions());
            s.u64(c->committedAtomics());
            s.u64(c->committedIterations());
        }
        s.io(const_cast<System &>(*this).memsys.functional());
    });
}

std::vector<std::pair<std::string, std::string>>
System::sectionDigests() const
{
    auto &self = const_cast<System &>(*this);
    std::vector<std::pair<std::string, std::string>> out;
    Ser s; // one buffer for every section
    const auto add = [&](std::string name, const auto &component) {
        out.emplace_back(std::move(name),
                         digestHex(s, [&] { s.io(component); }));
    };

    out.emplace_back("cycle",
                     digestHex(s, [&] { s.u64(currentCycle); }));
    for (CoreId c = 0; c < cores.size(); c++)
        add(strprintf("core%u", c), *cores[c]);
    add("network", self.memsys.network());
    add("fmem", self.memsys.functional());
    for (CoreId c = 0; c < cores.size(); c++)
        add(strprintf("cache%u", c), self.memsys.cache(c));
    for (unsigned b = 0; b < self.memsys.numBanks(); b++)
        add(strprintf("dir%u", b), self.memsys.directory(b));
    if (faults_)
        add("faults", *faults_);
    return out;
}

} // namespace rowsim
