/**
 * @file
 * Simulator-throughput benchmark driver (see perfbench/README.md).
 *
 * Builds a 32-core System directly from makeParams + makeStreams and
 * times only calls into the simulator's public API. One invocation
 * measures one workload:
 *
 *  - untraced (--trace 0): repeated, identical slices until --seconds
 *    have passed. A detail slice builds a fresh System (timed as set-up)
 *    and runs it to the quota with System::run; a sampled slice is the
 *    whole functional-warm / in-memory checkpoint / detail-window
 *    pipeline. Every slice must reproduce the first one exactly.
 *  - traced (--trace 1): alternates an untraced slice with a traced one
 *    that steps the System from outside — network, directory banks,
 *    private caches, cores, then the quota / halt checks, exactly
 *    System::tick's order — with proxy message handlers splitting
 *    delivery time out of network time, and a fast-forward probe that
 *    mirrors System::run's backoff. Spans are kept in memory and the
 *    last traced slice's spans are written out at the end.
 *
 * Simulated results (cycles, instructions, atomics, state digests) are
 * the correctness check, not metrics: the program reports them and
 * counts every slice that disagrees with the first slice, the untraced
 * run, or the functional atomicity replay as failed. It prints one JSON
 * object; perfbench/run.py turns it into the benchmark's result line.
 *
 * Usage: perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                         --trace <0|1> [--tiny] [--spans-out <path>]
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "common/sha256.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/sampling.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

constexpr unsigned kCores = 32;
/** Set-ups timed before the first slice, on top of one per slice, so
 *  the set-up median rests on enough samples even when slices are few. */
constexpr unsigned kExtraSetups = 4;
constexpr unsigned kMinSlices = 3;
/** Peak RSS is read after this many slices, before the host-speed probe
 *  and the oracle replay allocate anything; sim_kips covers the slices
 *  after them. */
constexpr unsigned kRssSlices = 2;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload
{
    const char *name;
    const char *profile;
    ExpConfig cfg;
    /** Per-core iteration quota (sampled: the functional quota Q whose
     *  grid floor(Q * k / n) places the checkpoints). */
    std::uint64_t quota;
    /** Sampled pipeline layout, ROWSIM_SAMPLE's <n>:<warm>:<detail>. */
    bool sampled = false;
    unsigned ckpts = 0;
    std::uint64_t warm = 0;
    std::uint64_t detail = 0;
};

ExpConfig
rowSat()
{
    return rowConfig(ContentionDetector::RWDir,
                     PredictorUpdate::SaturateOnContention);
}

std::vector<Workload>
workloads(bool tiny)
{
    if (tiny) {
        return {
            {"pc_eager", "pc", eagerConfig(), 3},
            {"canneal_row", "canneal", rowSat(), 3},
            {"tpcc_sampled", "tpcc", rowSat(), 40, true, 2, 1, 1},
        };
    }
    return {
        {"pc_eager", "pc", eagerConfig(), 20},
        {"canneal_row", "canneal", rowSat(), 60},
        {"tpcc_sampled", "tpcc", rowSat(), 600, true, 4, 2, 3},
    };
}

/** FetchAdd-only atomics on a dedicated word pool: the pool's final
 *  values are independent of interleaving, so a functional replay to
 *  the same per-core instruction counts must reproduce them (a lost or
 *  doubled update shows as a mismatch). */
bool
atomicWordsOrderFree(const WorkloadProfile &p)
{
    return p.aop == AtomicOp::FetchAdd && p.sharedFraction >= 1.0 &&
           p.storeBeforeAtomicProb == 0.0;
}

std::unique_ptr<System>
buildSystem(const Workload &w, std::uint64_t seed)
{
    const SystemParams sp = makeParams(w.cfg, kCores, seed);
    return std::make_unique<System>(
        sp, makeStreams(profileFor(w.profile), kCores, seed));
}

/** Digest of the first ops of every generated stream: the seed must
 *  reach the inputs, and nothing else may. */
std::string
inputDigest(const Workload &w, std::uint64_t seed)
{
    auto streams = makeStreams(profileFor(w.profile), kCores, seed);
    Ser s;
    for (auto &st : streams) {
        for (unsigned i = 0; i < 512; i++) {
            const MicroOp op = st->next();
            s.u8(static_cast<std::uint8_t>(op.cls));
            s.u8(static_cast<std::uint8_t>(op.aop));
            s.u64(op.addr);
            s.u64(op.pc);
            s.u64(op.value);
            s.u32(op.src0);
            s.u32(op.src1);
            s.b(op.takenBranch);
            s.b(op.endOfIteration);
        }
    }
    return Sha256::hashHex(s.bytes().data(), s.bytes().size());
}

// ---------------------------------------------------------------------
// Simulated results
// ---------------------------------------------------------------------

/** Per-layer simulated counts (work done, waiting) read from stats. */
struct Counts
{
    std::uint64_t eagerIssued = 0;
    std::uint64_t lazyIssued = 0;
    std::uint64_t predUpdates = 0;
    std::uint64_t predCorrect = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dirRequests = 0;
    std::uint64_t dirQueued = 0;
    std::uint64_t l1Accesses = 0;
    double missLatSum = 0;
    std::uint64_t missLatCount = 0;

    Counts &
    operator+=(const Counts &o)
    {
        eagerIssued += o.eagerIssued;
        lazyIssued += o.lazyIssued;
        predUpdates += o.predUpdates;
        predCorrect += o.predCorrect;
        delivered += o.delivered;
        dirRequests += o.dirRequests;
        dirQueued += o.dirQueued;
        l1Accesses += o.l1Accesses;
        missLatSum += o.missLatSum;
        missLatCount += o.missLatCount;
        return *this;
    }

    Counts
    operator-(const Counts &o) const
    {
        Counts d = *this;
        d.eagerIssued -= o.eagerIssued;
        d.lazyIssued -= o.lazyIssued;
        d.predUpdates -= o.predUpdates;
        d.predCorrect -= o.predCorrect;
        d.delivered -= o.delivered;
        d.dirRequests -= o.dirRequests;
        d.dirQueued -= o.dirQueued;
        d.l1Accesses -= o.l1Accesses;
        d.missLatSum -= o.missLatSum;
        d.missLatCount -= o.missLatCount;
        return d;
    }
};

Counts
countsOf(System &sys)
{
    Counts n;
    n.eagerIssued = sys.totalCounter("atomicsIssuedEager");
    n.lazyIssued = sys.totalCounter("atomicsIssuedLazy");
    for (CoreId c = 0; c < sys.numCores(); c++) {
        const StatGroup &pred = sys.core(c).predictor().stats();
        n.predUpdates += pred.counterValue("updates");
        n.predCorrect += pred.counterValue("correct");
        const StatGroup &l1 = sys.mem().cache(c).stats();
        n.l1Accesses += l1.counterValue("accesses");
        if (const Average *a = l1.findAverage("missLatency")) {
            n.missLatSum += a->sum();
            n.missLatCount += a->count();
        }
    }
    for (unsigned b = 0; b < sys.mem().numBanks(); b++) {
        const StatGroup &dir = sys.mem().directory(b).stats();
        n.dirRequests += dir.counterValue("getS") + dir.counterValue("getX");
        n.dirQueued += dir.counterValue("queuedRequests");
    }
    n.delivered = sys.mem().network().stats().counterValue("delivered");
    return n;
}

/** What one slice simulated. Equal slices must agree on every field. */
struct SimResult
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t atomics = 0;
    /** Cycles elided by fast-forward (simulator telemetry: it must
     *  also match between the untraced and the traced loop). */
    Cycle ffSkipped = 0;
    /** stateDigest() of the detail run; for the sampled pipeline a
     *  digest over funcStateDigest() after the functional phase and
     *  every window's stateDigest(). */
    std::string digest;
    /** Every section digest except "cycle": the traced loop advances
     *  the components, not System's own cycle counter, so this is what
     *  traced and untraced runs can be compared on. */
    std::string archDigest;
    Counts counts;
};

std::string
archDigestOf(const System &sys)
{
    std::string all;
    for (const auto &[name, digest] : sys.sectionDigests()) {
        if (name != "cycle")
            all += name + "=" + digest + ";";
    }
    return Sha256::hashHex(all.data(), all.size());
}

/** Compare @p got with @p want; append one line per differing field. */
void
compareSims(const SimResult &want, const SimResult &got, bool digest,
            const char *what, std::vector<std::string> &why)
{
    auto diff = [&](const char *field, std::uint64_t a, std::uint64_t b) {
        if (a != b) {
            why.push_back(strprintf("%s: %s %llu != %llu", what, field,
                                    static_cast<unsigned long long>(b),
                                    static_cast<unsigned long long>(a)));
        }
    };
    diff("sim_cycles", want.cycles, got.cycles);
    diff("instructions", want.insts, got.insts);
    diff("atomics", want.atomics, got.atomics);
    diff("ff_skipped", want.ffSkipped, got.ffSkipped);
    if (digest && want.digest != got.digest)
        why.push_back(strprintf("%s: state digest differs", what));
    if (want.archDigest != got.archDigest)
        why.push_back(strprintf("%s: architectural state differs", what));
}

/**
 * Atomicity oracle: drain @p detail, replay a fresh functional System
 * (restored from @p image when given) to the same per-core committed
 * instruction counts, and compare per-core atomics / iterations and —
 * when the workload's atomic pool is interleaving-free — every pool
 * word's final value.
 */
void
atomicityOracle(const Workload &w, std::uint64_t seed, System &detail,
                const Ser *image, std::vector<std::string> &why)
{
    detail.drain();
    auto ref = buildSystem(w, seed);
    if (image) {
        Deser d(image->bytes());
        ref->restore(d);
    }
    std::vector<std::uint64_t> targets(kCores);
    for (CoreId c = 0; c < kCores; c++)
        targets[c] = detail.core(c).committedInstructions();
    ref->runFunctionalToInstCounts(targets);
    for (CoreId c = 0; c < kCores; c++) {
        if (ref->core(c).committedAtomics() !=
                detail.core(c).committedAtomics() ||
            ref->core(c).committedIterations() !=
                detail.core(c).committedIterations()) {
            why.push_back(strprintf("oracle: core%u atomics/iterations "
                                    "differ from the functional replay",
                                    c));
            return;
        }
    }
    const WorkloadProfile p = profileFor(w.profile);
    if (!atomicWordsOrderFree(p))
        return;
    for (std::uint64_t i = 0; i < p.sharedAtomicWords; i++) {
        const Addr a = addrmap::sharedAtomicWord(i);
        if (detail.mem().functional().read64(a) !=
            ref->mem().functional().read64(a)) {
            why.push_back(strprintf("oracle: atomic word %llu holds %llu, "
                                    "functional replay %llu",
                                    static_cast<unsigned long long>(i),
                                    static_cast<unsigned long long>(
                                        detail.mem().functional().read64(
                                            a)),
                                    static_cast<unsigned long long>(
                                        ref->mem().functional().read64(
                                            a))));
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

enum Layer : std::uint16_t
{
    kPipeline,
    kLoop,
    kNetTick,
    kL1Deliver,
    kDirDeliver,
    kDirTick,
    kL1Tick,
    kCpuTick,
    kFfProbe,
    kFunc,
    kSave,
    kRestore,
    kLayers
};

const char *const kLayerNames[kLayers] = {
    "sim.pipeline", "sim.loop",    "net.tick",     "mem.l1.deliver",
    "mem.dir.deliver", "mem.dir.tick", "mem.l1.tick", "cpu.tick",
    "sim.ff.probe", "sim.funcmode", "sim.snapshot.save",
    "sim.snapshot.restore",
};

struct Span
{
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent; ///< index of the enclosing span, -1 for a root
    Layer layer;
};

/** In-memory span recorder; the innermost open span is the parent of
 *  the next one opened. */
class Tracer
{
  public:
    void
    open(Layer layer)
    {
        spans_.push_back({nowNs(), 0, cur_, layer});
        cur_ = static_cast<std::int32_t>(spans_.size() - 1);
    }

    void
    close()
    {
        Span &s = spans_[static_cast<std::size_t>(cur_)];
        s.end = nowNs();
        cur_ = s.parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

    void
    clear()
    {
        spans_.clear();
        cur_ = -1;
    }

  private:
    std::vector<Span> spans_;
    std::int32_t cur_ = -1;
};

/** Per-layer totals of one traced slice. A layer's self time is its
 *  spans' durations minus the durations of their direct children
 *  (children are sequential and nested, so that is the time they
 *  cover); the self times of all layers sum to the root spans' total. */
struct LayerTimes
{
    std::array<double, kLayers> self{};
    std::array<double, kLayers> incl{};
    std::array<std::uint64_t, kLayers> spans{};
    double base = 0;
};

LayerTimes
aggregate(const std::vector<Span> &spans)
{
    LayerTimes t;
    std::array<std::int64_t, kLayers> self{}, incl{};
    std::int64_t base = 0;
    for (const Span &s : spans) {
        const std::int64_t dur = s.end - s.start;
        self[s.layer] += dur;
        incl[s.layer] += dur;
        t.spans[s.layer]++;
        if (s.parent >= 0)
            self[spans[static_cast<std::size_t>(s.parent)].layer] -= dur;
        else
            base += dur;
    }
    for (unsigned l = 0; l < kLayers; l++) {
        t.self[l] = seconds(self[l]);
        t.incl[l] = seconds(incl[l]);
    }
    t.base = seconds(base);
    return t;
}

/** Forwards every delivery to the component's own handler inside a
 *  span, splitting handler time out of Network::tick. */
class TimedHandler : public MsgHandler
{
  public:
    TimedHandler(MsgHandler *inner, Layer layer, Tracer *tracer)
        : inner_(inner), layer_(layer), tracer_(tracer)
    {
    }

    void
    deliver(const Msg &msg, Cycle now) override
    {
        tracer_->open(layer_);
        inner_->deliver(msg, now);
        tracer_->close();
    }

  private:
    MsgHandler *inner_;
    Layer layer_;
    Tracer *tracer_;
};

/**
 * Steps a System from outside through its public per-component calls,
 * mirroring System::runLoop: tick order, per-core halting at the quota,
 * the warm-up return, the watchdog service deadline that bounds a skip,
 * and the fast-forward probe with its doubling backoff (4..64 ticks).
 * The watchdog scan itself is not run: it only ever panics.
 */
class Stepper
{
  public:
    Stepper(System &sys, Tracer &tracer)
        : sys_(sys), tracer_(tracer), cycle_(sys.now()),
          period_(std::clamp<Cycle>(sys.params().deadlockCycles / 8,
                                    Cycle{32}, Cycle{4096})),
          lastScan_(sys.now())
    {
        // A fresh System and a restored image both have their last
        // watchdog scan at the current cycle (runFunctional re-anchors
        // it before every checkpoint).
        Network &net = sys.mem().network();
        for (CoreId c = 0; c < kCores; c++) {
            proxies_.push_back(std::make_unique<TimedHandler>(
                &sys.mem().cache(c), kL1Deliver, &tracer));
            net.attach(c, proxies_.back().get());
        }
        for (unsigned b = 0; b < sys.mem().numBanks(); b++) {
            proxies_.push_back(std::make_unique<TimedHandler>(
                &sys.mem().directory(b), kDirDeliver, &tracer));
            net.attach(kCores + b, proxies_.back().get());
        }
    }

    Stepper(const Stepper &) = delete;
    Stepper &operator=(const Stepper &) = delete;

    ~Stepper()
    {
        Network &net = sys_.mem().network();
        for (CoreId c = 0; c < kCores; c++)
            net.attach(c, &sys_.mem().cache(c));
        for (unsigned b = 0; b < sys_.mem().numBanks(); b++)
            net.attach(kCores + b, &sys_.mem().directory(b));
    }

    /** System::run (@p warm == 0) or System::runWarmup. */
    Cycle
    run(std::uint64_t quota, std::uint64_t warm)
    {
        MemSystem &mem = sys_.mem();
        Network &net = mem.network();
        const unsigned banks = mem.numBanks();
        const bool ff = sys_.params().idleFastForward;
        tracer_.open(kLoop);
        while (true) {
            cycle_++;
            tracer_.open(kNetTick);
            net.tick(cycle_);
            tracer_.close();
            tracer_.open(kDirTick);
            for (unsigned b = 0; b < banks; b++)
                mem.directory(b).tick(cycle_);
            tracer_.close();
            tracer_.open(kL1Tick);
            for (CoreId c = 0; c < kCores; c++)
                mem.cache(c).tick(cycle_);
            tracer_.close();
            tracer_.open(kCpuTick);
            for (CoreId c = 0; c < kCores; c++)
                sys_.core(c).tick(cycle_);
            tracer_.close();
            if (cycle_ >= nextService_) {
                if (cycle_ - lastScan_ >= period_)
                    lastScan_ = cycle_;
                nextService_ = lastScan_ + period_;
            }

            bool all_done = true;
            for (CoreId c = 0; c < kCores; c++) {
                Core &core = sys_.core(c);
                if (core.committedIterations() >= quota) {
                    if (!core.isHalted())
                        core.halt();
                } else {
                    all_done = false;
                }
            }
            if (all_done)
                break;
            if (warm) {
                bool reached = true;
                for (CoreId c = 0; c < kCores && reached; c++)
                    reached = sys_.core(c).committedIterations() >= warm;
                if (reached)
                    break;
            }
            if (ff) {
                if (backoff_ == 0)
                    probe();
                else
                    backoff_--;
            }
        }
        tracer_.close();
        return cycle_;
    }

    std::uint64_t probes() const { return probes_; }
    std::uint64_t skips() const { return skips_; }
    Cycle skipped() const { return skipped_; }

  private:
    /** System::maybeFastForward over the public nextEventCycle calls. */
    void
    probe()
    {
        tracer_.open(kFfProbe);
        probes_++;
        const Cycle next_tick = cycle_ + 1;
        Cycle next = nextService_;
        bool busy = false;
        for (CoreId c = 0; c < kCores; c++) {
            next = std::min(next, sys_.core(c).nextEventCycle(cycle_));
            if (next <= next_tick) {
                busy = true;
                break;
            }
        }
        if (!busy)
            next = std::min(next, sys_.mem().nextEventCycle(cycle_));
        tracer_.close();
        if (next == invalidCycle || next <= next_tick) {
            backoffLen_ =
                std::min<Cycle>(backoffLen_ ? backoffLen_ * 2 : 4, 64);
            backoff_ = backoffLen_;
            return;
        }
        backoffLen_ = 0;
        skips_++;
        skipped_ += next - 1 - cycle_;
        cycle_ = next - 1;
    }

    System &sys_;
    Tracer &tracer_;
    Cycle cycle_;
    Cycle period_;
    Cycle lastScan_;
    Cycle nextService_ = 0;
    Cycle backoff_ = 0;
    Cycle backoffLen_ = 0;
    std::uint64_t probes_ = 0;
    std::uint64_t skips_ = 0;
    Cycle skipped_ = 0;
    std::vector<std::unique_ptr<TimedHandler>> proxies_;
};

// ---------------------------------------------------------------------
// Slices
// ---------------------------------------------------------------------

struct Slice
{
    double setupS = 0;
    /** Timed simulation: System::run, or the pipeline's functional,
     *  checkpoint, restore and window segments. */
    double runS = 0;
    SimResult sim;
    /** Traced slices only. */
    LayerTimes layers;
    std::uint64_t probes = 0;
    std::uint64_t skips = 0;
    /** Sampled pipeline: functional-phase instructions and mean
     *  checkpoint image size. */
    std::uint64_t funcInsts = 0;
    double imageMb = 0;
};

/** One detail slice: fresh System, run to the quota. */
Slice
detailSlice(const Workload &w, std::uint64_t seed, Tracer *tracer,
            bool oracle, std::vector<std::string> &why)
{
    Slice s;
    const std::int64_t t0 = nowNs();
    auto sys = buildSystem(w, seed);
    const std::int64_t t1 = nowNs();
    s.setupS = seconds(t1 - t0);
    if (tracer) {
        Stepper st(*sys, *tracer);
        s.sim.cycles = st.run(w.quota, 0);
        s.runS = seconds(nowNs() - t1);
        s.sim.ffSkipped = st.skipped();
        s.probes = st.probes();
        s.skips = st.skips();
        s.layers = aggregate(tracer->spans());
    } else {
        s.sim.cycles = sys->run(w.quota);
        s.runS = seconds(nowNs() - t1);
        s.sim.ffSkipped = sys->fastForwardedCycles();
        s.sim.digest = sys->stateDigest();
    }
    s.sim.insts = sys->totalInstructions();
    s.sim.atomics = sys->totalAtomics();
    s.sim.archDigest = archDigestOf(*sys);
    s.sim.counts = countsOf(*sys);
    if (oracle)
        atomicityOracle(w, seed, *sys, nullptr, why);
    return s;
}

/**
 * One sampled pipeline: a functional System warms through the grid
 * floor(Q * k / n); at each mark it is saved into memory, restored into
 * a fresh System, and that System runs a detail window (warm, then
 * measured iterations). Digests and oracle replays are taken between
 * timed segments and excluded from the slice time; traced slices open a
 * new root span per timed segment group for the same reason.
 */
Slice
sampledSlice(const Workload &w, std::uint64_t seed, Tracer *tracer,
             bool oracle, std::vector<std::string> &why)
{
    Slice s;
    const std::int64_t t0 = nowNs();
    auto fsys = buildSystem(w, seed);
    s.setupS = seconds(nowNs() - t0);

    std::int64_t busy = 0;
    std::int64_t segStart = 0;
    auto resume = [&] {
        if (tracer)
            tracer->open(kPipeline);
        segStart = nowNs();
    };
    auto pause = [&] {
        busy += nowNs() - segStart;
        if (tracer)
            tracer->close();
    };
    auto span = [&](Layer l, auto &&fn) {
        if (tracer)
            tracer->open(l);
        fn();
        if (tracer)
            tracer->close();
    };

    const std::vector<std::uint64_t> grid = sampleGrid(w.quota, w.ckpts);
    std::string digests;
    std::string archDigests;
    double imageBytes = 0;
    for (unsigned k = 0; k < w.ckpts; k++) {
        resume();
        if (grid[k] > 0)
            span(kFunc, [&] { fsys->runFunctional(w.quota, grid[k]); });
        Ser image;
        span(kSave, [&] { fsys->save(image); });
        std::unique_ptr<System> wsys;
        span(kRestore, [&] {
            wsys = buildSystem(w, seed);
            Deser d(image.bytes());
            wsys->restore(d);
        });
        const std::uint64_t stop = grid[k] + w.warm + w.detail;
        const Cycle startCycle = wsys->now();
        const std::uint64_t startInsts = wsys->totalInstructions();
        const std::uint64_t startAtomics = wsys->totalAtomics();
        const Counts startCounts = countsOf(*wsys);
        Cycle end;
        if (tracer) {
            Stepper st(*wsys, *tracer);
            if (w.warm)
                st.run(stop, grid[k] + w.warm);
            end = st.run(stop, 0);
            s.sim.ffSkipped += st.skipped();
            s.probes += st.probes();
            s.skips += st.skips();
        } else {
            const Cycle ff0 = wsys->fastForwardedCycles();
            if (w.warm)
                wsys->runWarmup(stop, grid[k] + w.warm);
            end = wsys->run(stop);
            s.sim.ffSkipped += wsys->fastForwardedCycles() - ff0;
        }
        pause();

        s.sim.cycles += end - startCycle;
        s.sim.insts += wsys->totalInstructions() - startInsts;
        s.sim.atomics += wsys->totalAtomics() - startAtomics;
        s.sim.counts += countsOf(*wsys) - startCounts;
        imageBytes += static_cast<double>(image.bytes().size());
        archDigests += archDigestOf(*wsys);
        if (!tracer)
            digests += wsys->stateDigest();
        if (oracle)
            atomicityOracle(w, seed, *wsys, &image, why);
    }
    s.runS = seconds(busy);
    s.funcInsts = fsys->totalInstructions();
    s.sim.insts += s.funcInsts;
    s.sim.atomics += fsys->totalAtomics();
    s.imageMb = imageBytes / w.ckpts / (1024.0 * 1024.0);
    s.sim.archDigest = Sha256::hashHex(archDigests.data(), archDigests.size());
    if (tracer) {
        s.layers = aggregate(tracer->spans());
    } else {
        digests = fsys->funcStateDigest() + digests;
        s.sim.digest = Sha256::hashHex(digests.data(), digests.size());
    }
    return s;
}

/** Hand freed pages back to the kernel, so the next System faults in
 *  fresh memory the way the first System of a new process does. */
void
releaseFreedMemory()
{
    malloc_trim(0);
}

Slice
runSlice(const Workload &w, std::uint64_t seed, Tracer *tracer,
         bool oracle, std::vector<std::string> &why)
{
    releaseFreedMemory();
    if (tracer)
        tracer->clear();
    return w.sampled ? sampledSlice(w, seed, tracer, oracle, why)
                     : detailSlice(w, seed, tracer, oracle, why);
}

// ---------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------

/** The probe's nominal time: its median on the host where the
 *  benchmark was defined (see README.md). Only ratios matter. */
constexpr double kProbeNominalS = 0.110;

/**
 * A fixed memory-bound reference kernel, timed between slices. The
 * simulator is memory-bound, and a shared host's memory system slows
 * and speeds up by tens of percent over minutes with co-tenant load.
 * The probe slows down with it: it churns a std::unordered_map, walks a
 * chained hash table in a preallocated arena, and chases a random cycle
 * of pointers over 32 MiB. sim_kips rescales each slice's host time by
 * the probe times around it. The probe is benchmark code, so no change
 * to the simulator changes it.
 */
class HostProbe
{
  public:
    HostProbe() : chase_(std::size_t{1} << 23), pool_(kOps), heads_(kBuckets)
    {
        std::vector<std::uint32_t> order(chase_.size());
        for (std::uint32_t i = 0; i < order.size(); i++)
            order[i] = i;
        std::uint64_t z = 99;
        for (std::size_t i = order.size() - 1; i > 0; i--) {
            z = lcg(z);
            std::swap(order[i], order[(z >> 33) % (i + 1)]);
        }
        for (std::size_t i = 0; i < order.size(); i++)
            chase_[order[i]] = order[(i + 1) % order.size()];
    }

    /** Seconds the fixed work took. */
    double
    run()
    {
        const std::int64_t t0 = nowNs();
        std::uint64_t sink = 0;

        std::unordered_map<std::uint64_t, std::uint64_t> map;
        std::uint64_t y = 7;
        for (unsigned i = 0; i < kOps; i++) {
            y = lcg(y);
            map[(y >> 40) & (kBuckets - 1)] += y;
        }
        sink += map.size();

        std::fill(heads_.begin(), heads_.end(), kNil);
        std::uint32_t used = 0;
        for (unsigned i = 0; i < kOps; i++) {
            y = lcg(y);
            const std::uint64_t key = (y >> 40) & (kBuckets - 1);
            const auto h = static_cast<std::uint32_t>(
                (key * 0x9e3779b97f4a7c15ULL) >> 46);
            std::uint32_t n = heads_[h];
            while (n != kNil && pool_[n].key != key)
                n = pool_[n].next;
            if (n != kNil) {
                pool_[n].val += y;
            } else {
                pool_[used] = {key, y, heads_[h]};
                heads_[h] = used++;
            }
        }
        sink += used;

        std::uint32_t at = 0;
        for (unsigned i = 0; i < 400'000; i++)
            at = chase_[at];
        sink += at;

        sink_ = sink;
        return seconds(nowNs() - t0);
    }

  private:
    static constexpr unsigned kOps = 600'000;
    static constexpr std::uint32_t kBuckets = 1u << 18;
    static constexpr std::uint32_t kNil = ~0u;

    struct Node
    {
        std::uint64_t key;
        std::uint64_t val;
        std::uint32_t next;
    };

    static std::uint64_t
    lcg(std::uint64_t x)
    {
        return x * 6364136223846793005ULL + 1442695040888963407ULL;
    }

    std::vector<std::uint32_t> chase_;
    std::vector<Node> pool_;
    std::vector<std::uint32_t> heads_;
    /** Keeps the work observable, so none of it is optimised away. */
    volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); i++)
        out += strprintf("%s%.9g", i ? ", " : "", v[i]);
    return out + "]";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Spans of the last traced slice, one CSV row each, times relative to
 *  the first span's start. */
void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
        std::exit(1);
    }
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
    std::fprintf(f, "id,parent,layer,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        std::fprintf(f, "%zu,%d,%s,%lld,%lld\n", i, s.parent,
                     kLayerNames[s.layer],
                     static_cast<long long>(s.start - t0),
                     static_cast<long long>(s.end - t0));
    }
    std::fclose(f);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string spansOut;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload <pc_eager|canneal_row|tpcc_sampled> "
                 "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
                 "[--spans-out <path>]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = value() != "0";
        else if (a == "--tiny")
            o.tiny = true;
        else if (a == "--spans-out")
            o.spansOut = value();
        else
            usage(("unknown argument " + a).c_str());
    }
    return o;
}

int
run(const Options &o)
{
    const std::vector<Workload> all = workloads(o.tiny);
    const Workload *w = nullptr;
    for (const Workload &c : all) {
        if (o.workload == c.name)
            w = &c;
    }
    if (!w)
        usage(("unknown workload '" + o.workload + "'").c_str());

    const std::int64_t start = nowNs();
    const auto elapsed = [&] { return seconds(nowNs() - start); };

    std::vector<double> setups;
    for (unsigned i = 0; i < kExtraSetups; i++) {
        releaseFreedMemory();
        const std::int64_t t0 = nowNs();
        auto sys = buildSystem(*w, o.seed);
        setups.push_back(seconds(nowNs() - t0));
    }

    std::vector<std::string> why;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<Slice> plain, traced;
    Tracer tracer;
    double rssMb = 0;
    std::unique_ptr<HostProbe> probe;
    std::vector<double> probeS;
    while (plain.size() < kMinSlices || elapsed() < o.seconds) {
        std::vector<std::string> sliceWhy;
        Slice s = runSlice(*w, o.seed, nullptr, false, sliceWhy);
        if (!plain.empty())
            compareSims(plain.front().sim, s.sim, true, "slice", sliceWhy);
        attempted++;
        if (!sliceWhy.empty())
            failed++;
        why.insert(why.end(), sliceWhy.begin(), sliceWhy.end());
        setups.push_back(s.setupS);
        plain.push_back(std::move(s));
        if (plain.size() == kRssSlices) {
            rssMb = peakRssMb();
            probe = std::make_unique<HostProbe>();
        }
        if (probe)
            probeS.push_back(probe->run());

        if (o.trace) {
            sliceWhy.clear();
            Slice t = runSlice(*w, o.seed, &tracer, false, sliceWhy);
            compareSims(plain.front().sim, t.sim, false, "traced",
                        sliceWhy);
            attempted++;
            if (!sliceWhy.empty())
                failed++;
            why.insert(why.end(), sliceWhy.begin(), sliceWhy.end());
            traced.push_back(std::move(t));
        }
    }

    // The atomicity oracle replays the first slice once more after the
    // peak-RSS reading, so its extra System is not counted.
    {
        std::vector<std::string> sliceWhy;
        Slice s = runSlice(*w, o.seed, nullptr, true, sliceWhy);
        compareSims(plain.front().sim, s.sim, true, "oracle slice",
                    sliceWhy);
        attempted++;
        if (!sliceWhy.empty())
            failed++;
        why.insert(why.end(), sliceWhy.begin(), sliceWhy.end());
    }

    // Slice i >= kRssSlices ran between probes i - kRssSlices and
    // i - kRssSlices + 1; its host time is rescaled by their mean.
    std::vector<double> kips, normKips, runS;
    for (std::size_t i = 0; i < plain.size(); i++) {
        const Slice &s = plain[i];
        kips.push_back(static_cast<double>(s.sim.insts) / s.runS / 1e3);
        runS.push_back(s.runS);
        if (i >= kRssSlices) {
            const std::size_t p = i - kRssSlices;
            normKips.push_back(kips.back() * 0.5 *
                               (probeS[p] + probeS[p + 1]) /
                               kProbeNominalS);
        }
    }
    const Slice &ref = plain.front();
    const SimResult &sim = ref.sim;

    std::string out = "{";
    out += "\"workload\": " + jsonString(w->name);
    out += strprintf(", \"seed\": %llu, \"tiny\": %s",
                     static_cast<unsigned long long>(o.seed),
                     o.tiny ? "true" : "false");
    out += strprintf(", \"attempted\": %llu, \"failed\": %llu",
                     static_cast<unsigned long long>(attempted),
                     static_cast<unsigned long long>(failed));
    out += ", \"why\": [";
    for (std::size_t i = 0; i < why.size() && i < 20; i++)
        out += (i ? ", " : "") + jsonString(why[i]);
    out += "]";
    out += ", \"input_digest\": " +
           jsonString(inputDigest(*w, o.seed));
    out += strprintf(", \"sim\": {\"sim_cycles\": %llu, \"instructions\": "
                     "%llu, \"atomics\": %llu, \"digest\": %s}",
                     static_cast<unsigned long long>(sim.cycles),
                     static_cast<unsigned long long>(sim.insts),
                     static_cast<unsigned long long>(sim.atomics),
                     jsonString(sim.digest).c_str());
    out += ", \"slice_kips\": " + jsonList(kips);
    out += ", \"slice_norm_kips\": " + jsonList(normKips);
    out += ", \"probe_s\": " + jsonList(probeS);
    out += ", \"slice_run_s\": " + jsonList(runS);
    out += ", \"setup_s\": " + jsonList(setups);
    out += strprintf(", \"peak_rss_mb\": %.6f", rssMb);

    if (o.trace) {
        // Layer times come from one traced slice, the one with the
        // median traced wall time, so its self times add up to its base.
        std::vector<std::size_t> order(traced.size());
        for (std::size_t i = 0; i < order.size(); i++)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return traced[a].layers.base < traced[b].layers.base;
                  });
        const Slice &t = traced[order[(order.size() - 1) / 2]];
        const LayerTimes &lt = t.layers;
        const Counts &n = sim.counts;
        const double cycles = static_cast<double>(sim.cycles);
        // Per-instruction ratios cover the detail part of the work.
        const double detailInsts =
            static_cast<double>(sim.insts - ref.funcInsts);
        const double untracedS = median(runS);
        const double funcS = lt.self[kFunc];

        out += ", \"layers\": {";
        auto put = [&](const char *name, double v, bool first = false) {
            out += strprintf("%s\"%s\": %.9g", first ? "" : ", ", name, v);
        };
        put("trace.base_s", lt.base, true);
        put("trace.untraced_s", untracedS);
        put("trace.overhead_pct", 100.0 * (lt.base / untracedS - 1.0));
        put("host.raw_kips", median(kips));
        put("host.probe_ms", 1e3 * median(probeS));
        put("cpu.self_s", lt.self[kCpuTick]);
        put("cpu.share_pct", 100.0 * lt.self[kCpuTick] / lt.base);
        put("cpu.ticks", static_cast<double>(lt.spans[kCpuTick]) * kCores);
        put("cpu.ipc", cycles ? detailInsts / cycles : 0.0);
        put("cpu.atomics", static_cast<double>(sim.atomics));
        put("cpu.eager_issued", static_cast<double>(n.eagerIssued));
        put("cpu.lazy_issued", static_cast<double>(n.lazyIssued));
        put("row.pred_accuracy_pct",
            n.predUpdates ? 100.0 * static_cast<double>(n.predCorrect) /
                                static_cast<double>(n.predUpdates)
                          : 0.0);
        put("row.updates", static_cast<double>(n.predUpdates));
        put("net.self_s", lt.self[kNetTick]);
        put("net.msgs_delivered", static_cast<double>(n.delivered));
        put("net.msgs_per_kinst",
            static_cast<double>(n.delivered) * 1e3 / detailInsts);
        put("mem.dir.self_s", lt.self[kDirTick] + lt.self[kDirDeliver]);
        put("mem.dir.requests", static_cast<double>(n.dirRequests));
        put("mem.dir.queued_requests", static_cast<double>(n.dirQueued));
        put("mem.l1.self_s", lt.self[kL1Tick] + lt.self[kL1Deliver]);
        put("mem.l1.accesses", static_cast<double>(n.l1Accesses));
        put("mem.l1.miss_latency_cyc",
            n.missLatCount ? n.missLatSum /
                                 static_cast<double>(n.missLatCount)
                           : 0.0);
        put("sim.ff.probe_s", lt.self[kFfProbe]);
        put("sim.ff.probes", static_cast<double>(t.probes));
        put("sim.ff.skip_ratio",
            t.probes ? static_cast<double>(t.skips) /
                           static_cast<double>(t.probes)
                     : 0.0);
        put("sim.ff.skipped_pct",
            cycles ? 100.0 * static_cast<double>(sim.ffSkipped) / cycles
                   : 0.0);
        put("sim.loop.self_s", lt.self[kLoop]);
        put("sim.pipeline.self_s", lt.self[kPipeline]);
        put("sim.funcmode.s", funcS);
        put("sim.funcmode.kips",
            funcS > 0 ? static_cast<double>(ref.funcInsts) / funcS / 1e3
                      : 0.0);
        put("sim.snapshot.save_s", lt.self[kSave]);
        put("sim.snapshot.restore_s", lt.self[kRestore]);
        put("sim.snapshot.mb", ref.imageMb);
        put("sim.window.s", w->sampled ? lt.incl[kLoop] : 0.0);
        out += "}";
        if (!o.spansOut.empty())
            writeSpans(o.spansOut, tracer.spans());
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
