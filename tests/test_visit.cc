/**
 * @file
 * The snapshot field lists (visit): every converted component's image
 * restores into a fresh instance and re-saves to identical bytes, warm
 * and mid-flight, under lazy and RoW; and corrupted leaf images (ring
 * indices outside the queue, out-of-range enum bytes, counts larger
 * than the bytes left, repeated value-memory addresses and directory
 * lines) are rejected with a named SnapshotError instead of indexing
 * out of bounds, attempting a huge allocation or merging records.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/atomic_queue.hh"
#include "cpu/lsq.hh"
#include "mem/cache_array.hh"
#include "mem/memsystem.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

using Bytes = std::vector<std::uint8_t>;

template <class T>
Bytes
imageOf(const T &component)
{
    Ser s;
    s.io(component);
    return s.bytes();
}

/** Restore @p warm's image into @p fresh; it must consume the whole
 *  image and save back to the same bytes. */
template <class T>
void
expectRoundTrip(const T &warm, T &fresh, const std::string &what)
{
    SCOPED_TRACE(what);
    const Bytes bytes = imageOf(warm);
    Deser d(bytes);
    d.io(fresh);
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(imageOf(fresh), bytes);
}

/** Restoring @p image into @p component must throw SnapshotError (and
 *  nothing else: a bad_alloc or length_error fails the test). */
template <class T>
void
expectRejected(const Bytes &image, T &component, const std::string &what)
{
    SCOPED_TRACE(what);
    Deser d(image);
    EXPECT_THROW(d.io(component), SnapshotError);
}

void
putU32(Bytes &b, std::size_t at, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; i++)
        b.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putU64(Bytes &b, std::size_t at, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; i++)
        b.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Offset of the first byte where @p a and @p b differ. */
std::size_t
firstDiff(const Bytes &a, const Bytes &b)
{
    for (std::size_t i = 0; i < a.size() && i < b.size(); i++) {
        if (a[i] != b[i])
            return i;
    }
    ADD_FAILURE() << "images do not differ";
    return 0;
}

/** Bytes a section marker plus @p fields takes: the offset of the next
 *  field in an image that starts that way. */
template <class Fn>
std::size_t
offsetAfter(const char *section, Fn &&fields)
{
    Ser s;
    s.section(section);
    fields(s);
    return s.bytes().size();
}

std::unique_ptr<System>
makeSystem(const ExpConfig &cfg, unsigned cores, std::uint64_t seed,
           const std::string &faults = "")
{
    SystemParams p = makeParams(cfg, cores, seed);
    if (!faults.empty()) {
        p.faultCategories = faults;
        p.faultSeed = 7;
        p.faultRate = 300;
    }
    return std::make_unique<System>(
        p, makeStreams(profileFor("cq"), cores, seed));
}

} // namespace

TEST(Visit, EveryComponentRoundTripsWarmAndMidFlight)
{
    const ExpConfig configs[] = {
        lazyConfig(),
        rowConfig(ContentionDetector::RWDir,
                  PredictorUpdate::SaturateOnContention),
    };
    const unsigned cores = 4;
    for (const ExpConfig &cfg : configs) {
        // Stopped mid-run: in-flight messages, MSHRs, waiting ops and
        // locked atomics are all in the images.
        auto warm = makeSystem(cfg, cores, 5);
        warm->runCycles(20000);
        auto fresh = makeSystem(cfg, cores, 5);
        const CoreParams &cp = warm->params().core;
        for (CoreId c = 0; c < cores; c++) {
            const std::string tag = cfg.label + " core" + std::to_string(c);
            Core &wc = warm->core(c);
            ASSERT_NE(imageOf(wc), imageOf(fresh->core(c))) << tag;
            expectRoundTrip(wc, fresh->core(c), tag + " Core");
            expectRoundTrip(warm->mem().cache(c), fresh->mem().cache(c),
                            tag + " PrivateCache");

            AtomicQueue aq(cp.aqEntries);
            expectRoundTrip(wc.atomicQueue(), aq, tag + " AtomicQueue");
            LoadQueue lq(cp.lqEntries);
            expectRoundTrip(wc.loadQueue(), lq, tag + " LoadQueue");
            StoreQueue sq(cp.sbEntries);
            expectRoundTrip(wc.storeQueue(), sq, tag + " StoreQueue");
            BranchPredictor bp;
            expectRoundTrip(wc.branchPredictor(), bp,
                            tag + " BranchPredictor");
            StoreSet ss;
            expectRoundTrip(wc.storeSets(), ss, tag + " StoreSet");
            ContentionPredictor rp(cp.row);
            expectRoundTrip(wc.predictor(), rp,
                            tag + " ContentionPredictor");
        }
        expectRoundTrip(warm->mem(), fresh->mem(), cfg.label + " MemSystem");

        // The System passes (arch, aux, stats) through the public API.
        Ser s;
        warm->save(s);
        auto resumed = makeSystem(cfg, cores, 5);
        Deser d(s.bytes());
        resumed->restore(d);
        Ser again;
        resumed->save(again);
        EXPECT_EQ(again.bytes(), s.bytes()) << cfg.label << " System";
    }
}

TEST(Visit, FaultInjectorAndStreamsRoundTrip)
{
    auto warm = makeSystem(lazyConfig(), 4, 9, "all");
    warm->runCycles(5000);
    auto fresh = makeSystem(lazyConfig(), 4, 9, "all");
    ASSERT_NE(warm->faults(), nullptr);
    expectRoundTrip(*warm->faults(), *fresh->faults(), "FaultInjector");
    expectRoundTrip(warm->core(1), fresh->core(1), "Core under faults");

    const WorkloadProfile &prof = profileFor("tpcc");
    KernelStream ks(prof, 2, 11), ksFresh(prof, 2, 11);
    for (int i = 0; i < 1234; i++)
        ks.next();
    expectRoundTrip(ks, ksFresh, "KernelStream");
    EXPECT_EQ(ks.next().pc, ksFresh.next().pc);

    std::vector<MicroOp> body(5);
    LoopStream ls(body), lsFresh(body);
    for (int i = 0; i < 3; i++)
        ls.next();
    expectRoundTrip(ls, lsFresh, "LoopStream");
}

TEST(Visit, RecordsRoundTripAndDropSpans)
{
    Msg m;
    m.type = MsgType::FwdGetX;
    m.line = 0x1240;
    m.src = 3;
    m.dst = 9;
    m.requester = 2;
    m.excl = true;
    m.contentionHint = true;
    m.sent = 77;
    m.spanId = 5;
    Msg back;
    back.spanId = 6;
    expectRoundTrip(m, back, "Msg");
    EXPECT_EQ(back.type, MsgType::FwdGetX);
    EXPECT_EQ(back.spanId, 0u) << "spans never survive a restore";

    MicroOp op;
    op.cls = OpClass::AtomicRMW;
    op.aop = AtomicOp::CompareSwap;
    op.addr = 0x80;
    op.execLatency = 3;
    op.casExpectMismatch = true;
    MicroOp opBack;
    expectRoundTrip(op, opBack, "MicroOp");

    MemResult r;
    r.source = FillSource::RemoteCache;
    r.value = 42;
    MemResult rBack;
    expectRoundTrip(r, rBack, "MemResult");

    Mshr mshr;
    mshr.line = 0x40;
    mshr.waiters.resize(2);
    mshr.waiters[1].isAtomic = true;
    mshr.waiters[1].spanId = 8;
    Mshr mBack;
    expectRoundTrip(mshr, mBack, "Mshr");
    EXPECT_EQ(mBack.waiters.size(), 2u);
    EXPECT_EQ(mBack.waiters[1].spanId, 0u);
}

TEST(Visit, CorruptedLeafImagesAreRejectedByName)
{
    // AQ ring indices outside a 4-entry queue: head() would read
    // slots[1000].
    {
        AtomicQueue aq(4);
        Bytes img = imageOf(aq);
        const std::size_t head =
            offsetAfter("aq", [](Ser &s) { s.u32(4); });
        putU32(img, head, 1000);     // headIdx
        putU32(img, head + 8, 1);    // count
        expectRejected(img, aq, "AQ headIdx 1000");

        img = imageOf(aq);
        putU32(img, head + 8, 5);    // count above capacity
        expectRejected(img, aq, "AQ count 5 of 4");
    }
    {
        LoadQueue lq(8);
        Bytes img = imageOf(lq);
        const std::size_t head =
            offsetAfter("lq", [](Ser &s) { s.u32(8); });
        putU32(img, head + 4, 3);    // tail moved, count still 0
        expectRejected(img, lq, "LQ tail without count");
    }

    // Out-of-range enum bytes, located by saving twice with the field
    // changed.
    {
        AtomicQueue aq(2);
        aq.entry(1).lockSource = FillSource::L1Hit;
        const Bytes a = imageOf(aq);
        aq.entry(1).lockSource = FillSource::Forwarded;
        Bytes img = imageOf(aq);
        img[firstDiff(a, img)] = 6;
        expectRejected(img, aq, "AQ lock source 6");
    }
    {
        Msg m;
        Bytes img = imageOf(m);
        img[0] = 200;
        expectRejected(img, m, "message type 200");
    }
    {
        MicroOp op;
        Bytes img = imageOf(op);
        img[0] = static_cast<std::uint8_t>(OpClass::Nop) + 1;
        expectRejected(img, op, "op class");
        img = imageOf(op);
        img[1] = static_cast<std::uint8_t>(AtomicOp::Swap) + 1;
        expectRejected(img, op, "atomic op");
    }
    {
        // Hand-written leaves range-check their enum bytes the same way.
        CacheArray arr(4, 2);
        arr.fill(arr.victim(0x40, nullptr, 0), 0x40, CacheState::Shared, 0);
        const Bytes a = imageOf(arr);
        arr.lookup(0x40, 0).setState(CacheState::Modified);
        Bytes img = imageOf(arr);
        img[firstDiff(a, img)] = 3;
        expectRejected(img, arr, "cache line state 3");
    }
    {
        MemResult r;
        r.source = FillSource::L1Hit;
        const Bytes a = imageOf(r);
        r.source = FillSource::Memory;
        Bytes img = imageOf(r);
        img[firstDiff(a, img)] = 0xff;
        expectRejected(img, r, "fill source 255");
    }

    // Counts larger than the bytes that remain: each would size a
    // container from the image before reading it.
    {
        KernelStream ks(profileFor("cq"), 0, 1);
        Bytes img = imageOf(ks);
        const std::size_t count = offsetAfter("kernelstream", [](Ser &s) {
            s.u32(0);                // tid
            for (int i = 0; i < 5; i++)
                s.u64(0);            // RNG state, iteration count
        });
        putU64(img, count, 1ULL << 60);
        expectRejected(img, ks, "kernel stream op count");
    }
    {
        Mshr mshr;
        Bytes img = imageOf(mshr);
        putU64(img, img.size() - 8, 1ULL << 40);
        expectRejected(img, mshr, "MSHR waiter count");
    }
    {
        // The network stays hand-written and bounds its count itself.
        auto sys = makeSystem(lazyConfig(), 4, 1);
        Network &net = sys->mem().network();
        Bytes img = imageOf(net);
        const std::size_t count =
            offsetAfter("network", [](Ser &s) { s.u32(0); }); // nodes
        putU64(img, count, 1ULL << 50);
        expectRejected(img, net, "network message count");
    }

    // Configured geometry still fails by name.
    {
        AtomicQueue small(2), big(4);
        expectRejected(imageOf(small), big, "AQ capacity");
    }
}

TEST(Visit, BulkLeafCountsAndRepeatsAreRejectedByName)
{
    auto sys = makeSystem(lazyConfig(), 4, 1);
    const auto rejection = [](const Bytes &img, auto &leaf) {
        try {
            Deser d(img);
            d.io(leaf);
        } catch (const SnapshotError &e) {
            return std::string(e.what());
        }
        return std::string();
    };

    // The value memory: a word count the bytes left cannot hold fails
    // before anything is sized by it; a repeated address (a zero gap
    // after the first word) is named.
    FunctionalMemory &fmem = sys->mem().functional();
    const auto fmemImage = [](std::uint64_t n,
                              const std::vector<std::uint64_t> &fields) {
        Ser s;
        s.section("fmem");
        s.u64(n);
        for (std::uint64_t f : fields)
            s.vu64(f);
        return s.bytes();
    };
    EXPECT_NE(rejection(fmemImage(1ULL << 60, {8, 1}), fmem)
                  .find("value memory: 1152921504606846976 words cannot fit"),
              std::string::npos);
    EXPECT_NE(rejection(fmemImage(2, {0x1000, 5, 0, 6}), fmem)
                  .find("value memory address 0x1000 repeated"),
              std::string::npos);
    // A gap that wraps past 2^64 lands on an earlier address.
    EXPECT_NE(rejection(fmemImage(3, {0x1000, 5, 8, 6, ~std::uint64_t{7}, 7}),
                        fmem)
                  .find("value memory address gap 0xfffffffffffffff8 after "
                        "0x1008 wraps"),
              std::string::npos);
    EXPECT_EQ(rejection(fmemImage(2, {0x1000, 5, 8, 6}), fmem), "");
    EXPECT_EQ(fmem.read64(0x1008), 6u);

    // A directory bank: a repeated line, or one a wrapping gap puts
    // back on an earlier line, would merge two records into one; the
    // image names it. The tail (wake-ups, stall buffer, LLC
    // array) is an empty bank's.
    Directory &dir = sys->mem().directory(0);
    const Bytes empty = imageOf(dir);
    const std::size_t tail =
        offsetAfter("directory", [](Ser &s) {
            s.u32(0); // bank
            s.u64(0); // entries
        });
    const auto dirImage = [&](std::uint64_t second_gap) {
        // Lines 0x1000 and 0x1000 + second_gap, both Shared.
        Ser s;
        s.section("directory");
        s.u32(0);
        s.u64(2);
        for (std::uint64_t gap : {std::uint64_t{0x1000}, second_gap}) {
            s.vu64(gap);
            s.u8(0x80 | static_cast<std::uint8_t>(DirState::Shared));
            s.vu64(0b11); // sharers
            s.vu64(0);    // no owner
        }
        s.raw(empty.data() + tail, empty.size() - tail);
        return s.bytes();
    };
    EXPECT_NE(rejection(dirImage(0), dir)
                  .find("directory bank 0 line 0x1000 repeated"),
              std::string::npos);
    EXPECT_NE(rejection(dirImage(~std::uint64_t{0xfff}), dir)
                  .find("directory bank 0 line gap 0xfffffffffffff000 after "
                        "line 0x1000 wraps"),
              std::string::npos);
    EXPECT_EQ(rejection(dirImage(0x40), dir), "");
    EXPECT_EQ(dir.lineState(0x1040), DirState::Shared);

    // A cache array's slot delta that wraps would land on an earlier
    // slot (here slot 1 after slot 3 of a 4x2 array).
    CacheArray arr(4, 2);
    Ser wrapped;
    wrapped.section("cachearray");
    wrapped.u32(4);
    wrapped.u32(2);
    wrapped.u64(2);
    for (const std::uint64_t delta : {std::uint64_t{3}, ~std::uint64_t{1}}) {
        wrapped.vu64(delta);
        wrapped.vu64(delta == 3 ? 1 : 4); // tag line: set 1, then set 0
        wrapped.u8(static_cast<std::uint8_t>(CacheState::Shared));
        wrapped.vu64(5);
    }
    EXPECT_NE(rejection(wrapped.bytes(), arr)
                  .find("cache array slot 3 + 18446744073709551614 out of "
                        "range"),
              std::string::npos);
}
