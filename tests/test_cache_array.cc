/**
 * @file
 * Unit tests for the set-associative tag array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/cache_array.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{
Addr
lineAt(unsigned set, unsigned tag_mult, unsigned sets)
{
    return (static_cast<Addr>(tag_mult) * sets + set) * lineBytes;
}

using Bytes = std::vector<std::uint8_t>;

Bytes
imageOf(const CacheArray &a)
{
    Ser s;
    a.save(s);
    return s.bytes();
}

/** Reference encoder: the image format written by walking every slot
 *  of the array, with storage or not. */
Bytes
fullWalkImage(const CacheArray &a)
{
    const std::size_t n = static_cast<std::size_t>(a.sets()) * a.ways();
    Ser s;
    s.section("cachearray");
    s.u32(a.sets());
    s.u32(a.ways());
    std::uint64_t valid = 0;
    for (std::size_t i = 0; i < n; i++)
        valid += a.slot(i).valid();
    s.u64(valid);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; i++) {
        const CacheArray::Line l = a.slot(i);
        if (!l.valid())
            continue;
        s.vu64(i - prev);
        prev = i;
        s.vu64(l.tag >> 6);
        s.u8(static_cast<std::uint8_t>(l.state));
        s.vu64(l.lastUse);
    }
    return s.bytes();
}

/** @p n seeded random operations: fills (evicting the LRU way when the
 *  set is full), in-place state changes, LRU touches and
 *  invalidations. Most land on 8 hot sets starting at @p hot_base, so
 *  most sets stay untouched. */
void
randomOps(CacheArray &a, Rng &r, unsigned n, unsigned hot_base, Cycle &now)
{
    for (unsigned k = 0; k < n; k++) {
        const auto set = static_cast<unsigned>(
            r.chance(0.8) ? (hot_base + 29 * r.below(8)) % a.sets()
                          : r.below(a.sets()));
        const Addr line =
            lineAt(set, static_cast<unsigned>(r.below(2 * a.ways())),
                   a.sets());
        now++;
        switch (r.below(4)) {
          case 0:
          case 1:
            if (a.peek(line) == CacheState::Invalid) {
                a.fill(a.victim(line, nullptr, now), line,
                       r.chance(0.5) ? CacheState::Shared
                                     : CacheState::Modified,
                       now);
            }
            break;
          case 2:
            if (const CacheArray::Way l = a.lookup(line, now))
                l.setState(r.chance(0.5) ? CacheState::Shared
                                         : CacheState::Modified);
            break;
          default:
            a.invalidate(line);
            break;
        }
    }
}

/** Restore @p img into a fresh 16x2 array; returns the SnapshotError
 *  message, or "" when the image was accepted. */
std::string
restoreError(const Bytes &img)
{
    CacheArray a(16, 2);
    Deser d(img);
    try {
        a.restore(d);
    } catch (const SnapshotError &e) {
        return e.what();
    }
    return "";
}

/**
 * Reference model: the tag array as it was before tags were packed,
 * one 24-byte Line per way in a flat slot vector (a set nothing was
 * filled into is a run of canonical invalid Lines). The differential
 * test runs it beside CacheArray.
 */
class RefArray
{
  public:
    struct Line
    {
        Addr tag = invalidAddr;
        CacheState state = CacheState::Invalid;
        std::uint64_t lastUse = 0;
        bool valid() const { return state != CacheState::Invalid; }
        void clear() { *this = Line{}; }
    };

    RefArray(unsigned sets, unsigned ways)
        : numSets(sets), numWays(ways),
          lines(static_cast<std::size_t>(sets) * ways)
    {
    }

    Line *
    lookup(Addr line_addr, Cycle now)
    {
        Line *l = find(lineAlign(line_addr));
        if (l)
            l->lastUse = now;
        return l;
    }

    CacheState
    peek(Addr line_addr)
    {
        const Line *l = find(lineAlign(line_addr));
        return l ? l->state : CacheState::Invalid;
    }

    Line *
    victim(Addr line_addr, const std::function<bool(Addr)> &pinned)
    {
        Line *best = nullptr;
        for (Line *l = setOf(line_addr); l != setOf(line_addr) + numWays;
             l++) {
            if (!l->valid())
                return l;
            if (pinned && pinned(l->tag))
                continue;
            if (!best || l->lastUse < best->lastUse)
                best = l;
        }
        return best;
    }

    void
    fill(Line *way, Addr line_addr, CacheState state, Cycle now)
    {
        *way = Line{lineAlign(line_addr), state, now};
    }

    CacheState
    invalidate(Addr line_addr)
    {
        Line *l = find(lineAlign(line_addr));
        if (!l)
            return CacheState::Invalid;
        const CacheState was = l->state;
        l->clear();
        return was;
    }

    /** Way index of @p l in the set of @p line_addr. */
    int
    wayOf(const Line *l, Addr line_addr)
    {
        return static_cast<int>(l - setOf(line_addr));
    }

    /** The save() image, from a walk over every slot. */
    Bytes
    image() const
    {
        Ser s;
        s.section("cachearray");
        s.u32(numSets);
        s.u32(numWays);
        std::uint64_t valid = 0;
        for (const Line &l : lines)
            valid += l.valid();
        s.u64(valid);
        std::uint64_t prev = 0;
        for (std::size_t i = 0; i < lines.size(); i++) {
            if (!lines[i].valid())
                continue;
            s.vu64(i - prev);
            prev = i;
            s.vu64(lines[i].tag >> 6);
            s.u8(static_cast<std::uint8_t>(lines[i].state));
            s.vu64(lines[i].lastUse);
        }
        return s.bytes();
    }

  private:
    Line *
    setOf(Addr line_addr)
    {
        const auto set =
            static_cast<unsigned>(lineNum(line_addr)) & (numSets - 1);
        return &lines[static_cast<std::size_t>(set) * numWays];
    }

    Line *
    find(Addr aligned)
    {
        for (Line *l = setOf(aligned); l != setOf(aligned) + numWays; l++) {
            if (l->valid() && l->tag == aligned)
                return l;
        }
        return nullptr;
    }

    unsigned numSets;
    unsigned numWays;
    std::vector<Line> lines;
};

/** Way index of the valid line @p line_addr in @p a, or -1. */
int
wayOf(const CacheArray &a, Addr line_addr)
{
    const std::size_t base =
        static_cast<std::size_t>(a.setIndex(line_addr)) * a.ways();
    for (unsigned w = 0; w < a.ways(); w++) {
        const CacheArray::Line l = a.slot(base + w);
        if (l.valid() && l.tag == lineAlign(line_addr))
            return static_cast<int>(w);
    }
    return -1;
}

/** @p n seeded random operations on @p a and @p ref alike: every call
 *  must answer the same way and state in both, and the two images
 *  must match after every 64 operations. Lines are the first
 *  2 x ways tags of the first four sets (line address 0 among them),
 *  and the clock stands still on half the operations, so sets fill
 *  and LRU stamps tie. */
void
differentialOps(CacheArray &a, RefArray &ref, Rng &r, unsigned n,
                Cycle &now)
{
    const unsigned sets = a.sets();
    const unsigned ways = a.ways();
    const auto randomState = [&] {
        return r.chance(0.5) ? CacheState::Shared : CacheState::Modified;
    };
    for (unsigned k = 0; k < n; k++) {
        SCOPED_TRACE(k);
        if (r.chance(0.5))
            now++;
        const auto set = static_cast<unsigned>(r.below(std::min(sets, 4u)));
        const Addr line = lineAt(
            set, static_cast<unsigned>(r.below(2 * ways)), sets);
        switch (r.below(7)) {
          case 0: {
            const CacheArray::Way w = a.lookup(line, now);
            RefArray::Line *l = ref.lookup(line, now);
            ASSERT_EQ(static_cast<bool>(w), l != nullptr);
            if (!l)
                break;
            EXPECT_EQ(wayOf(a, line), ref.wayOf(l, line));
            EXPECT_EQ(w.state(), l->state);
            EXPECT_EQ(w.lastUse(), l->lastUse);
            if (r.chance(0.5)) {
                const CacheState s = randomState();
                w.setState(s);
                l->state = s;
            }
            break;
          }
          case 1:
            EXPECT_EQ(a.peek(line), ref.peek(line));
            break;
          case 2:
          case 3: {
            if (ref.peek(line) != CacheState::Invalid)
                break; // victim() is only asked for absent lines
            // No pin, a random pin mask over the tags, or every way
            // pinned.
            std::function<bool(Addr)> pinned;
            const auto mode = r.below(3);
            if (mode == 1) {
                const std::uint64_t mask = r.below(~std::uint64_t{0});
                pinned = [mask, sets](Addr t) {
                    return (mask >> (lineNum(t) / sets % 64)) & 1;
                };
            } else if (mode == 2) {
                pinned = [](Addr) { return true; };
            }
            const CacheArray::Way w = a.victim(line, pinned, now);
            RefArray::Line *l = ref.victim(line, pinned);
            ASSERT_EQ(static_cast<bool>(w), l != nullptr);
            if (!l)
                break;
            ASSERT_EQ(w.valid(), l->valid());
            if (l->valid()) {
                EXPECT_EQ(w.tag(), l->tag);
                EXPECT_EQ(w.state(), l->state);
            }
            const CacheState s = randomState();
            a.fill(w, line, s, now);
            ref.fill(l, line, s, now);
            EXPECT_EQ(wayOf(a, line), ref.wayOf(l, line));
            break;
          }
          case 4:
          case 5: {
            bool hit = false;
            const CacheArray::Way w = a.lookupOrVictim(line, now, hit);
            RefArray::Line *l = ref.lookup(line, now);
            ASSERT_EQ(hit, l != nullptr);
            ASSERT_TRUE(w);
            if (hit) {
                EXPECT_EQ(wayOf(a, line), ref.wayOf(l, line));
                EXPECT_EQ(w.state(), l->state);
                break;
            }
            l = ref.victim(line, nullptr);
            ASSERT_EQ(w.valid(), l->valid());
            if (l->valid()) {
                EXPECT_EQ(w.tag(), l->tag);
            }
            const CacheState s = randomState();
            a.fill(w, line, s, now);
            ref.fill(l, line, s, now);
            EXPECT_EQ(wayOf(a, line), ref.wayOf(l, line));
            break;
          }
          default:
            EXPECT_EQ(a.invalidate(line), ref.invalidate(line));
            break;
        }
        if (k % 64 == 63) {
            ASSERT_EQ(imageOf(a), ref.image());
        }
    }
}

/** Run @p fn and turn its panic into a death (panics throw). */
template <class Fn>
void
dieOnPanic(Fn &&fn)
{
    try {
        fn();
    } catch (const std::logic_error &) {
        std::abort();
    }
}

/** A 16x2 image of (slot delta, line) entries in the save() encoding. */
Bytes
handImage(const std::vector<std::pair<std::uint64_t, Addr>> &entries)
{
    Ser s;
    s.section("cachearray");
    s.u32(16);
    s.u32(2);
    s.u64(entries.size());
    for (const auto &[delta, line] : entries) {
        s.vu64(delta);
        s.vu64(line >> 6);
        s.u8(static_cast<std::uint8_t>(CacheState::Shared));
        s.vu64(1);
    }
    return s.bytes();
}
} // namespace

TEST(CacheArray, MissOnEmpty)
{
    CacheArray c(16, 4);
    EXPECT_FALSE(c.lookup(0x1000, 1));
    EXPECT_EQ(c.peek(0x1000), CacheState::Invalid);
}

TEST(CacheArray, FillThenHit)
{
    CacheArray c(16, 4);
    const CacheArray::Way way = c.victim(0x1000, nullptr, 1);
    ASSERT_TRUE(way);
    c.fill(way, 0x1000, CacheState::Shared, 1);
    const CacheArray::Way hit = c.lookup(0x1003, 2); // same line, other offset
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit.tag(), lineAlign(0x1000));
    EXPECT_EQ(hit.state(), CacheState::Shared);
}

TEST(CacheArray, VictimPrefersInvalidWays)
{
    CacheArray c(4, 2);
    const CacheArray::Way w0 = c.victim(lineAt(0, 0, 4), nullptr, 1);
    c.fill(w0, lineAt(0, 0, 4), CacheState::Modified, 1);
    const CacheArray::Way w1 = c.victim(lineAt(0, 1, 4), nullptr, 2);
    EXPECT_FALSE(w1.valid()); // second way still free
}

TEST(CacheArray, LruEviction)
{
    CacheArray c(4, 2);
    c.fill(c.victim(lineAt(0, 0, 4), nullptr, 1), lineAt(0, 0, 4),
           CacheState::Shared, 1);
    c.fill(c.victim(lineAt(0, 1, 4), nullptr, 2), lineAt(0, 1, 4),
           CacheState::Shared, 2);
    // Touch line 0 so line 1 becomes LRU.
    c.lookup(lineAt(0, 0, 4), 3);
    const CacheArray::Way victim = c.victim(lineAt(0, 2, 4), nullptr, 4);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim.tag(), lineAt(0, 1, 4));
}

TEST(CacheArray, PinnedLinesNeverVictims)
{
    CacheArray c(4, 2);
    Addr pinned_line = lineAt(0, 0, 4);
    c.fill(c.victim(pinned_line, nullptr, 1), pinned_line,
           CacheState::Modified, 1);
    c.fill(c.victim(lineAt(0, 1, 4), nullptr, 2), lineAt(0, 1, 4),
           CacheState::Shared, 2);
    // Make the pinned line LRU.
    c.lookup(lineAt(0, 1, 4), 3);
    auto pinned = [pinned_line](Addr t) { return t == pinned_line; };
    const CacheArray::Way victim = c.victim(lineAt(0, 2, 4), pinned, 4);
    ASSERT_TRUE(victim);
    EXPECT_NE(victim.tag(), pinned_line);
}

TEST(CacheArray, AllWaysPinnedReturnsNull)
{
    CacheArray c(4, 2);
    c.fill(c.victim(lineAt(1, 0, 4), nullptr, 1), lineAt(1, 0, 4),
           CacheState::Modified, 1);
    c.fill(c.victim(lineAt(1, 1, 4), nullptr, 2), lineAt(1, 1, 4),
           CacheState::Modified, 2);
    auto pinned = [](Addr) { return true; };
    EXPECT_FALSE(c.victim(lineAt(1, 2, 4), pinned, 3));
}

TEST(CacheArray, InvalidateRemovesLine)
{
    CacheArray c(16, 4);
    c.fill(c.victim(0x2000, nullptr, 1), 0x2000, CacheState::Modified, 1);
    EXPECT_EQ(c.invalidate(0x2000), CacheState::Modified);
    EXPECT_EQ(c.peek(0x2000), CacheState::Invalid);
    EXPECT_EQ(c.invalidate(0x2000), CacheState::Invalid); // already gone
}

TEST(CacheArray, SetIndexUsesLineNumber)
{
    CacheArray c(16, 4);
    EXPECT_EQ(c.setIndex(0), 0u);
    EXPECT_EQ(c.setIndex(lineBytes), 1u);
    EXPECT_EQ(c.setIndex(16 * lineBytes), 0u); // wraps at numSets
    EXPECT_EQ(c.setIndex(17 * lineBytes + 5), 1u);
}

TEST(CacheArray, DifferentSetsDoNotConflict)
{
    CacheArray c(4, 1); // direct-mapped, 4 sets
    for (unsigned s = 0; s < 4; s++) {
        Addr a = lineAt(s, 0, 4);
        c.fill(c.victim(a, nullptr, s), a, CacheState::Shared, s);
    }
    for (unsigned s = 0; s < 4; s++)
        EXPECT_EQ(c.peek(lineAt(s, 0, 4)), CacheState::Shared);
}

TEST(CacheArray, RejectsNonPowerOfTwoSets)
{
    EXPECT_THROW(CacheArray(3, 2), std::logic_error);
    EXPECT_THROW(CacheArray(4, 0), std::logic_error);
}

TEST(CacheArray, PeekDoesNotPerturbLru)
{
    CacheArray c(4, 2);
    c.fill(c.victim(lineAt(0, 0, 4), nullptr, 1), lineAt(0, 0, 4),
           CacheState::Shared, 1);
    c.fill(c.victim(lineAt(0, 1, 4), nullptr, 2), lineAt(0, 1, 4),
           CacheState::Shared, 2);
    // Peek at line 0 (older); LRU order must be unchanged, so line 0 is
    // still the victim.
    c.peek(lineAt(0, 0, 4));
    const CacheArray::Way victim = c.victim(lineAt(0, 2, 4), nullptr, 3);
    EXPECT_EQ(victim.tag(), lineAt(0, 0, 4));
}

// save() walks only the sets with storage. Over seeded
// random fill / invalidate / state-change sequences its bytes must
// equal the full walk over every slot.
TEST(CacheArray, TouchedSetSaveMatchesFullWalk)
{
    for (std::uint64_t seed = 1; seed <= 5; seed++) {
        SCOPED_TRACE(seed);
        CacheArray a(256, 4);
        Rng r(seed);
        Cycle now = 0;
        EXPECT_EQ(imageOf(a), fullWalkImage(a));
        for (unsigned round = 0; round < 40; round++) {
            randomOps(a, r, 50, static_cast<unsigned>(seed) * 11, now);
            ASSERT_EQ(imageOf(a), fullWalkImage(a))
                << "round " << round;
        }
    }
}

// restore() takes back the storage of every set the array had used.
// Restoring into a used array (lines in sets the image never touched)
// must leave
// exactly the state a fresh array gets: the same bytes from save() and
// from the full walk, and the same behaviour afterwards.
TEST(CacheArray, RestoreIntoUsedArrayMatchesFresh)
{
    Cycle now = 0;
    CacheArray src(256, 4);
    Rng r1(1);
    randomOps(src, r1, 600, 0, now);
    const Bytes img = imageOf(src);

    CacheArray used(256, 4);
    Rng r2(2);
    randomOps(used, r2, 600, 100, now);
    ASSERT_NE(imageOf(used), img);

    CacheArray fresh(256, 4);
    Deser d1(img);
    used.restore(d1);
    Deser d2(img);
    fresh.restore(d2);

    EXPECT_EQ(imageOf(fresh), img);
    EXPECT_EQ(imageOf(used), img);
    EXPECT_EQ(fullWalkImage(used), img)
        << "a line of the used array outlived the restore";
    EXPECT_EQ(used.allocatedSets(), fresh.allocatedSets());

    Rng a(3), b(3);
    Cycle ta = now, tb = now;
    randomOps(used, a, 400, 50, ta);
    randomOps(fresh, b, 400, 50, tb);
    EXPECT_EQ(imageOf(used), imageOf(fresh));
    EXPECT_EQ(fullWalkImage(used), fullWalkImage(fresh));
}

// Two slots of one image can never be the same: after the first line a
// zero slot delta is corrupt (the first line may sit in slot 0).
TEST(CacheArray, RestoreRejectsRepeatedSlot)
{
    EXPECT_EQ(restoreError(handImage({{0, lineAt(0, 1, 16)}})), "");
    const std::string err = restoreError(
        handImage({{0, lineAt(0, 1, 16)}, {0, lineAt(0, 2, 16)}}));
    EXPECT_NE(err.find("slot 0 repeated"), std::string::npos) << err;
}

// CacheArray against the reference model of the unpacked array over
// seeded random lookups, peeks, victims (with and without pins, all
// ways pinned included), lookupOrVictim, fills, state changes and
// invalidations, on several geometries; then the image restored into
// a fresh array keeps answering as the reference does.
TEST(CacheArray, MatchesReferenceModel)
{
    const std::pair<unsigned, unsigned> geometries[] = {
        {16, 8}, {8, 12}, {4, 16}, {64, 2}, {32, 1}};
    for (const auto &[sets, ways] : geometries) {
        for (std::uint64_t seed = 1; seed <= 3; seed++) {
            SCOPED_TRACE(testing::Message()
                         << sets << "x" << ways << " seed " << seed);
            CacheArray a(sets, ways);
            RefArray ref(sets, ways);
            Rng r(seed);
            Cycle now = 0;
            differentialOps(a, ref, r, 3000, now);
            if (HasFatalFailure())
                return;
            const Bytes img = imageOf(a);
            ASSERT_EQ(img, ref.image());

            CacheArray restored(sets, ways);
            Deser d(img);
            restored.restore(d);
            EXPECT_EQ(imageOf(restored), img);
            differentialOps(restored, ref, r, 1000, now);
            if (HasFatalFailure())
                return;
            EXPECT_EQ(imageOf(restored), ref.image());
        }
    }
}

// A valid tag with state 0 would read as an empty way, so neither a
// fill nor a state change may write Invalid.
TEST(CacheArray, InvalidStateOnAValidWayPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(dieOnPanic([] {
                     CacheArray c(4, 2);
                     c.fill(c.victim(0x40, nullptr, 1), 0x40,
                            CacheState::Invalid, 1);
                 }),
                 "fill of line 0x40 with state Invalid");
    EXPECT_DEATH(dieOnPanic([] {
                     CacheArray c(4, 2);
                     c.fill(c.victim(0x40, nullptr, 1), 0x40,
                            CacheState::Shared, 1);
                     c.lookup(0x40, 2).setState(CacheState::Invalid);
                 }),
                 "setState\\(Invalid\\) on line 0x40");
}

// An image line with state Invalid would restore a valid tag that
// reads as an empty way: save() never writes one, restore() refuses it.
TEST(CacheArray, RestoreRejectsInvalidLine)
{
    Ser s;
    s.section("cachearray");
    s.u32(16);
    s.u32(2);
    s.u64(1);
    s.vu64(2);
    s.vu64(lineAt(1, 3, 16) >> 6);
    s.u8(static_cast<std::uint8_t>(CacheState::Invalid));
    s.vu64(1);
    const std::string err = restoreError(s.bytes());
    EXPECT_NE(err.find("slot 2 holds an Invalid line"), std::string::npos)
        << err;
}

// A line can only live in the set its address maps to.
TEST(CacheArray, RestoreRejectsTagOutsideItsSet)
{
    // Slot 2 is set 1, way 0 of a 16x2 array.
    EXPECT_EQ(restoreError(handImage({{2, lineAt(1, 3, 16)}})), "");
    const std::string err =
        restoreError(handImage({{2, lineAt(0, 3, 16)}}));
    EXPECT_NE(err.find("maps to set 0, stored in set 1"),
              std::string::npos)
        << err;
}

// A set gets storage on its first victim() only: lookups, peeks and
// invalidations of a cold set answer a miss and allocate nothing.
TEST(CacheArray, MissesOnAbsentSetsAllocateNothing)
{
    CacheArray c(4096, 16);
    for (unsigned set = 0; set < 4096; set += 7) {
        const Addr line = lineAt(set, 3, 4096);
        EXPECT_FALSE(c.lookup(line, 1));
        EXPECT_EQ(c.peek(line), CacheState::Invalid);
        EXPECT_EQ(c.invalidate(line), CacheState::Invalid);
    }
    EXPECT_EQ(c.allocatedSets(), 0u);
    EXPECT_EQ(imageOf(c), fullWalkImage(c));

    const Addr line = lineAt(5, 1, 4096);
    c.fill(c.victim(line, nullptr, 1), line, CacheState::Shared, 1);
    EXPECT_EQ(c.allocatedSets(), 1u);
    // Emptying the set again keeps its storage.
    EXPECT_EQ(c.invalidate(line), CacheState::Shared);
    EXPECT_EQ(c.peek(line), CacheState::Invalid);
    EXPECT_EQ(c.allocatedSets(), 1u);
}

// Storage comes in chunks that never move: a way handed out before the
// pool grew is still the line's slot after many more sets arrived.
TEST(CacheArray, WayPointersSurvivePoolGrowth)
{
    CacheArray c(1024, 4);
    const Addr first = lineAt(3, 0, 1024);
    const CacheArray::Way way = c.victim(first, nullptr, 1);
    c.fill(way, first, CacheState::Modified, 1);
    for (unsigned set = 4; set < 1024; set += 3) {
        const Addr line = lineAt(set, 1, 1024);
        c.fill(c.victim(line, nullptr, set), line, CacheState::Shared, set);
    }
    ASSERT_GT(c.allocatedSets(), 64u); // several chunks
    EXPECT_EQ(c.lookup(first, 5000), way);
    EXPECT_EQ(way.tag(), first);
    EXPECT_EQ(way.state(), CacheState::Modified);
    EXPECT_EQ(way.lastUse(), 5000u);
}

// restore() into a fresh array gives storage to exactly the sets that
// hold a line of the image.
TEST(CacheArray, RestoreAllocatesExactlyTheImageSets)
{
    Cycle now = 0;
    CacheArray src(256, 4);
    Rng r(4);
    randomOps(src, r, 600, 0, now);
    std::set<unsigned> sets;
    src.forEachLine([&](Addr tag, CacheState) {
        sets.insert(src.setIndex(tag));
    });
    ASSERT_FALSE(sets.empty());
    // Invalidations leave some used sets without a valid line.
    ASSERT_GT(src.allocatedSets(), sets.size());

    CacheArray fresh(256, 4);
    const Bytes img = imageOf(src);
    Deser d(img);
    fresh.restore(d);
    EXPECT_EQ(fresh.allocatedSets(), sets.size());
    EXPECT_EQ(imageOf(fresh), img);
}

// forEachLine visits in ascending slot order (set-major, then way),
// not in the order the sets got storage: fault injection picks its
// victim by index into this walk.
TEST(CacheArray, ForEachLineWalksInSlotOrder)
{
    CacheArray c(64, 2);
    for (unsigned k = 0; k < 64; k++) {
        const unsigned set = (64 - 1 - k) * 5 % 64; // scattered, descending
        for (unsigned t = 0; t < 2; t++) {
            const Addr line = lineAt(set, t + 1, 64);
            c.fill(c.victim(line, nullptr, k), line, CacheState::Shared, k);
        }
    }
    c.invalidate(lineAt(7, 1, 64)); // a hole inside a set
    std::vector<Addr> expected;
    for (std::size_t i = 0; i < 64 * 2; i++) {
        if (c.slot(i).valid())
            expected.push_back(c.slot(i).tag);
    }
    std::vector<Addr> walked;
    c.forEachLine([&](Addr tag, CacheState) { walked.push_back(tag); });
    EXPECT_EQ(walked.size(), 64u * 2 - 1);
    EXPECT_EQ(walked, expected);
}

// Building the paper's 32-core machine allocates no cache storage: the
// L1, L2 and LLC arrays get sets as the run first fills them.
TEST(CacheArray, FreshSystemAllocatesNoSets)
{
    const unsigned cores = 32;
    System sys(makeParams(rowConfig(ContentionDetector::RWDir,
                                    PredictorUpdate::SaturateOnContention),
                          cores, 1),
               makeStreams(profileFor("cq"), cores, 1));
    for (CoreId c = 0; c < cores; c++)
        EXPECT_EQ(sys.mem().cache(c).allocatedSets(), 0u) << "core " << c;
    for (unsigned b = 0; b < sys.mem().numBanks(); b++)
        EXPECT_EQ(sys.mem().directory(b).allocatedSets(), 0u) << "bank " << b;

    sys.runCycles(2000);
    std::size_t used = 0;
    for (unsigned b = 0; b < sys.mem().numBanks(); b++)
        used += sys.mem().directory(b).allocatedSets();
    EXPECT_GT(used, 0u);
}
