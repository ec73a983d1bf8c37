/**
 * @file
 * Property tests for the flat address table (mem/addr_table.hh): seeded
 * random insert / find / erase / walk sequences against a
 * std::unordered_map reference over the key shapes the simulator uses
 * (one directory bank's lines at 32 cores, word addresses, key 0), an
 * erase whose probe run wraps past the table's end, growth across many
 * doublings, reserve, how far probe runs spread, and the archive
 * form. The value memory built on it must save → restore → save to the
 * same bytes and keep a word written 0.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/addr_table.hh"
#include "mem/memsystem.hh"
#include "sim/snapshot.hh"

using namespace rowsim;

namespace
{

using Bytes = std::vector<std::uint8_t>;

/** The table's entries as its ascending walk lists them. */
template <class T>
std::vector<std::pair<Addr, typename T::mapped_type>>
walk(const T &t)
{
    std::vector<std::pair<Addr, typename T::mapped_type>> out;
    t.forEachSorted([&](Addr k, const auto &v) { out.emplace_back(k, v); });
    return out;
}

/** Check @p t against @p ref: size, every reference entry found with
 *  its value, the ascending walk, and the raw slots (each live slot a
 *  reference key, load at most 3/4 of a power-of-two capacity). */
template <class T, class V>
void
expectSame(const T &t, const std::unordered_map<Addr, V> &ref)
{
    ASSERT_EQ(t.size(), ref.size());
    ASSERT_EQ(t.empty(), ref.empty());
    for (const auto &[k, v] : ref) {
        const std::size_t i = t.find(k);
        ASSERT_NE(i, T::npos) << "key " << k << " lost";
        ASSERT_EQ(t.key(i), k);
        ASSERT_EQ(t.value(i), v);
    }
    const std::map<Addr, V> sorted(ref.begin(), ref.end());
    ASSERT_EQ(walk(t), (std::vector<std::pair<Addr, V>>(sorted.begin(),
                                                         sorted.end())));
    const auto &slots = t.slots();
    ASSERT_TRUE(slots.empty() || std::has_single_bit(slots.size()));
    ASSERT_LE(ref.size() * 4, slots.size() * 3);
    std::size_t live = 0;
    for (const auto &s : slots) {
        if (s.key != invalidAddr) {
            live++;
            ASSERT_TRUE(ref.count(s.key));
        }
    }
    ASSERT_EQ(live, ref.size());
}

/** @p n seeded random operations on @p t and @p ref alike, keys drawn
 *  by @p keyOf from a small domain so that finds hit, inserts repeat
 *  and erases find their key. @p valueOf makes a value from a draw. */
template <class T, class V>
void
randomOps(T &t, std::unordered_map<Addr, V> &ref, Rng &r, unsigned n,
          const std::function<Addr(Rng &)> &keyOf,
          const std::function<V(std::uint64_t)> &valueOf)
{
    for (unsigned k = 0; k < n; k++) {
        const Addr key = keyOf(r);
        switch (r.below(6)) {
          case 0:
          case 1: {
            const V v = valueOf(r.next());
            t[key] = v;
            ref[key] = v;
            break;
          }
          case 2: {
            // findOrInsert of a present key keeps its value.
            const std::size_t i = t.findOrInsert(key);
            ASSERT_EQ(t.key(i), key);
            if (ref.count(key)) {
                ASSERT_EQ(t.value(i), ref[key]);
            } else {
                ASSERT_EQ(t.value(i), V{});
                ref[key] = V{};
            }
            break;
          }
          case 3:
          case 4:
            ASSERT_EQ(t.erase(key), ref.erase(key) == 1);
            break;
          default: {
            const std::size_t i = t.find(key);
            ASSERT_EQ(i != T::npos, ref.count(key) == 1);
            ASSERT_EQ(t.contains(key), ref.count(key) == 1);
            break;
          }
        }
        if (k % 97 == 0)
            expectSame(t, ref);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    expectSame(t, ref);
}

/** One directory bank's lines at 32 cores: line numbers congruent to
 *  the bank modulo 32, so every key shares its low 11 bits. */
Addr
bankLine(std::uint64_t i)
{
    return (32 * i + 5) << lineShift;
}

/** The longest run of occupied slots, wrapping past the end. */
template <class T>
std::size_t
longestRun(const T &t)
{
    const auto &slots = t.slots();
    std::size_t best = 0, run = 0;
    for (std::size_t k = 0; k < 2 * slots.size(); k++) {
        run = slots[k % slots.size()].key != invalidAddr ? run + 1 : 0;
        best = std::max(best, std::min(run, slots.size()));
    }
    return best;
}

Bytes
saveOf(const FunctionalMemory &m)
{
    Ser s;
    m.save(s);
    return s.bytes();
}

} // namespace

// Random operations against the reference, for every key shape: one
// bank's lines, words (key 0 among them), and keys from the whole
// address range; with a plain word value and with a value that owns
// heap storage (an MSHR's waiter list), which erase and growth move.
TEST(AddrTable, MatchesReferenceMap)
{
    const std::vector<std::pair<const char *, std::function<Addr(Rng &)>>>
        shapes = {
            {"bank lines", [](Rng &r) { return bankLine(r.below(300)); }},
            {"words", [](Rng &r) { return r.below(400) * 8; }},
            {"wide", [](Rng &r) {
                 const Addr k = r.below(2) ? r.next() : r.below(64);
                 return k == invalidAddr ? Addr{0} : k;
             }},
        };
    for (const auto &[name, keyOf] : shapes) {
        for (std::uint64_t seed = 1; seed <= 3; seed++) {
            SCOPED_TRACE(testing::Message() << name << " seed " << seed);
            Rng r(seed);
            AddrTable<std::uint64_t, 3> words;
            std::unordered_map<Addr, std::uint64_t> ref;
            randomOps<decltype(words), std::uint64_t>(
                words, ref, r, 6000, keyOf,
                [](std::uint64_t v) { return v; });
            if (HasFatalFailure())
                return;

            using List = std::vector<std::uint64_t>;
            AddrTable<List, lineShift> lists;
            std::unordered_map<Addr, List> listRef;
            randomOps<decltype(lists), List>(
                lists, listRef, r, 6000, keyOf, [](std::uint64_t v) {
                    return List(v % 4, v);
                });
            if (HasFatalFailure())
                return;
        }
    }
}

// Key 0 is an ordinary key: only invalidAddr marks an empty slot.
TEST(AddrTable, KeyZeroIsAnOrdinaryKey)
{
    AddrTable<std::uint64_t, 3> t;
    EXPECT_EQ(t.find(0), t.npos);
    t[0] = 0;
    EXPECT_TRUE(t.contains(0));
    EXPECT_EQ(t.size(), 1u);
    t[8] = 7;
    EXPECT_TRUE(t.erase(0));
    EXPECT_FALSE(t.contains(0));
    EXPECT_FALSE(t.erase(0));
    EXPECT_EQ(t.value(t.find(8)), 7u);
}

// An erase whose probe run wraps past the table's end: the entries
// displaced into slots 0, 1, ... must move back, or a lookup starting
// at their home in the last slots stops at the hole and misses them.
TEST(AddrTable, EraseAcrossTheWrapAround)
{
    using Table = AddrTable<std::uint64_t, lineShift>;
    // A fresh table's first insert lands on the key's home slot. Pick
    // line keys homed at the last two slots of the 16-slot table, and
    // keys homed at slot 0 that the run pushes further.
    const auto homeOf = [](Addr key) {
        Table probe;
        return probe.findOrInsert(key);
    };
    std::vector<Addr> atEnd, atZero;
    for (Addr n = 1; atEnd.size() < 4 || atZero.size() < 2; n++) {
        const Addr key = n << lineShift;
        const std::size_t h = homeOf(key);
        if (h >= 14 && atEnd.size() < 4)
            atEnd.push_back(key);
        else if (h == 0 && atZero.size() < 2)
            atZero.push_back(key);
    }
    for (std::size_t victim = 0; victim < atEnd.size(); victim++) {
        SCOPED_TRACE(victim);
        Table t;
        std::unordered_map<Addr, std::uint64_t> ref;
        for (Addr k : atEnd) {
            t[k] = k + 1;
            ref[k] = k + 1;
        }
        for (Addr k : atZero) {
            t[k] = k + 2;
            ref[k] = k + 2;
        }
        ASSERT_EQ(t.slots().size(), 16u) << "no regrow expected";
        // The run covers slots 14, 15, 0, 1, ...: it wraps.
        ASSERT_NE(t.key(0), invalidAddr);
        ASSERT_NE(t.key(15), invalidAddr);
        ASSERT_TRUE(t.erase(atEnd[victim]));
        ref.erase(atEnd[victim]);
        expectSame(t, ref);
        if (HasFatalFailure())
            return;
        // And empty it completely, one key at a time.
        for (Addr k : atEnd) {
            t.erase(k);
            ref.erase(k);
            expectSame(t, ref);
        }
        for (Addr k : atZero) {
            t.erase(k);
            ref.erase(k);
            expectSame(t, ref);
        }
        EXPECT_TRUE(t.empty());
    }
}

// Growth across many doublings keeps every entry; a reserve sizes the
// table once, so inserting that many entries never regrows it.
TEST(AddrTable, GrowthAndReserve)
{
    AddrTable<std::uint64_t, 3> t;
    std::unordered_map<Addr, std::uint64_t> ref;
    std::size_t doublings = 0, capacity = 0;
    Rng r(11);
    for (std::uint64_t i = 0; i < 200000; i++) {
        const Addr key = r.below(2) ? i * 8 : (r.next() & ~Addr{7});
        t[key] = i;
        ref[key] = i;
        if (t.slots().size() != capacity) {
            doublings += capacity != 0;
            capacity = t.slots().size();
        }
    }
    EXPECT_GE(doublings, 14u);
    expectSame(t, ref);

    for (const std::size_t n : {std::size_t{0}, std::size_t{12},
                                std::size_t{13}, std::size_t{1000},
                                std::size_t{49152}}) {
        SCOPED_TRACE(n);
        AddrTable<std::uint64_t, 3> sized;
        sized.reserve(n);
        const auto *storage = sized.slots().data();
        const std::size_t slots = sized.slots().size();
        for (std::uint64_t i = 0; i < n; i++)
            sized[bankLine(i)] = i;
        EXPECT_EQ(sized.slots().data(), storage);
        EXPECT_EQ(sized.slots().size(), slots);
        EXPECT_EQ(sized.size(), n);
        // The next insert past a full reservation may grow it.
        EXPECT_LE(n * 4, slots * 3);
    }
    // A reserve below the current size never shrinks the table.
    const std::size_t before = t.slots().size();
    t.reserve(10);
    EXPECT_EQ(t.slots().size(), before);
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_TRUE(t.slots().empty());
    EXPECT_EQ(t.find(0), t.npos);
}

// Keys that share their low bits (one bank's lines at 32 cores) and
// consecutive words both spread over the table: no probe run grows
// long. A hash of the masked key would pile one bank's lines into one
// run the length of the table.
TEST(AddrTable, SharedLowBitsSpread)
{
    AddrTable<std::uint64_t, lineShift> lines;
    AddrTable<std::uint64_t, 3> words;
    for (std::uint64_t i = 0; i < 20000; i++) {
        lines[bankLine(i)] = i;
        words[0x100000 + i * 8] = i;
    }
    EXPECT_LT(longestRun(lines), 100u) << lines.slots().size() << " slots";
    EXPECT_LT(longestRun(words), 100u) << words.slots().size() << " slots";
}

// The value memory: a word written 0 keeps its entry (and travels in
// the image), a read never inserts, and save → restore → save repeats
// the bytes, into a fresh memory and into a used one.
TEST(AddrTable, FunctionalMemoryRoundTrip)
{
    FunctionalMemory m;
    for (Addr a = 0; a < 4096; a += 8)
        EXPECT_EQ(m.read64(a), 0u);
    const Bytes empty = saveOf(m);
    m.write64(0x1000, 0);
    const Bytes zeroKept = saveOf(m);
    EXPECT_GT(zeroKept.size(), empty.size()) << "a 0 write was dropped";
    EXPECT_EQ(m.read64(0x1003), 0u);

    Rng r(5);
    for (unsigned i = 0; i < 50000; i++) {
        const Addr a = r.below(4) ? r.below(1 << 16) * 8 : r.next() >> 1;
        m.write64(a, r.below(3) ? r.below(1000) : 0);
        (void)m.read64(r.next() >> 1);
    }
    m.write64(0, 0);
    const Bytes img = saveOf(m);

    FunctionalMemory fresh;
    Deser d(img);
    fresh.restore(d);
    EXPECT_EQ(saveOf(fresh), img);

    FunctionalMemory used;
    for (Addr a = 0; a < 1000; a++)
        used.write64(a * 64 + 8, a);
    Deser d2(img);
    used.restore(d2);
    EXPECT_EQ(saveOf(used), img);
    for (Addr a = 0; a < 0x4000; a += 8)
        ASSERT_EQ(used.read64(a), m.read64(a)) << a;
}

// An address table travels as a list in ascending key order and reads
// back to the same entries; an image whose keys do not strictly
// ascend (a repeat, a step back, or the empty-slot marker) is corrupt.
TEST(AddrTable, ArchiveRoundTripAndRejectsUnorderedKeys)
{
    AddrTable<std::uint64_t, lineShift> t;
    for (std::uint64_t i = 0; i < 100; i++)
        t[bankLine(99 - i)] = i;
    const auto io = [](auto &ar, auto &table) {
        ar.table(table, "test entries", [&](auto &key, auto &value) {
            ar.u64(key);
            ar.u64(value);
        });
    };
    Ser s;
    io(s, t);
    const Bytes img = s.bytes();
    AddrTable<std::uint64_t, lineShift> back;
    back[1] = 1; // replaced by the image's entries
    Deser d(img);
    io(d, back);
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(walk(back), walk(t));

    const auto rejection = [&](const std::vector<std::uint64_t> &keys) {
        Ser h;
        h.u64(keys.size());
        for (std::uint64_t k : keys) {
            h.u64(k);
            h.u64(7);
        }
        try {
            Deser r(h.bytes());
            io(r, back);
        } catch (const SnapshotError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_EQ(rejection({0, 64, 128}), "");
    EXPECT_EQ(back.size(), 3u);
    EXPECT_NE(rejection({64, 64}).find("test entries key 0x40 out of order"),
              std::string::npos);
    EXPECT_NE(rejection({128, 64}).find("key 0x40 out of order"),
              std::string::npos);
    EXPECT_NE(rejection({~std::uint64_t{0}}).find("out of order"),
              std::string::npos);
}
