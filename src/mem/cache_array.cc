#include "mem/cache_array.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

const char *
fillSourceName(FillSource s)
{
    switch (s) {
      case FillSource::L1Hit: return "L1Hit";
      case FillSource::L2Hit: return "L2Hit";
      case FillSource::LLCHit: return "LLCHit";
      case FillSource::Memory: return "Memory";
      case FillSource::RemoteCache: return "RemoteCache";
      case FillSource::Forwarded: return "Forwarded";
    }
    return "?";
}

static_assert(static_cast<unsigned>(CacheState::Modified) < lineBytes,
              "a line state fits in a tag word's line-offset bits");

CacheArray::CacheArray(unsigned sets, unsigned ways)
    : numSets(sets), numWays(ways), setWords(sets),
      allocated((static_cast<std::size_t>(sets) + 63) / 64)
{
    ROWSIM_ASSERT(sets > 0 && (sets & (sets - 1)) == 0,
                  "cache sets must be a power of two, got %u", sets);
    ROWSIM_ASSERT(ways > 0, "cache must have at least one way");
}

void
CacheArray::Way::setState(CacheState s) const
{
    ROWSIM_ASSERT(s != CacheState::Invalid,
                  "setState(Invalid) on line %#llx: clear() the way",
                  static_cast<unsigned long long>(tag()));
    *word = tag() | static_cast<std::uint64_t>(s);
}

unsigned
CacheArray::setIndex(Addr line_addr) const
{
    return static_cast<unsigned>(lineNum(line_addr)) & (numSets - 1);
}

std::uint64_t *
CacheArray::allocSet(unsigned set)
{
    const std::size_t chunk = usedSets / kChunkSets;
    const std::size_t setWordCount = 2 * std::size_t{numWays};
    if (chunk == chunks.size()) {
        // Uninitialised: each set's words are zeroed below, once.
        chunks.emplace_back(new std::uint64_t[kChunkSets * setWordCount]);
    }
    std::uint64_t *words =
        chunks[chunk].get() + usedSets % kChunkSets * setWordCount;
    // Canonical invalid ways (zero tag words and LRU stamps), also over
    // the words an earlier restore left in a reused chunk.
    std::fill_n(words, setWordCount, 0);
    usedSets++;
    setWords[set] = words;
    allocated[set / 64] |= 1ULL << (set % 64);
    return words;
}

CacheArray::Line
CacheArray::slot(std::size_t i) const
{
    const std::uint64_t *words = setWords[i / numWays];
    const std::size_t w = i % numWays;
    if (!words || !words[w])
        return Line{};
    return Line{words[w] & ~kStateMask,
                static_cast<CacheState>(words[w] & kStateMask),
                words[numWays + w]};
}

// A tag word matches the line-aligned @p aligned exactly when it holds
// that tag with a non-zero state: their XOR is then the state, 1..63.
// An invalid way is the word 0, whose XOR with any aligned line other
// than 0 is at least 64, and 0 - 1 wraps past the bound.
CacheArray::Way
CacheArray::find(Addr aligned) const
{
    std::uint64_t *words = setWords[setIndex(aligned)];
    if (!words)
        return {}; // absent set: every way invalid
    for (unsigned w = 0; w < numWays; w++) {
        if ((words[w] ^ aligned) - 1 < kStateMask)
            return wayAt(words, w);
    }
    return {};
}

CacheArray::Way
CacheArray::lookup(Addr line_addr, Cycle now)
{
    const Way way = find(lineAlign(line_addr));
    if (way)
        *way.lru = now;
    return way;
}

CacheState
CacheArray::peek(Addr line_addr) const
{
    const Way way = find(lineAlign(line_addr));
    return way ? way.state() : CacheState::Invalid;
}

CacheArray::Way
CacheArray::victim(Addr line_addr, const std::function<bool(Addr)> &pinned,
                   Cycle now)
{
    (void)now;
    const unsigned set = setIndex(lineAlign(line_addr));
    std::uint64_t *words = setWords[set];
    if (!words)
        return wayAt(allocSet(set), 0); // all ways invalid: way 0
    for (unsigned w = 0; w < numWays; w++) {
        if (!words[w])
            return wayAt(words, w);
    }
    return leastRecent(words, pinned);
}

CacheArray::Way
CacheArray::leastRecent(std::uint64_t *words,
                        const std::function<bool(Addr)> &pinned) const
{
    const std::uint64_t *lru = words + numWays;
    unsigned best = numWays;
    for (unsigned w = 0; w < numWays; w++) {
        if (pinned && pinned(words[w] & ~kStateMask))
            continue;
        if (best == numWays || lru[w] < lru[best])
            best = w;
    }
    return best == numWays ? Way{} : wayAt(words, best);
}

CacheArray::Way
CacheArray::lookupOrVictim(Addr line_addr, Cycle now, bool &hit,
                           const std::function<bool(Addr)> &pinned)
{
    const Addr aligned = lineAlign(line_addr);
    const unsigned set = setIndex(aligned);
    std::uint64_t *words = setWords[set];
    hit = false;
    if (!words)
        return wayAt(allocSet(set), 0); // all ways invalid: way 0
    unsigned invalid = numWays;
    for (unsigned w = 0; w < numWays; w++) {
        if ((words[w] ^ aligned) - 1 < kStateMask) {
            hit = true;
            words[numWays + w] = now;
            return wayAt(words, w);
        }
        if (!words[w] && invalid == numWays)
            invalid = w;
    }
    return invalid != numWays ? wayAt(words, invalid)
                              : leastRecent(words, pinned);
}

void
CacheArray::fill(Way way, Addr line_addr, CacheState state, Cycle now)
{
    ROWSIM_ASSERT(way, "fill into null way");
    ROWSIM_ASSERT(state != CacheState::Invalid,
                  "fill of line %#llx with state Invalid",
                  static_cast<unsigned long long>(line_addr));
    *way.word = lineAlign(line_addr) | static_cast<std::uint64_t>(state);
    *way.lru = now;
}

CacheState
CacheArray::invalidate(Addr line_addr)
{
    const Way way = find(lineAlign(line_addr));
    if (!way)
        return CacheState::Invalid;
    const CacheState was = way.state();
    way.clear();
    return was;
}

void
CacheArray::save(Ser &s) const
{
    // Sparse: only valid lines travel. Invalid slots are canonical
    // (absent sets, and the zero word on invalidation), so skipping
    // them is exact — and it shrinks large, mostly-cold arrays from
    // megabytes to the touched working set. Valid lines lie in sets
    // with storage only, so the walk skips the rest.
    s.section("cachearray");
    s.u32(numSets);
    s.u32(numWays);
    // One pass: the valid-line count is written as a placeholder and
    // patched once the lines are out.
    const std::size_t countAt = s.size();
    s.u64(0);
    std::uint64_t valid = 0;
    // Compact encoding: slot indices as ascending deltas, tags with the
    // always-zero line-offset bits shifted off, LRU stamps as varints.
    // Large arrays are second only to the directory in image size.
    std::uint64_t prevSlot = 0;
    forEachAllocatedSet([&](std::size_t set) {
        const std::uint64_t *words = setWords[set];
        for (std::size_t w = 0; w < numWays; w++) {
            if (!words[w])
                continue;
            const std::size_t i = set * numWays + w;
            s.vu64(i - prevSlot);
            prevSlot = i;
            s.vu64(words[w] >> 6); // the tag; the state bits shift off
            s.u8(static_cast<std::uint8_t>(words[w] & kStateMask));
            s.vu64(words[numWays + w]);
            valid++;
        }
    });
    s.patchU64(countAt, valid);
}

void
CacheArray::restore(Deser &d)
{
    d.section("cachearray");
    const std::uint32_t sets = d.u32();
    const std::uint32_t ways = d.u32();
    if (sets != numSets || ways != numWays) {
        throw SnapshotError(strprintf(
            "cache array geometry mismatch: image %ux%u, configured "
            "%ux%u",
            sets, ways, numSets, numWays));
    }
    // Take the whole pool back: the image's sets are allocated afresh
    // in image order, exactly as in a fresh array.
    forEachAllocatedSet([&](std::size_t set) { setWords[set] = nullptr; });
    std::fill(allocated.begin(), allocated.end(), 0);
    usedSets = 0;
    const std::size_t slots = static_cast<std::size_t>(numSets) * numWays;
    const std::uint64_t valid = d.u64();
    std::uint64_t prevSlot = 0;
    for (std::uint64_t k = 0; k < valid; k++) {
        const std::uint64_t delta = d.vu64();
        if (k > 0 && delta == 0) {
            throw SnapshotError(strprintf(
                "cache array slot %llu repeated",
                static_cast<unsigned long long>(prevSlot)));
        }
        // prevSlot < slots, so this also rejects a delta that wraps.
        if (delta >= slots - prevSlot) {
            throw SnapshotError(strprintf(
                "cache array slot %llu + %llu out of range (%zu lines)",
                static_cast<unsigned long long>(prevSlot),
                static_cast<unsigned long long>(delta), slots));
        }
        const std::uint64_t i = prevSlot + delta;
        prevSlot = i;
        const Addr tag = d.vu64() << 6;
        const unsigned set = setIndex(tag);
        // The slot's way in the tag's set; outside [0, ways) the slot
        // lies in another set (no division on the common path).
        const std::uint64_t way = i - std::uint64_t{set} * numWays;
        if (way >= numWays) {
            throw SnapshotError(strprintf(
                "cache array tag %#llx maps to set %u, stored in set %llu",
                static_cast<unsigned long long>(tag), set,
                static_cast<unsigned long long>(i / numWays)));
        }
        CacheState state;
        d.enumByte(state, CacheState::Modified, "cache line state");
        if (state == CacheState::Invalid) {
            throw SnapshotError(strprintf(
                "cache array slot %llu holds an Invalid line",
                static_cast<unsigned long long>(i)));
        }
        const std::uint64_t lastUse = d.vu64();
        std::uint64_t *words = setWords[set] ? setWords[set] : allocSet(set);
        words[way] = tag | static_cast<std::uint64_t>(state);
        words[numWays + way] = lastUse;
    }
}

} // namespace rowsim
