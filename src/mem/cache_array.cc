#include "mem/cache_array.hh"

#include <algorithm>
#include <memory>
#include <new>
#include <type_traits>

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

CacheArray::CacheArray(unsigned sets, unsigned ways)
    : numSets(sets), numWays(ways), setLines(sets),
      allocated((static_cast<std::size_t>(sets) + 63) / 64)
{
    ROWSIM_ASSERT(sets > 0 && (sets & (sets - 1)) == 0,
                  "cache sets must be a power of two, got %u", sets);
    ROWSIM_ASSERT(ways > 0, "cache must have at least one way");
}

unsigned
CacheArray::setIndex(Addr line_addr) const
{
    return static_cast<unsigned>(lineNum(line_addr)) & (numSets - 1);
}

static_assert(std::is_trivially_destructible_v<CacheArray::Line>,
              "chunks are raw storage that allocSet fills in place");

CacheArray::Line *
CacheArray::allocSet(unsigned set)
{
    const std::size_t chunk = usedSets / kChunkSets;
    if (chunk == chunks.size()) {
        // Raw storage: each set's lines are made below, once.
        chunks.emplace_back(static_cast<Line *>(
            ::operator new(kChunkSets * numWays * sizeof(Line))));
    }
    Line *lines = chunks[chunk].get() + usedSets % kChunkSets * numWays;
    // Canonical invalid ways, also over the lines an earlier restore
    // left in a reused chunk (Line is trivially destructible).
    std::uninitialized_fill_n(lines, numWays, Line{});
    usedSets++;
    setLines[set] = lines;
    allocated[set / 64] |= 1ULL << (set % 64);
    return lines;
}

const CacheArray::Line &
CacheArray::slot(std::size_t i) const
{
    static const Line canonical;
    const Line *lines = setLines[i / numWays];
    return lines ? lines[i % numWays] : canonical;
}

CacheArray::Line *
CacheArray::find(Addr aligned) const
{
    Line *lines = setLines[setIndex(aligned)];
    if (!lines)
        return nullptr; // absent set: every way invalid
    for (Line *l = lines; l != lines + numWays; l++) {
        if (l->valid() && l->tag == aligned)
            return l;
    }
    return nullptr;
}

CacheArray::Line *
CacheArray::lookup(Addr line_addr, Cycle now)
{
    Line *l = find(lineAlign(line_addr));
    if (l)
        l->lastUse = now;
    return l;
}

const CacheArray::Line *
CacheArray::peek(Addr line_addr) const
{
    return find(lineAlign(line_addr));
}

CacheArray::Line *
CacheArray::victim(Addr line_addr, const std::function<bool(Addr)> &pinned,
                   Cycle now)
{
    (void)now;
    const unsigned set = setIndex(lineAlign(line_addr));
    Line *lines = setLines[set];
    if (!lines)
        return allocSet(set); // all ways invalid: way 0
    Line *best = nullptr;
    for (Line *l = lines; l != lines + numWays; l++) {
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
CacheArray::fill(Line *way, Addr line_addr, CacheState state, Cycle now)
{
    ROWSIM_ASSERT(way != nullptr, "fill into null way");
    way->tag = lineAlign(line_addr);
    way->state = state;
    way->lastUse = now;
}

bool
CacheArray::invalidate(Addr line_addr)
{
    Line *l = find(lineAlign(line_addr));
    if (!l)
        return false;
    l->clear();
    return true;
}

void
CacheArray::save(Ser &s) const
{
    // Sparse: only valid lines travel. Invalid slots are canonical
    // (absent sets, and Line::clear() on invalidation), so skipping
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
        for (std::size_t w = 0; w < numWays; w++) {
            const Line &l = setLines[set][w];
            if (!l.valid())
                continue;
            const std::size_t i = set * numWays + w;
            s.vu64(i - prevSlot);
            prevSlot = i;
            s.vu64(l.tag >> 6); // tags are lineAlign()ed: low 6 bits zero
            s.u8(static_cast<std::uint8_t>(l.state));
            s.vu64(l.lastUse);
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
    forEachAllocatedSet([&](std::size_t set) { setLines[set] = nullptr; });
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
        const std::uint64_t lastUse = d.vu64();
        Line *lines = setLines[set] ? setLines[set] : allocSet(set);
        lines[way] = Line{tag, state, lastUse};
    }
}

} // namespace rowsim
