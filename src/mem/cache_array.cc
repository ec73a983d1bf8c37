#include "mem/cache_array.hh"

#include <algorithm>
#include <bit>

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
    : numSets(sets), numWays(ways),
      lines(static_cast<std::size_t>(sets) * ways),
      touched((static_cast<std::size_t>(sets) + 63) / 64)
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

CacheArray::Line *
CacheArray::lookup(Addr line_addr, Cycle now)
{
    Addr aligned = lineAlign(line_addr);
    unsigned set = setIndex(aligned);
    for (unsigned w = 0; w < numWays; w++) {
        Line &l = lines[static_cast<std::size_t>(set) * numWays + w];
        if (l.valid() && l.tag == aligned) {
            l.lastUse = now;
            return &l;
        }
    }
    return nullptr;
}

const CacheArray::Line *
CacheArray::peek(Addr line_addr) const
{
    Addr aligned = lineAlign(line_addr);
    unsigned set = setIndex(aligned);
    for (unsigned w = 0; w < numWays; w++) {
        const Line &l = lines[static_cast<std::size_t>(set) * numWays + w];
        if (l.valid() && l.tag == aligned)
            return &l;
    }
    return nullptr;
}

CacheArray::Line *
CacheArray::victim(Addr line_addr, const std::function<bool(Addr)> &pinned,
                   Cycle now)
{
    (void)now;
    Addr aligned = lineAlign(line_addr);
    unsigned set = setIndex(aligned);
    Line *best = nullptr;
    for (unsigned w = 0; w < numWays; w++) {
        Line &l = lines[static_cast<std::size_t>(set) * numWays + w];
        if (!l.valid())
            return &l;
        if (pinned && pinned(l.tag))
            continue;
        if (!best || l.lastUse < best->lastUse)
            best = &l;
    }
    return best;
}

void
CacheArray::fill(Line *way, Addr line_addr, CacheState state, Cycle now)
{
    ROWSIM_ASSERT(way != nullptr, "fill into null way");
    // victim() chose the way in this line's set.
    const unsigned set = setIndex(line_addr);
    touched[set / 64] |= 1ULL << (set % 64);
    way->tag = lineAlign(line_addr);
    way->state = state;
    way->lastUse = now;
}

bool
CacheArray::invalidate(Addr line_addr)
{
    Addr aligned = lineAlign(line_addr);
    unsigned set = setIndex(aligned);
    for (unsigned w = 0; w < numWays; w++) {
        Line &l = lines[static_cast<std::size_t>(set) * numWays + w];
        if (l.valid() && l.tag == aligned) {
            l.state = CacheState::Invalid;
            l.tag = invalidAddr;
            // Canonical invalid slot (snapshots serialize valid lines
            // only; a stale LRU stamp here is never read).
            l.lastUse = 0;
            return true;
        }
    }
    return false;
}

template <typename Fn>
void
CacheArray::forEachTouchedSet(Fn &&fn) const
{
    for (std::size_t w = 0; w < touched.size(); w++) {
        for (std::uint64_t bits = touched[w]; bits; bits &= bits - 1)
            fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
}

void
CacheArray::save(Ser &s) const
{
    // Sparse: only valid lines travel. Invalid slots are canonical
    // (default-constructed; invalidation resets the LRU stamp), so
    // skipping them is exact — and it shrinks large, mostly-cold
    // arrays from megabytes to the touched working set. Valid lines
    // lie in touched sets only, so the walk skips the rest.
    s.section("cachearray");
    s.u32(numSets);
    s.u32(numWays);
    std::uint64_t valid = 0;
    forEachTouchedSet([&](std::size_t set) {
        for (std::size_t i = set * numWays; i < (set + 1) * numWays; i++)
            valid += lines[i].valid();
    });
    s.u64(valid);
    // Compact encoding: slot indices as ascending deltas, tags with the
    // always-zero line-offset bits shifted off, LRU stamps as varints.
    // Large arrays are second only to the directory in image size.
    std::uint64_t prevSlot = 0;
    forEachTouchedSet([&](std::size_t set) {
        for (std::size_t i = set * numWays; i < (set + 1) * numWays; i++) {
            const Line &l = lines[i];
            if (!l.valid())
                continue;
            s.vu64(i - prevSlot);
            prevSlot = i;
            s.vu64(l.tag >> 6); // tags are lineAlign()ed: low 6 bits zero
            s.u8(static_cast<std::uint8_t>(l.state));
            s.vu64(l.lastUse);
        }
    });
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
    // Only touched sets can differ from the canonical empty slot.
    forEachTouchedSet([&](std::size_t set) {
        std::fill_n(lines.begin() + static_cast<std::ptrdiff_t>(set * numWays),
                    numWays, Line{});
    });
    std::fill(touched.begin(), touched.end(), 0);
    const std::uint64_t valid = d.u64();
    std::uint64_t prevSlot = 0;
    for (std::uint64_t k = 0; k < valid; k++) {
        const std::uint64_t delta = d.vu64();
        if (k > 0 && delta == 0) {
            throw SnapshotError(strprintf(
                "cache array slot %llu repeated",
                static_cast<unsigned long long>(prevSlot)));
        }
        const std::uint64_t i = prevSlot + delta;
        prevSlot = i;
        if (i >= lines.size()) {
            throw SnapshotError(strprintf(
                "cache array slot %llu out of range (%zu lines)",
                static_cast<unsigned long long>(i), lines.size()));
        }
        const Addr tag = d.vu64() << 6;
        const std::size_t set = i / numWays;
        if (setIndex(tag) != set) {
            throw SnapshotError(strprintf(
                "cache array tag %#llx maps to set %u, stored in set %zu",
                static_cast<unsigned long long>(tag), setIndex(tag), set));
        }
        touched[set / 64] |= 1ULL << (set % 64);
        Line &l = lines[i];
        l.tag = tag;
        d.enumByte(l.state, CacheState::Modified, "cache line state");
        l.lastUse = d.vu64();
    }
}

} // namespace rowsim
