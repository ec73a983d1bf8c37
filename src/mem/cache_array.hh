/**
 * @file
 * Generic set-associative tag array with LRU replacement and support for
 * pinning (locked lines are never chosen as victims).
 */

#ifndef ROWSIM_MEM_CACHE_ARRAY_HH
#define ROWSIM_MEM_CACHE_ARRAY_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "mem/coherence.hh"

namespace rowsim
{

class Ser;
class Deser;

/**
 * A set-associative array of cacheline tags. Holds coherence state per
 * line; data values live in the system-wide functional memory, so the
 * array only answers presence/permission questions.
 */
class CacheArray
{
    /** A tag word's state bits: the line-offset bits of its tag, which
     *  are always zero. */
    static constexpr std::uint64_t kStateMask = lineBytes - 1;

  public:
    /** One slot's contents, by value (slot()). */
    struct Line
    {
        Addr tag = invalidAddr;      ///< line-aligned address
        CacheState state = CacheState::Invalid;
        std::uint64_t lastUse = 0;   ///< LRU timestamp
        bool valid() const { return state != CacheState::Invalid; }
    };

    /**
     * Handle to one way: its tag word (`tag | state`, 0 when invalid)
     * and its LRU stamp. A null handle (a miss, or every way pinned)
     * tests false. Stays valid until the next restore().
     */
    class Way
    {
      public:
        Way() = default;
        explicit operator bool() const { return word != nullptr; }
        bool operator==(const Way &) const = default;

        bool valid() const { return *word != 0; }
        Addr tag() const { return *word & ~kStateMask; }
        CacheState
        state() const
        {
            return static_cast<CacheState>(*word & kStateMask);
        }
        std::uint64_t lastUse() const { return *lru; }
        /** Change a valid way's state in place; panics on Invalid (a
         *  valid tag with state 0 would read as an empty way). */
        void setState(CacheState s) const;
        /** Reset to the canonical invalid way: the zero word, no LRU
         *  stamp (snapshots serialize valid ways only, so every invalid
         *  way must read the same). */
        void
        clear() const
        {
            *word = 0;
            *lru = 0;
        }

      private:
        friend class CacheArray;
        Way(std::uint64_t *w, std::uint64_t *l) : word(w), lru(l) {}
        std::uint64_t *word = nullptr;
        std::uint64_t *lru = nullptr;
    };

    CacheArray(unsigned sets, unsigned ways);

    /** Look up a line; a null handle on miss. Touches LRU state on
     *  hit. */
    Way lookup(Addr line_addr, Cycle now);
    /** The line's state (Invalid when absent), without perturbing
     *  replacement state. */
    CacheState peek(Addr line_addr) const;

    /**
     * Choose a victim way in the set of @p line_addr. Lines for which
     * @p pinned returns true are skipped (AQ-locked lines). Returns a
     * null handle when every way is pinned (caller must retry later).
     * Prefers the first invalid way, then the first least recently
     * used. The set's storage is allocated here on its first use.
     */
    Way victim(Addr line_addr, const std::function<bool(Addr)> &pinned,
               Cycle now);

    /**
     * lookup() and, on a miss, victim() with no pin, in one scan of the
     * set: @p hit tells which one the returned way is. Never null.
     */
    Way lookupOrVictim(Addr line_addr, Cycle now, bool &hit);

    /** Install @p line_addr into @p way (previously chosen by victim()
     *  or lookupOrVictim()); panics on a null way or an Invalid
     *  state. */
    void fill(Way way, Addr line_addr, CacheState state, Cycle now);

    /** Invalidate the line if present. Returns its prior state
     *  (Invalid when it was absent). */
    CacheState invalidate(Addr line_addr);

    unsigned sets() const { return numSets; }
    unsigned ways() const { return numWays; }

    /** Set index for an address (exposed for AQ set/way annotations). */
    unsigned setIndex(Addr line_addr) const;

    /** Slot @p i (set-major: set i / ways, way i % ways), by value; an
     *  invalid slot (with or without storage) reads as Line{}. */
    Line slot(std::size_t i) const;

    /** Sets with storage (host-only: the array's footprint, not its
     *  simulated state). */
    std::size_t allocatedSets() const { return usedSets; }

    /** Apply @p fn(tag, state) to every valid line in ascending slot
     *  order (invariant checkers, diagnostics, fault injection's
     *  victim pick; does not touch replacement state). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        forEachAllocatedSet([&](std::size_t set) {
            const std::uint64_t *words = setWords[set];
            for (const std::uint64_t *w = words; w != words + numWays;
                 w++) {
                if (*w)
                    fn(*w & ~kStateMask,
                       static_cast<CacheState>(*w & kStateMask));
            }
        });
    }

    /** Serialize the valid lines (sparse, with their slot indices and
     *  LRU stamps) so restored victim choices replay exactly. Invalid
     *  slots are canonical and need no bytes. Both walk only the sets
     *  with storage; restore() allocates exactly the image's sets. */
    void save(Ser &s) const;
    void restore(Deser &d);

  private:
    /** Sets per pool chunk. */
    static constexpr std::size_t kChunkSets = 16;

    /** Give @p set storage from the pool (all ways canonical invalid)
     *  and return its tag words. */
    std::uint64_t *allocSet(unsigned set);
    /** The handle of way @p w of the set whose tag words are
     *  @p words. */
    Way
    wayAt(std::uint64_t *words, unsigned w) const
    {
        return Way(words + w, words + numWays + w);
    }
    /** The first least recently used way of a full set whose tag
     *  words are @p words, skipping @p pinned lines; null when every
     *  way is pinned. */
    Way leastRecent(std::uint64_t *words,
                    const std::function<bool(Addr)> &pinned) const;
    /** The valid line @p aligned in its set, or a null handle. */
    Way find(Addr aligned) const;

    /** Apply @p fn(set) to every set with storage, in ascending
     *  order. */
    template <typename Fn>
    void
    forEachAllocatedSet(Fn &&fn) const
    {
        for (std::size_t w = 0; w < allocated.size(); w++) {
            for (std::uint64_t bits = allocated[w]; bits; bits &= bits - 1)
                fn(w * 64 +
                   static_cast<std::size_t>(std::countr_zero(bits)));
        }
    }

    unsigned numSets;
    unsigned numWays;
    /**
     * Per-set storage, nullptr while the set has none (every way
     * invalid). A set's storage is its numWays tag words, then its
     * numWays LRU stamps, so a scan of the tags reads 8 bytes a way.
     * Only victim(), lookupOrVictim() and restore() allocate, so
     * lookups, peeks and invalidations of a cold set cost no memory.
     * Storage comes from fixed-size chunks handed out in first-use
     * order; a chunk never moves, so a Way stays valid until the next
     * restore(), which takes the pool back and hands it out again.
     */
    std::vector<std::uint64_t *> setWords;
    std::vector<std::unique_ptr<std::uint64_t[]>> chunks;
    std::size_t usedSets = 0; ///< sets handed out from the pool
    /** One bit per set with storage, for the ordered walks. */
    std::vector<std::uint64_t> allocated;
};

} // namespace rowsim

#endif // ROWSIM_MEM_CACHE_ARRAY_HH
