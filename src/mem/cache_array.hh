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
  public:
    struct Line
    {
        Addr tag = invalidAddr;      ///< line-aligned address
        CacheState state = CacheState::Invalid;
        std::uint64_t lastUse = 0;   ///< LRU timestamp
        bool valid() const { return state != CacheState::Invalid; }
        /** Reset to the canonical invalid slot: no tag, no LRU stamp
         *  (snapshots serialize valid lines only, so every invalid
         *  slot must read the same). */
        void clear() { *this = Line{}; }
    };

    CacheArray(unsigned sets, unsigned ways);

    /** Look up a line; nullptr on miss. Touches LRU state on hit. */
    Line *lookup(Addr line_addr, Cycle now);
    /** Look up without perturbing replacement state. */
    const Line *peek(Addr line_addr) const;

    /**
     * Choose a victim way in the set of @p line_addr. Lines for which
     * @p pinned returns true are skipped (AQ-locked lines). Returns
     * nullptr when every way is pinned (caller must retry later).
     * Prefers invalid ways, then LRU. The set's storage is allocated
     * here on its first use.
     */
    Line *victim(Addr line_addr,
                 const std::function<bool(Addr)> &pinned, Cycle now);

    /** Install @p line_addr into @p way (previously chosen by victim()). */
    void fill(Line *way, Addr line_addr, CacheState state, Cycle now);

    /** Invalidate the line if present. Returns true if it was present. */
    bool invalidate(Addr line_addr);

    unsigned sets() const { return numSets; }
    unsigned ways() const { return numWays; }

    /** Set index for an address (exposed for AQ set/way annotations). */
    unsigned setIndex(Addr line_addr) const;

    /** Slot @p i (set-major: set i / ways, way i % ways), read-only; a
     *  set without storage reads as canonical invalid slots. */
    const Line &slot(std::size_t i) const;

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
            for (const Line *l = setLines[set]; l != setLines[set] + numWays;
                 l++) {
                if (l->valid())
                    fn(l->tag, l->state);
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
     *  and return its way 0. */
    Line *allocSet(unsigned set);
    /** The valid line @p aligned in its set, or nullptr. */
    Line *find(Addr aligned) const;

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
     * invalid). Only victim() and restore() allocate, so lookups,
     * peeks and invalidations of a cold set cost no memory. Storage
     * comes from fixed-size chunks handed out in first-use order; a
     * chunk never moves, so a Line * stays valid until the next
     * restore(), which takes the pool back and hands it out again.
     */
    std::vector<Line *> setLines;
    /** Frees a chunk's raw storage (its lines are trivially
     *  destructible). */
    struct ChunkFree
    {
        void operator()(Line *p) const { ::operator delete(p); }
    };
    std::vector<std::unique_ptr<Line, ChunkFree>> chunks;
    std::size_t usedSets = 0; ///< sets handed out from the pool
    /** One bit per set with storage, for the ordered walks. */
    std::vector<std::uint64_t> allocated;
};

} // namespace rowsim

#endif // ROWSIM_MEM_CACHE_ARRAY_HH
