/**
 * @file
 * Generic set-associative tag array with LRU replacement and support for
 * pinning (locked lines are never chosen as victims).
 */

#ifndef ROWSIM_MEM_CACHE_ARRAY_HH
#define ROWSIM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
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
     * Prefers invalid ways, then LRU.
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

    /** Apply @p fn(tag, state) to every valid line (invariant checkers,
     *  diagnostics; does not touch replacement state). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const Line &l : lines) {
            if (l.valid())
                fn(l.tag, l.state);
        }
    }

    /** Serialize the valid lines (sparse, with their slot indices and
     *  LRU stamps) so restored victim choices replay exactly. Invalid
     *  slots are canonical and need no bytes. Both walk only the sets
     *  a fill or restore has written (the touched-set bitmap). */
    void save(Ser &s) const;
    void restore(Deser &d);

  private:
    /** Apply @p fn(set) to every touched set, in ascending order. */
    template <typename Fn> void forEachTouchedSet(Fn &&fn) const;

    unsigned numSets;
    unsigned numWays;
    std::vector<Line> lines; ///< numSets x numWays, row-major
    /** One bit per set that fill() or restore() ever wrote. Only
     *  fill() makes a slot valid, so every valid line lies in a marked
     *  set; sets outside it hold default-constructed slots. */
    std::vector<std::uint64_t> touched;
};

} // namespace rowsim

#endif // ROWSIM_MEM_CACHE_ARRAY_HH
