/**
 * @file
 * Functional (value) memory and the memory-system container that owns the
 * network, private caches, and directory banks.
 *
 * Timing and values are deliberately separated: the coherence protocol
 * moves permissions, while values live here and are read/written at the
 * timing instants when the protocol holds the corresponding permission.
 * The atomicity invariant tests rely on this: if locking were broken, two
 * cores could read the same counter value and lose an update.
 */

#ifndef ROWSIM_MEM_MEMSYSTEM_HH
#define ROWSIM_MEM_MEMSYSTEM_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "mem/directory.hh"
#include "mem/l1cache.hh"
#include "net/network.hh"

namespace rowsim
{

/** Word-granular (8-byte) value store backing the whole address space. */
class FunctionalMemory
{
  public:
    std::uint64_t
    read64(Addr addr) const
    {
        auto it = words.find(addr & ~7ULL);
        return it == words.end() ? 0 : it->second;
    }

    void
    write64(Addr addr, std::uint64_t value)
    {
        words[addr & ~7ULL] = value;
    }

    /** Serialized in sorted address order (hash order never leaks). */
    void save(Ser &s) const;
    void restore(Deser &d);

  private:
    std::unordered_map<Addr, std::uint64_t> words;
};

/**
 * Owns every memory-side component of the simulated chip. Cores attach
 * themselves as MemClients of their PrivateCache.
 */
class MemSystem
{
  public:
    /** Fatal when params.numCores exceeds maxCores (the sharer mask
     *  has one bit per core), before any cache or bank is built. */
    explicit MemSystem(const SystemParams &params);

    PrivateCache &cache(CoreId core) { return *caches[core]; }
    Directory &directory(unsigned bank) { return *banks[bank]; }
    Network &network() { return net; }
    FunctionalMemory &functional() { return fmem; }
    unsigned numBanks() const { return static_cast<unsigned>(banks.size()); }

    /** Advance all memory-side components one cycle. */
    void tick(Cycle now);

    /**
     * Functional fast-mode access (src/sim/funcmode.cc): apply the MSI
     * protocol's end state for one request synchronously — requester
     * cache and LRU arrays warmed, remote copies dropped/downgraded,
     * directory entry and LLC presence updated, dirty victims written
     * back — with no message ever in flight. Must only be called when
     * the memory system is idle (func mode never overlaps a detail
     * transaction).
     *
     * @param exclusive store or atomic (GetX end state) vs load (GetS)
     * @return true when the data came from a remote private cache (the
     *         owner forward that detail mode reports as
     *         FillSource::RemoteCache — the RoW Dir detector's
     *         contention evidence)
     */
    bool funcAccess(CoreId core, Addr addr, bool exclusive, Cycle now);

    /** True when no message, miss, or transaction is outstanding. */
    bool idle() const;

    /** Earliest future cycle any memory-side component does anything
     *  (network delivery, cache completion, directory wake) absent new
     *  core activity. invalidCycle when quiescent (fast-forward bound). */
    Cycle nextEventCycle(Cycle now) const;

    /** Snapshot field list: every memory-side component's
     *  architectural state. */
    template <class Ar> void visit(Ar &ar);

  private:
    Network net;
    FunctionalMemory fmem;
    std::vector<std::unique_ptr<PrivateCache>> caches;
    std::vector<std::unique_ptr<Directory>> banks;
    /** funcAccess's dirty install victims, cleared per call and kept
     *  to reuse its buffer. Host-only, so not in visit(). */
    std::vector<Addr> dirtyVictims;
};

} // namespace rowsim

#endif // ROWSIM_MEM_MEMSYSTEM_HH
