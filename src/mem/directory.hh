/**
 * @file
 * One bank of the shared L3 / directory. Implements a blocking MSI
 * directory protocol: while a transaction is in flight for a line
 * (Blocked state), younger requests queue behind it. This serialisation
 * is what makes contended-line acquisition latency grow with the number
 * of requesters — the signal RoW's directory detector keys on — and it
 * reproduces the Unblock race of the paper's Fig. 8.
 */

#ifndef ROWSIM_MEM_DIRECTORY_HH
#define ROWSIM_MEM_DIRECTORY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addr_table.hh"
#include "mem/cache_array.hh"
#include "net/message.hh"
#include "net/network.hh"

namespace rowsim
{

class SpanTracker;

/**
 * Directory bank. Network endpoint NodeId == numCores + bankIndex.
 */
class Directory : public MsgHandler
{
  public:
    /**
     * Called when a request observes concurrent interest in a line.
     * The system uses it as the ground-truth contention oracle for
     * Fig. 5. @p holder is the current owner/sharer or invalidCore.
     * @p overlap distinguishes definite temporal overlap (the request
     * arrived while a transaction for the line was in flight — mark both
     * sides) from a forward/invalidation of a resident copy (the holder
     * is concurrently *using* the line — mark the holder only; a
     * migratory access with no overlap is not contention for the
     * requester).
     */
    using OracleHook =
        std::function<void(Addr line, CoreId requester, CoreId holder,
                           bool overlap, Cycle now)>;

    Directory(unsigned bank_index, unsigned num_cores,
              const MemParams &params, Network *net);

    void deliver(const Msg &msg, Cycle now) override;
    void tick(Cycle now);
    bool idle() const;

    /** Earliest future cycle tick() would do anything absent new
     *  deliveries: the next data-ready wake or the end of an injected
     *  stall. invalidCycle when quiescent (fast-forward bound). */
    Cycle nextEventCycle(Cycle now) const;

    void setOracleHook(OracleHook hook) { oracle = std::move(hook); }
    /** Attach the span tracker (System::setupSpans). */
    void setSpans(SpanTracker *s) { spans_ = s; }

    /** Directory state probe for tests. */
    DirState lineState(Addr line) const;
    CoreId lineOwner(Addr line) const;
    /** LLC sets with storage (host-only footprint). */
    std::size_t allocatedSets() const { return llcArray.allocatedSets(); }

    /** Read-only view of one directory entry (invariant checkers). */
    struct LineInfo
    {
        Addr line = invalidAddr;
        DirState state = DirState::Invalid;
        std::uint64_t sharers = 0;
        CoreId owner = invalidCore;
        CoreId txnRequester = invalidCore;
        unsigned pendingAcks = 0;
        bool dataPending = false;
        Cycle blockedSince = invalidCycle;
        std::size_t queued = 0;
    };

    /** Apply @p fn(const LineInfo &) to every directory entry, in
     *  table order (callers needing an order sort). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        const Txn idle;
        LineInfo info;
        for (const auto &[line, e] : lines.slots()) {
            if (line == invalidAddr)
                continue;
            const Txn &t = e.txn == noTxn ? idle : txns[e.txn];
            info.line = line;
            info.state = e.state;
            info.sharers = e.sharers;
            info.owner = e.owner;
            info.txnRequester = t.requester;
            info.pendingAcks = t.pendingAcks;
            info.dataPending = t.dataPending;
            info.blockedSince = t.blockedSince;
            info.queued = t.queued.size();
            fn(info);
        }
    }

    unsigned blockedCount() const { return blockedLines; }

    /**
     * Fault injection: stall the bank — buffer every delivery until
     * @p until, then process them in arrival order. Models a slow/backed
     * up bank; point-to-point ordering is preserved.
     */
    void injectStall(Cycle until);
    bool stalled() const { return !stallBuffer.empty() || stalledUntil > 0; }

    /** Crash diagnostics: one JSON object describing Blocked entries. */
    void dumpDiag(std::FILE *out, Cycle now) const;

    /** Test-only: corrupt the directory by overwriting one entry's
     *  stable state (checker death tests). */
    void testSetLine(Addr line, DirState state, CoreId owner,
                     std::uint64_t sharers);

    // ---- functional fast-mode hooks (src/sim/funcmode.cc) ----
    //
    // The functional interpreter applies each request's protocol *end
    // state* synchronously — no messages, no Blocked transients — so a
    // snapshot taken at a func-mode cycle boundary holds only stable
    // coherence states. These hooks assert the entry is not mid-flight.

    /** One line's stable state: Invalid, no owner and no sharers when
     *  the bank never saw the line. */
    struct StableLine
    {
        DirState state = DirState::Invalid;
        CoreId owner = invalidCore;
        std::uint64_t sharers = 0;
    };
    /** The stable state of @p line, in one line-table probe. */
    StableLine stableLine(Addr line) const;
    /** Overwrite one entry's stable state with a transaction's end
     *  state (refuses Blocked entries: func mode never runs while a
     *  detail transaction is in flight). */
    void funcSetLine(Addr line, DirState state, CoreId owner,
                     std::uint64_t sharers);
    /** Slot of @p line's entry, inserted Invalid when the bank never
     *  saw the line: a functional miss reads (stableAt) and writes
     *  (funcSetAt) its entry through one probe. Stale after the bank's
     *  next insert. */
    std::size_t
    funcSlot(Addr line)
    {
        return lines.findOrInsert(lineAlign(line));
    }
    StableLine stableAt(std::size_t slot) const;
    void funcSetAt(std::size_t slot, DirState state, CoreId owner,
                   std::uint64_t sharers);
    /** Apply a clean writeback's end state (PutM from the owner):
     *  entry Invalid, data presence in the LLC array. */
    void funcWriteback(Addr line, CoreId evictor, Cycle now);
    /** Install LLC data presence for a fill served by LLC/memory,
     *  mirroring dataLatency()'s insertion (latency discarded). */
    void funcTouchLlc(Addr line, Cycle now);

    /** Architectural state: entries (including Blocked transients and
     *  their queued requests), wake schedule, stall buffer, LLC array.
     *  Stats travel in the System's stats pass. */
    void save(Ser &s) const;
    void restore(Deser &d);

    StatGroup &stats() { return stats_; }

  private:
    static constexpr std::uint32_t noTxn = ~std::uint32_t{0};

    /**
     * One line's stable directory state, the value of a 32 B line-table
     * slot. Every line the bank ever saw has one; lines are never
     * removed.
     */
    struct Entry
    {
        std::uint64_t sharers = 0; ///< bitmask, supports up to 64 cores
        CoreId owner = invalidCore;
        DirState state = DirState::Invalid;
        /** Index of the line's transaction record, or noTxn when the
         *  line never had one (quiescent by construction). */
        std::uint32_t txn = noTxn;
    };
    using LineTable = AddrTable<Entry, lineShift>;
    static_assert(sizeof(LineTable::Slot) == 32,
                  "line table slots are 32 B");

    /**
     * Transaction record of one line (the transient, in-flight
     * bookkeeping a TBE holds in Ruby). Created at the line's first
     * request and kept for the life of the bank: finishTxn resets only
     * the requester, span and Blocked stamp, and the finished
     * transaction's next-state and data-reply fields stay behind. Those
     * leftovers are serialized and digested, so a record is never freed.
     */
    struct Txn
    {
        CoreId requester = invalidCore;
        /** State/owner/sharers to apply when the Unblock arrives. */
        CoreId nextOwner = invalidCore;
        std::uint64_t nextSharers = 0;
        DirState nextState = DirState::Invalid;
        /** Data reply to emit once acks are in and data is ready. Only
         *  its variable fields are kept: a directory reply always
         *  carries the record's line, src = the bank, dst == requester
         *  and excl == (type == DataExcl). GetS (the default type) means
         *  no reply was ever built: the reply is a default Msg. */
        MsgType dataType = MsgType::GetS;
        bool dataFromMemory = false;
        bool dataContentionHint = false;
        CoreId dataDst = invalidCore;
        /** Outstanding invalidation acks before data can be sent. */
        unsigned pendingAcks = 0;
        bool dataPending = false;
        /** Earliest cycle LLC/memory data is available. */
        Cycle dataReady = invalidCycle;
        /** Cycle the line entered Blocked (trace Blocked windows). */
        Cycle blockedSince = invalidCycle;
        /** Span of the in-flight transaction and of its data reply
         *  (0 = untraced; not serialized — restored transactions are
         *  untraced). */
        std::uint64_t spanId = 0;
        /** Requests (and crossed PutMs) waiting behind the Blocked
         *  line, oldest first. */
        std::vector<Msg> queued;
    };

    /** Record index of slot @p si, appending a fresh record when the
     *  line has none. Record references do not survive the call. */
    std::uint32_t recordFor(std::size_t si);
    /** The data reply a record describes, as saveMsg writes it. */
    Msg dataMsgOf(Addr line, const Txn &t) const;

    /** Process a request against an unblocked entry (may block it).
     *  @param was_queued the request waited behind an earlier transaction
     *  (feeds the directory-notification contention hint). */
    void processRequest(std::size_t si, const Msg &msg, Cycle now,
                        bool was_queued = false);
    /** LLC/memory access latency for this line (inserts into LLC). */
    Cycle dataLatency(Addr line, Cycle now, bool &from_memory);
    /** Mark @p line present in the LLC: touch its LRU stamp if the
     *  bank holds it (returns true), else install it over the LRU way.
     *  An LLC eviction only drops presence: the data stays in
     *  functional memory. */
    bool touchLlc(Addr line, Cycle now);
    /** Emit the blocked line's data reply if acks and data are ready. */
    void maybeSendData(std::size_t si, Cycle now);
    /** Apply the Unblock, then drain queued requests. */
    void finishTxn(std::size_t si, Cycle now);

    void
    sendToCore(MsgType t, Addr line, CoreId core, CoreId requester,
               Cycle now, bool excl = false, bool from_memory = false,
               bool contention_hint = false, std::uint64_t span_id = 0);

    unsigned bankIndex;
    unsigned numCores;
    NodeId myNode;
    MemParams params;
    Network *net;
    OracleHook oracle;

    /** Line table: every line the bank ever saw. */
    LineTable lines;
    /** Transaction records, append-only (Entry::txn indexes them). */
    std::vector<Txn> txns;
    /** Lines whose data reply is waiting for the LLC/memory latency. */
    std::multimap<Cycle, Addr> wake;
    /** Fault injection: deliveries buffered while the bank is stalled. */
    std::deque<Msg> stallBuffer;
    Cycle stalledUntil = 0;
    CacheArray llcArray; ///< data-presence array (latency only)
    /** Number of lines currently Blocked (idle() fast path). */
    unsigned blockedLines = 0;

    SpanTracker *spans_ = nullptr;

    StatGroup stats_;
    CounterStat llcMisses_{stats_, "llcMisses"};
    CounterStat getS_{stats_, "getS"};
    CounterStat fwdGetS_{stats_, "fwdGetS"};
    CounterStat getX_{stats_, "getX"};
    CounterStat fwdGetX_{stats_, "fwdGetX"};
    CounterStat queuedRequests_{stats_, "queuedRequests"};
    AverageStat queueDepth_{stats_, "queueDepth"};
    CounterStat writebacks_{stats_, "writebacks"};
    CounterStat staleWritebacks_{stats_, "staleWritebacks"};
    CounterStat injectedStalls_{stats_, "injectedStalls"};
};

} // namespace rowsim

#endif // ROWSIM_MEM_DIRECTORY_HH
