/**
 * @file
 * Coherence message definitions exchanged between private cache units and
 * directory banks over the on-chip network.
 */

#ifndef ROWSIM_NET_MESSAGE_HH
#define ROWSIM_NET_MESSAGE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace rowsim
{

/** Network endpoint identifier: cores occupy [0, N), directory banks
 *  occupy [N, 2N) for an N-core system. */
using NodeId = std::uint32_t;

/** Message types of the MSI directory protocol (MESI's E-state is folded
 *  into M; atomics always request exclusive permission anyway). */
enum class MsgType : std::uint8_t
{
    // Requests, core -> directory.
    GetS,       ///< read permission request
    GetX,       ///< exclusive (write / atomic) permission request
    PutM,       ///< dirty writeback on eviction (carries data)

    // Directory -> core.
    Data,       ///< data reply from LLC/memory, shared permission
    DataExcl,   ///< data reply from LLC/memory, exclusive permission
    Inv,        ///< invalidate a shared copy
    FwdGetS,    ///< owner must send data to requester and downgrade
    FwdGetX,    ///< owner must send data to requester and invalidate
    WBAck,      ///< writeback acknowledged (closes a PutM)

    // Core -> core.
    DataOwner,  ///< data forwarded from a remote private cache

    // Completion / acknowledgement traffic.
    InvAck,     ///< sharer -> directory: invalidation done
    Unblock,    ///< requester -> directory: transaction complete
};

/** Human-readable message-type name (debugging and tests). */
const char *msgTypeName(MsgType t);

/** A coherence message in flight. */
struct Msg
{
    MsgType type = MsgType::GetS;
    Addr line = invalidAddr;     ///< line-aligned address
    NodeId src = 0;
    NodeId dst = 0;
    /** The core on whose behalf this transaction runs (valid for
     *  forwards and data replies so the receiver knows the requester). */
    CoreId requester = invalidCore;
    /** Data replies: true when the bytes came from a remote private
     *  cache rather than the LLC or memory. RoW's directory-latency
     *  contention detector keys on this bit (§IV-C). */
    bool fromPrivateCache = false;
    /** Data replies: exclusive (M) permission granted. */
    bool excl = false;
    /** Data replies from the directory: true when the LLC missed and the
     *  bytes came from memory (latency classification only). */
    bool fromMemory = false;
    /** Directory-notification extension (ContentionDetector::
     *  RWDirNotify): the transaction observed concurrent interest at the
     *  directory. Carried on Fwd* messages (copied into the owner's
     *  DataOwner reply) and on directory data replies. */
    bool contentionHint = false;
    /** Cycle the message entered the network (latency accounting). */
    Cycle sent = 0;
    /** Atomic lifetime span this message serves (0 = untraced; see
     *  src/sim/span.hh). Observability-only: never serialized, and
     *  restored messages always carry 0. */
    std::uint64_t spanId = 0;

    std::string toString() const;

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.enumByte(type, MsgType::Unblock, "message type");
        ar.u64(line);
        ar.u32(src);
        ar.u32(dst);
        ar.u32(requester);
        ar.b(fromPrivateCache);
        ar.b(excl);
        ar.b(fromMemory);
        ar.b(contentionHint);
        ar.u64(sent);
        if constexpr (Ar::loading)
            spanId = 0;
    }
};

/** Interface implemented by every network endpoint. */
class MsgHandler
{
  public:
    virtual ~MsgHandler() = default;
    /** Deliver an incoming message at cycle @p now. */
    virtual void deliver(const Msg &msg, Cycle now) = 0;
};

} // namespace rowsim

#endif // ROWSIM_NET_MESSAGE_HH
