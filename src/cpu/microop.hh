/**
 * @file
 * Micro-operation definition: the unit of work the core consumes from an
 * instruction stream.
 */

#ifndef ROWSIM_CPU_MICROOP_HH
#define ROWSIM_CPU_MICROOP_HH

#include <cstdint>

#include "common/types.hh"

namespace rowsim
{

/** Operation classes understood by the pipeline. */
enum class OpClass : std::uint8_t
{
    IntAlu,    ///< integer ALU op, execLatency cycles
    FpAlu,     ///< floating-point op, execLatency cycles
    Load,      ///< memory read
    Store,     ///< memory write (writes at retire from the SB)
    AtomicRMW, ///< locked read-modify-write (LDL / modify / STU)
    Branch,    ///< conditional branch; trained direction in takenBranch
    Fence,     ///< mfence: orders all older/younger memory operations
    Nop,
};

/** The "modify" flavour of an atomic RMW. */
enum class AtomicOp : std::uint8_t
{
    FetchAdd,    ///< lock xadd
    CompareSwap, ///< lock cmpxchg
    Swap,        ///< xchg (implicitly locked on x86)
};

const char *opClassName(OpClass c);
const char *atomicOpName(AtomicOp a);

/**
 * One micro-op. Register dependencies are expressed positionally: srcN is
 * the backward distance (in micro-ops) to the producer, 0 meaning "no
 * dependency". A distance larger than the ROB lifetime of the producer
 * resolves to "ready" automatically.
 */
struct MicroOp
{
    OpClass cls = OpClass::IntAlu;
    AtomicOp aop = AtomicOp::FetchAdd;

    Addr addr = invalidAddr;  ///< effective address for memory ops
    std::uint64_t pc = 0;     ///< program counter (predictor indexing)
    std::uint16_t execLatency = 1;

    /** Backward distances to the producers of the two source operands. */
    std::uint32_t src0 = 0;
    std::uint32_t src1 = 0;

    bool takenBranch = false; ///< resolved direction (branches)

    /** Store value / atomic operand. For FetchAdd this is the addend; for
     *  Swap the new value; for CompareSwap the new value (the expected
     *  value is the current memory content, making the CAS succeed, unless
     *  casExpectMismatch is set). */
    std::uint64_t value = 0;
    bool casExpectMismatch = false;

    /** Marks the last micro-op of a workload iteration (progress quota). */
    bool endOfIteration = false;

    bool isMem() const
    {
        return cls == OpClass::Load || cls == OpClass::Store ||
               cls == OpClass::AtomicRMW;
    }

    /** Snapshot field list (sim/snapshot.hh). */
    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.enumByte(cls, OpClass::Nop, "op class");
        ar.enumByte(aop, AtomicOp::Swap, "atomic op");
        ar.u64(addr);
        ar.u64(pc);
        ar.u16(execLatency);
        ar.u32(src0);
        ar.u32(src1);
        ar.b(takenBranch);
        ar.u64(value);
        ar.b(casExpectMismatch);
        ar.b(endOfIteration);
    }
};

} // namespace rowsim

#endif // ROWSIM_CPU_MICROOP_HH
