/**
 * @file
 * Fundamental scalar types and address helpers shared by every module.
 */

#ifndef ROWSIM_COMMON_TYPES_HH
#define ROWSIM_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace rowsim
{

/** Physical / virtual address. The simulator does not model translation
 *  faults, so a single flat 64-bit address space is used. */
using Addr = std::uint64_t;

/** Global simulation cycle count. */
using Cycle = std::uint64_t;

/** Core (and, equivalently, thread) identifier. */
using CoreId = std::uint32_t;

/** Monotonically increasing per-core instruction sequence number. */
using SeqNum = std::uint64_t;

/** Sentinel for "no cycle" / "not yet happened". */
constexpr Cycle invalidCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for invalid addresses. */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Sentinel core id (e.g. "no owner" in the directory). */
constexpr CoreId invalidCore = std::numeric_limits<CoreId>::max();

/** Largest simulated core count: the directory's sharer mask is one
 *  std::uint64_t with a bit per core. */
constexpr unsigned maxCores = 64;

/** Cacheline size. Fixed at 64 bytes, as in all modern x86 parts. */
constexpr unsigned lineBytes = 64;
constexpr unsigned lineShift = 6;

/** Strip the offset bits, yielding the line-aligned address. */
constexpr Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(lineBytes - 1);
}

/** Line number (address >> log2(lineBytes)). */
constexpr Addr
lineNum(Addr a)
{
    return a >> lineShift;
}

/** True when two byte addresses fall on the same cacheline. */
constexpr bool
sameLine(Addr a, Addr b)
{
    return lineAlign(a) == lineAlign(b);
}

} // namespace rowsim

#endif // ROWSIM_COMMON_TYPES_HH
