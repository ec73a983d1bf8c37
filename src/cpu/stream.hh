/**
 * @file
 * Instruction-stream interface: where a core's micro-ops come from.
 */

#ifndef ROWSIM_CPU_STREAM_HH
#define ROWSIM_CPU_STREAM_HH

#include <cstdint>
#include <vector>

#include "cpu/microop.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

/**
 * An infinite per-thread micro-op stream. Implementations must be
 * deterministic functions of their seed so experiments are reproducible.
 */
class InstStream
{
  public:
    virtual ~InstStream() = default;

    /** Produce the next micro-op. */
    virtual MicroOp next() = 0;

    /** Snapshot the stream's position. `Ser::io`/`Deser::io` reach a
     *  stream through these virtual entry points; a checkpointable
     *  stream forwards both to its visit() field list. The defaults
     *  throw SnapshotError: a stream type that cannot round-trip must
     *  refuse to checkpoint rather than silently resume from the wrong
     *  place. */
    virtual void save(Ser &s) const;
    virtual void restore(Deser &d);
};

/** A fixed vector of micro-ops, repeated forever (testing and simple
 *  kernels). */
class LoopStream : public InstStream
{
  public:
    explicit LoopStream(std::vector<MicroOp> body)
        : body_(std::move(body))
    {
    }

    MicroOp
    next() override
    {
        MicroOp op = body_[idx];
        idx = (idx + 1) % body_.size();
        return op;
    }

    void save(Ser &s) const override { s.io(*this); }
    void restore(Deser &d) override { d.io(*this); }
    /** Snapshot field list: the position only (the body is
     *  config-derived). */
    template <class Ar> void visit(Ar &ar);

  private:
    std::vector<MicroOp> body_;
    std::size_t idx = 0;
};

} // namespace rowsim

#endif // ROWSIM_CPU_STREAM_HH
