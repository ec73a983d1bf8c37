/**
 * @file
 * Versioned, self-describing binary snapshot layer.
 *
 * `Ser` serializes into a byte buffer with an explicit little-endian
 * encoding (so images and state digests are identical across platforms
 * and compilers); `Deser` reads the same stream back with full bounds
 * checking. Section tags make streams self-describing: every component
 * frames its state with a named marker, and a reader that drifts out of
 * sync fails with a named `SnapshotError` instead of undefined behaviour.
 *
 * Checkpoint files wrap one serialized payload in a header carrying a
 * magic, the snapshot format version, and the producing System's
 * configuration fingerprint, followed by a SHA-256 trailer over the
 * payload. Truncated, corrupted, version-skewed, or config-mismatched
 * files are all rejected with distinct named errors (see DESIGN.md
 * "Snapshot format & compatibility").
 *
 * Every stateful component implements `save(Ser &) const` /
 * `restore(Deser &)`; `System::save`/`System::restore` compose them, and
 * `System::stateDigest()` hashes the architectural sections into the
 * canonical golden digest CI compares across compilers.
 */

#ifndef ROWSIM_SIM_SNAPSHOT_HH
#define ROWSIM_SIM_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rowsim
{

struct Msg;
struct MicroOp;

/** Current on-disk snapshot format version. Bumped on any incompatible
 *  payload layout change; readers reject other versions by name.
 *  v2: the stats pass carries time-series engine state.
 *  v3: the value memory serializes as delta-varint (sorted addresses as
 *      LEB128 gaps, values as LEB128) — it dominates checkpoint size on
 *      long runs and its save/restore cost bounds the SMARTS sampling
 *      speedup. Changes the digested byte stream, so the golden digests
 *      were regenerated in the same commit.
 *  v4: one interval sampler owns the stats pass's series. With the
 *      time-series engine on, its block no longer repeats the period or
 *      the metric names and drops the window and each metric's point
 *      ring (the rendered points are a view of the stored series).
 *      Payloads written with the engine off are unchanged; the arch
 *      pass and the golden digests do not move. */
constexpr std::uint32_t snapshotFormatVersion = 4;

/** Named failure of any snapshot operation: truncated or corrupted
 *  files, format-version skew, configuration mismatch, section drift,
 *  or an attempt to snapshot un-snapshottable state (active profiler). */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error("snapshot: " + what)
    {
    }
};

/** Serializer: appends explicitly little-endian fields to a buffer. */
class Ser
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        buf_.push_back(static_cast<std::uint8_t>(v));
        buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; i++)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; i++)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void b(bool v) { u8(v ? 1 : 0); }

    /** Unsigned LEB128: 1 byte for values < 128, up to 10 for the full
     *  u64 range. The value-memory encoder (sorted address gaps, small
     *  data words) is the intended user — bulk state whose fixed-width
     *  encoding would dominate image size and checkpoint I/O. */
    void
    vu64(std::uint64_t v)
    {
        while (v >= 0x80) {
            buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        buf_.push_back(static_cast<std::uint8_t>(v));
    }

    /** Doubles travel as IEEE-754 bit patterns: exact round-trips, and
     *  bit-identical images whenever the computation that produced the
     *  value is (all digested state is integral, keeping cross-compiler
     *  digests safe from FP formatting differences). */
    void f64(double v);

    void str(const std::string &s);

    /** Append @p len raw bytes with no length prefix (key preimages,
     *  digests — anything whose framing the caller owns). */
    void raw(const void *data, std::size_t len);

    /** Open a named section. Purely a framing marker: the reader
     *  verifies it by name, catching any producer/consumer drift at the
     *  first misaligned field instead of yielding garbage state. */
    void section(const char *tag);

    const std::vector<std::uint8_t> &bytes() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Deserializer over a byte buffer; every read is bounds-checked and
 *  failures throw SnapshotError. */
class Deser
{
  public:
    Deser(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Deser(const std::vector<std::uint8_t> &buf)
        : Deser(buf.data(), buf.size())
    {
    }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::uint64_t vu64();
    bool b();
    double f64();
    std::string str();

    /** Verify the next section marker is @p tag. */
    void section(const char *tag);

    bool atEnd() const { return pos_ == size_; }
    /** Bytes not yet read (bounds a count read from the image before
     *  anything is sized by it). */
    std::size_t remaining() const { return size_ - pos_; }
    /** Reject images with bytes left over after a full restore. */
    void expectEnd() const;

  private:
    void need(std::size_t n) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// Shared aggregate encoders (used by the cache, directory, network, core
// and workload serializers).
void saveMsg(Ser &s, const Msg &m);
void restoreMsg(Deser &d, Msg &m);
void saveOp(Ser &s, const MicroOp &op);
void restoreOp(Deser &d, MicroOp &op);

struct SystemParams;

/**
 * The canonical configuration fingerprint: every numeric architectural
 * parameter of @p params serialized in a fixed little-endian order and
 * hashed, followed by a resolved fault-injection setup (mask/seed/rate,
 * RunOptions::faults) exactly as a live System with that injector
 * would — so it matches `System::configFingerprint()` for the System
 * those params and options construct, without building one.
 * Observability knobs (tracing, profiling,
 * interval stats, checker cadence) are deliberately excluded: they
 * never change simulated behaviour.
 */
std::uint64_t configFingerprint(const SystemParams &params,
                                std::uint32_t fault_mask,
                                std::uint64_t fault_seed,
                                std::uint32_t fault_rate);

/**
 * Checkpoint file `<dir>/<workload>-<label><shape>`, with every
 * character of workload and label outside [A-Za-z0-9] replaced by '_'.
 * Sampling checkpoints put everything that decides the warmed
 * trajectory into the name, so a stale file can never be restored into
 * the wrong run (the embedded config fingerprint backstops the rest).
 */
std::string checkpointFile(const std::string &dir,
                           const std::string &workload,
                           const std::string &label,
                           const std::string &shape);

/**
 * Write one checkpoint file: magic, format version, @p fingerprint,
 * payload length, payload, SHA-256(payload). The file is written to a
 * temporary name and atomically renamed, so concurrent sweep workers
 * racing on the same checkpoint key never expose a partial image.
 * Throws SnapshotError on I/O failure.
 */
void writeSnapshotFile(const std::string &path,
                       const std::vector<std::uint8_t> &payload,
                       std::uint64_t fingerprint);

/**
 * Read and validate a checkpoint file, returning the payload. Rejects —
 * each with a distinct named SnapshotError — files that are not rowsim
 * snapshots, carry another format version, were produced under a
 * different configuration fingerprint, are truncated, or fail the
 * SHA-256 payload check.
 */
std::vector<std::uint8_t> readSnapshotFile(const std::string &path,
                                           std::uint64_t expect_fingerprint);

} // namespace rowsim

#endif // ROWSIM_SIM_SNAPSHOT_HH
