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
 * Ser and Deser are also the two archives of one field list: a
 * component lists its state once, in `template <class Ar> void
 * visit(Ar &ar)`, and `ar.io(component)` writes or reads it. The same
 * calls emit the bytes on save and check them on restore (geometry via
 * `expect`, container counts bounded by the bytes left, enum bytes by
 * their last enumerator), so every restore rejects an impossible image
 * with a named SnapshotError. Custom encodings (delta-varint cache
 * arrays, directory records, the value memory, statistics, the
 * sampler, the network ring) stay hand-written `save`/`restore`
 * leaves that `io` calls (DESIGN §10 "One field list").
 * `System::save`/`System::restore` compose them, and
 * `System::stateDigest()` hashes the architectural sections into the
 * canonical golden digest CI compares across compilers. A digest
 * writes into a hashing `Ser` (`digestHex`), which hands its bytes to
 * SHA-256 as it goes and never holds a whole image.
 */

#ifndef ROWSIM_SIM_SNAPSHOT_HH
#define ROWSIM_SIM_SNAPSHOT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sha256.hh"

namespace rowsim
{

struct Msg;

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

/** Store @p v at @p p least significant byte first. Written with
 *  shifts, so the bytes do not depend on the host; compilers fold the
 *  loop into one store on a little-endian host. */
template <class T>
inline void
storeLe(std::uint8_t *p, T v)
{
    static_assert(std::is_unsigned_v<T>);
    for (unsigned i = 0; i < sizeof(T); i++)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Load a little-endian @p T from @p p (the inverse of storeLe). */
template <class T>
inline T
loadLe(const std::uint8_t *p)
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    for (unsigned i = 0; i < sizeof(T); i++)
        v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    return v;
}

/** Longest LEB128 encoding of a u64. */
constexpr std::size_t kMaxVarintBytes = 10;

/**
 * Serializer: appends explicitly little-endian fields to a buffer.
 *
 * Every write is inline and costs one capacity check: the buffer is
 * kept a little longer than the bytes written (zero-filled slack, at
 * most 64 KiB), and a write that does not fit grows it out of line.
 * finish() (or bytes() on a non-const Ser) trims the slack, so a
 * finished archive holds exactly the image; only a finished Ser may be
 * read through a const reference (System::save finishes its images).
 *
 * A hashing Ser (hashInto) keeps no image: whenever io() returns with
 * at least 64 KiB buffered, the buffer goes to SHA-256 and is reused.
 * A hand-written leaf never drains midway, so a count it patches is
 * still buffered when it patches it.
 */
class Ser
{
  public:
    /** A hashing archive drains once this many bytes are buffered. */
    static constexpr std::size_t kHashChunk = std::size_t{1} << 16;

    /** Archive side: visit() bodies branch on it for restore-only
     *  fixups (`if constexpr (Ar::loading)`). */
    static constexpr bool loading = false;

    void u8(std::uint8_t v) { *claim(1) = v; }
    void u16(std::uint16_t v) { storeLe(claim(2), v); }
    void u32(std::uint32_t v) { storeLe(claim(4), v); }
    void u64(std::uint64_t v) { storeLe(claim(8), v); }
    void b(bool v) { u8(v ? 1 : 0); }

    /** Unsigned LEB128: 1 byte for values < 128, up to 10 for the full
     *  u64 range. The value-memory encoder (sorted address gaps, small
     *  data words) is the intended user — bulk state whose fixed-width
     *  encoding would dominate image size and checkpoint I/O. */
    void
    vu64(std::uint64_t v)
    {
        if (v < 0x80) [[likely]] {
            *claim(1) = static_cast<std::uint8_t>(v);
            return;
        }
        // Longer values: one capacity check, then a tight byte loop.
        ensure(kMaxVarintBytes);
        std::uint8_t *p = buf_.data() + pos_;
        do {
            *p++ = static_cast<std::uint8_t>(v) | 0x80;
            v >>= 7;
        } while (v >= 0x80);
        *p++ = static_cast<std::uint8_t>(v);
        pos_ = static_cast<std::size_t>(p - buf_.data());
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

    /** Bytes written so far, hashed ones included. */
    std::size_t size() const { return hashed_ + pos_; }

    /** Overwrite the u64 written at offset @p at (a count known only
     *  after the elements it counts were written). Panics if a
     *  hashing archive has already hashed that offset. */
    void
    patchU64(std::size_t at, std::uint64_t v)
    {
        if (at < hashed_) [[unlikely]]
            patchHashed(at);
        storeLe(buf_.data() + (at - hashed_), v);
    }

    /**
     * Hashing mode: the bytes written from here on go to @p h, in
     * chunks of at least kHashChunk at io() boundaries; no image is
     * kept, so bytes() and finish() panic. Bytes still buffered for
     * the previous hasher go to it first; hashInto(nullptr) hands over
     * the last ones and ends the pass. Panics on a buffering archive
     * that holds bytes. digestHex() is the usual way in.
     */
    void hashInto(Sha256 *h);

    /** Capacity hint: room for @p n bytes in all, allocated once. */
    void reserve(std::size_t n) { buf_.reserve(n); }

    // ---- archive interface (the writing side of visit) ----

    /** Write @p obj: its visit() field list, or the save() of a
     *  hand-written leaf. visit() only reads its fields when handed a
     *  Ser, which makes the const_cast safe. */
    template <class T>
    void
    io(const T &obj)
    {
        if constexpr (requires(T &t, Ser &s) { t.visit(s); })
            const_cast<T &>(obj).visit(*this);
        else
            obj.save(*this);
        if (hash_ && pos_ >= kHashChunk) [[unlikely]]
            drain();
    }

    /** Configured geometry: written as u32 or u64 by the width of
     *  @p v; the reader rejects any other value. */
    template <class T>
    void
    expect(T v, const char *)
    {
        static_assert(std::is_unsigned_v<T> &&
                      (sizeof(T) == 4 || sizeof(T) == 8));
        if constexpr (sizeof(T) == 4)
            u32(v);
        else
            u64(v);
    }

    /** An enum travels as one byte, range-checked on read. */
    template <class E>
    void
    enumByte(E v, E, const char *)
    {
        static_assert(std::is_enum_v<E>);
        u8(static_cast<std::uint8_t>(v));
    }

    /** A fixed-size table of unsigned integers: its @p n elements at
     *  their own width, one after the other, with no count (the
     *  table's size is configured geometry). The bytes are those of
     *  one u8/u16/u32/u64 call per element. */
    template <class T>
    void
    array(const T *p, std::size_t n, const char *)
    {
        static_assert(std::is_unsigned_v<T>);
        std::uint8_t *out = claim(n * sizeof(T));
        for (std::size_t i = 0; i < n; i++)
            storeLe(out + i * sizeof(T), p[i]);
    }

    /** A container: u64 count, then @p fn on each element in order. A
     *  hash map goes in sorted key order, so images never depend on
     *  the hash-table layout. */
    template <class C, class Fn>
    void
    list(const C &c, const char *, Fn &&fn)
    {
        u64(c.size());
        if constexpr (requires { typename C::hasher; }) {
            std::vector<const typename C::value_type *> sorted;
            sorted.reserve(c.size());
            for (const auto &kv : c)
                sorted.push_back(&kv);
            std::sort(sorted.begin(), sorted.end(),
                      [](const auto *a, const auto *b) {
                          return a->first < b->first;
                      });
            for (const auto *kv : sorted)
                fn(*kv);
        } else {
            for (const auto &e : c)
                fn(e);
        }
    }

    /** Drop the slack (no reallocation): until the next write,
     *  bytes() is exactly the image. Panics on a hashing archive. */
    void
    finish()
    {
        if (hashing()) [[unlikely]]
            imageNotKept("finish()");
        buf_.resize(pos_);
    }

    /** The image: every byte written, and nothing else (finishes the
     *  archive first). */
    const std::vector<std::uint8_t> &
    bytes()
    {
        if (hashing()) [[unlikely]]
            imageNotKept("bytes()");
        finish();
        return buf_;
    }

    /** The image of a finished archive. Read-only, so threads may share
     *  a finished `const Ser`; an unfinished one is a programming error
     *  and panics. */
    const std::vector<std::uint8_t> &
    bytes() const
    {
        if (hashing()) [[unlikely]]
            imageNotKept("bytes() const");
        if (buf_.size() != pos_) [[unlikely]]
            unfinished();
        return buf_;
    }

  private:
    /** Make room for @p n more bytes. */
    void
    ensure(std::size_t n)
    {
        if (buf_.size() - pos_ < n) [[unlikely]]
            grow(n);
    }

    /** Claim the next @p n bytes and return where they start. */
    std::uint8_t *
    claim(std::size_t n)
    {
        ensure(n);
        std::uint8_t *p = buf_.data() + pos_;
        pos_ += n;
        return p;
    }

    /** Hashing now, or hashed bytes earlier: no image is kept. */
    bool hashing() const { return hash_ || hashed_; }

    /** Hand the buffered bytes to the hasher and empty the buffer. */
    void drain();

    void grow(std::size_t n);
    [[noreturn]] void unfinished() const;
    [[noreturn]] void imageNotKept(const char *what) const;
    [[noreturn]] void patchHashed(std::size_t at) const;

    /** [0, pos_) are the bytes from offset hashed_ on; the rest of
     *  buf_ is slack (zero-filled unless a drain reused the buffer). */
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    /** Hashing mode: where the bytes go, and how many went there. */
    Sha256 *hash_ = nullptr;
    std::size_t hashed_ = 0;
};

/**
 * The lowercase hex SHA-256 of what @p write writes into @p s, which
 * it switches to hashing mode for the pass: a digest is "fingerprint
 * bytes, then visit", with no image in between. Reusing one @p s for
 * several digests reuses its buffer.
 */
template <class Fn>
std::string
digestHex(Ser &s, Fn &&write)
{
    Sha256 h;
    s.hashInto(&h);
    write();
    s.hashInto(nullptr);
    return Sha256::hex(h.digest());
}

/** Deserializer over a byte buffer; every read is bounds-checked and
 *  failures throw SnapshotError. Reads are inline, each with one bounds
 *  check; only failures and the rare varint forms leave the header. */
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

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t u16() { return fixed<std::uint16_t>(); }
    std::uint32_t u32() { return fixed<std::uint32_t>(); }
    std::uint64_t u64() { return fixed<std::uint64_t>(); }

    std::uint64_t
    vu64()
    {
        if (pos_ < size_ && data_[pos_] < 0x80) [[likely]]
            return data_[pos_++];
        // Up to nine bytes with no check per byte; ten-byte values,
        // the image's last bytes and malformed varints take the checked
        // path from the first byte again.
        if (size_ - pos_ >= kMaxVarintBytes) {
            std::uint64_t v = 0;
            for (unsigned i = 0; i < kMaxVarintBytes - 1; i++) {
                const std::uint8_t byte = data_[pos_ + i];
                v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
                if (!(byte & 0x80)) {
                    pos_ += i + 1;
                    return v;
                }
            }
        }
        return vu64Checked();
    }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1) [[unlikely]]
            corruptBool(v);
        return v != 0;
    }

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

    // ---- archive interface (the reading side of visit) ----

    static constexpr bool loading = true;

    /** Field reads: one call per scalar, at the width the field was
     *  written with (an int travels as u64, as `Ser` sign-extends it). */
    template <class T> void u8(T &v) { v = field<T>(u8()); }
    template <class T> void u16(T &v) { v = field<T>(u16()); }
    template <class T> void u32(T &v) { v = field<T>(u32()); }
    template <class T> void u64(T &v) { v = field<T>(u64()); }
    void b(bool &v) { v = b(); }
    void f64(double &v) { v = f64(); }

    /** Read @p obj: its visit() field list, or the restore() of a
     *  hand-written leaf. */
    template <class T>
    void
    io(T &obj)
    {
        if constexpr (requires(T &t, Deser &d) { t.visit(d); })
            obj.visit(*this);
        else
            obj.restore(*this);
    }

    /** Read configured geometry and reject an image that disagrees
     *  with @p configured. */
    template <class T>
    void
    expect(T configured, const char *what)
    {
        static_assert(std::is_unsigned_v<T> &&
                      (sizeof(T) == 4 || sizeof(T) == 8));
        const std::uint64_t image = sizeof(T) == 4 ? u32() : u64();
        if (image != configured)
            mismatch(what, image, configured);
    }

    /** Read an enum byte; anything past @p last is a corrupt image. */
    template <class E>
    void
    enumByte(E &v, E last, const char *what)
    {
        static_assert(std::is_enum_v<E>);
        const std::uint8_t raw = u8();
        if (raw > static_cast<std::uint8_t>(last))
            corrupt(what, raw);
        v = static_cast<E>(raw);
    }

    /** Fill the @p n-element table at @p p (see Ser::array): one
     *  bounds check for the whole table, then one load per element. */
    template <class T>
    void
    array(T *p, std::size_t n, const char *what)
    {
        static_assert(std::is_unsigned_v<T>);
        if (remaining() / sizeof(T) < n) [[unlikely]]
            truncatedTable(what, n * sizeof(T));
        const std::uint8_t *in = data_ + pos_;
        for (std::size_t i = 0; i < n; i++)
            p[i] = loadLe<T>(in + i * sizeof(T));
        pos_ += n * sizeof(T);
    }

    /** Read a container count; every element takes at least one byte,
     *  so a count above remaining() is a corrupt image. */
    std::uint64_t count(const char *what);

    /** Replace @p c's contents: count(), then @p fn fills each freshly
     *  constructed element in order. Map keys are filled as the
     *  element's mutable `first`. */
    template <class C, class Fn>
    void
    list(C &c, const char *what, Fn &&fn)
    {
        const std::uint64_t n = count(what);
        c.clear();
        for (std::uint64_t i = 0; i < n; i++) {
            Elem<C> e{};
            fn(e);
            c.insert(c.end(), std::move(e));
        }
    }

  private:
    template <class C>
    struct ElemOf
    {
        using type = typename C::value_type;
    };
    template <class C>
        requires requires { typename C::mapped_type; }
    struct ElemOf<C>
    {
        using type = std::pair<typename C::key_type,
                               typename C::mapped_type>;
    };
    template <class C> using Elem = typename ElemOf<C>::type;

    template <class T>
    static T
    field(std::uint64_t v)
    {
        static_assert(std::is_integral_v<T>,
                      "enums travel through enumByte");
        return static_cast<T>(v);
    }

    template <class T>
    T
    fixed()
    {
        need(sizeof(T));
        const T v = loadLe<T>(data_ + pos_);
        pos_ += sizeof(T);
        return v;
    }

    void
    need(std::size_t n) const
    {
        if (size_ - pos_ < n) [[unlikely]]
            truncated(n);
    }

    /** vu64() one checked byte at a time (every failure is named). */
    std::uint64_t vu64Checked();

    [[noreturn]] void truncated(std::size_t n) const;
    [[noreturn]] void truncatedTable(const char *what, std::size_t n) const;
    [[noreturn]] static void corruptBool(unsigned raw);
    [[noreturn]] static void mismatch(const char *what, std::uint64_t image,
                                      std::uint64_t configured);
    [[noreturn]] static void corrupt(const char *what, unsigned raw);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** A 64-bit key and the word that travels with it (a line and its
 *  table slot, an address and its value). */
using KeyedWord = std::pair<std::uint64_t, std::uint64_t>;

/**
 * Sort @p v, whose keys are unique, into ascending key order: the
 * order std::sort gives, by an LSD radix sort over the key bytes that
 * differ between keys (a byte every key shares costs no pass). The
 * directory and value-memory saves write their entries in this order.
 */
void sortByKey(std::vector<KeyedWord> &v);

/** `io` on a Msg under its older name: hand-built directory images in
 *  the tests spell their records with these. */
void saveMsg(Ser &s, const Msg &m);
void restoreMsg(Deser &d, Msg &m);

/** Throw unless @p head, @p tail and @p count describe a ring of
 *  @p capacity slots. */
void checkRing(const char *what, unsigned capacity, unsigned head,
               unsigned tail, unsigned count);

/**
 * The index fields of a circular FIFO (LQ, SQ, AQ): configured
 * capacity (@p what names it), then head, tail and occupancy. Restore
 * rejects indices outside the ring and an occupancy that disagrees
 * with them.
 */
template <class Ar>
void
visitRing(Ar &ar, const char *what, unsigned capacity, unsigned &head,
          unsigned &tail, unsigned &count)
{
    ar.expect(capacity, what);
    ar.u32(head);
    ar.u32(tail);
    ar.u32(count);
    if constexpr (Ar::loading)
        checkRing(what, capacity, head, tail, count);
}

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
 * Write one checkpoint file: magic, format version, @p fingerprint,
 * payload length, payload, SHA-256(payload). The file is written to a
 * temporary name and atomically renamed, so a reader never sees a
 * partial image.
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
