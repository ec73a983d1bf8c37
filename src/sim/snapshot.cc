#include "sim/snapshot.hh"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

#include "common/config.hh"
#include "common/io.hh"
#include "common/log.hh"
#include "common/sha256.hh"
#include "net/message.hh"
#include "sim/faults.hh"

namespace rowsim
{

namespace
{

/** File magic: "ROWSNAP\0". */
constexpr std::uint8_t kMagic[8] = {'R', 'O', 'W', 'S', 'N', 'A', 'P', 0};

/** Limit one string/section read to something sane so a corrupted length
 *  field fails fast instead of attempting a huge allocation. Sized to
 *  admit a full captured statsJson (result-store entries embed one; a
 *  32-core interval-sampled dump runs to tens of MB). */
constexpr std::uint64_t kMaxString = 1u << 26;

} // namespace

void
Ser::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Ser::str(const std::string &s)
{
    u64(s.size());
    raw(s.data(), s.size());
}

void
Ser::raw(const void *data, std::size_t len)
{
    if (len)
        std::memcpy(claim(len), data, len);
}

void
Ser::section(const char *tag)
{
    u8(0xA5);
    str(tag);
}

void
Ser::grow(std::size_t n)
{
    // Zero-fill one step past the request: as many bytes as are
    // written, between 256 B and 64 KiB, so a small archive stays small
    // and a large one is not zeroed far beyond its end. Capacity grows
    // in powers of two, as appending byte by byte would.
    const std::size_t step =
        std::clamp<std::size_t>(pos_, 256, std::size_t{1} << 16);
    const std::size_t want = pos_ + std::max(n, step);
    if (want > buf_.capacity())
        buf_.reserve(std::bit_ceil(want));
    buf_.resize(want);
}

void
Ser::hashInto(Sha256 *h)
{
    if (hash_)
        drain();
    else if (pos_)
        ROWSIM_PANIC("Ser::hashInto on a buffering archive holding %zu "
                     "bytes: hash from the first byte",
                     pos_);
    hash_ = h;
}

void
Ser::drain()
{
    hash_->update(buf_.data(), pos_);
    hashed_ += pos_;
    pos_ = 0;
}

void
Ser::imageNotKept(const char *what) const
{
    ROWSIM_PANIC("Ser::%s on a hashing archive: its image is not kept "
                 "(%zu bytes hashed)",
                 what, hashed_);
}

void
Ser::patchHashed(std::size_t at) const
{
    ROWSIM_PANIC("Ser::patchU64 at offset %zu on a hashing archive: the "
                 "bytes before %zu are already hashed",
                 at, hashed_);
}

void
Ser::unfinished() const
{
    ROWSIM_PANIC("Ser::bytes() const on an unfinished archive (%zu bytes "
                 "written, %zu buffered): call finish() first",
                 pos_, buf_.size());
}

void
Deser::truncated(std::size_t n) const
{
    throw SnapshotError(
        strprintf("truncated image: need %zu bytes at offset %zu, "
                  "only %zu remain",
                  n, pos_, size_ - pos_));
}

void
Deser::truncatedTable(const char *what, std::size_t n) const
{
    throw SnapshotError(
        strprintf("truncated image: %s needs %zu bytes at offset %zu, "
                  "only %zu remain",
                  what, n, pos_, size_ - pos_));
}

std::uint64_t
Deser::vu64Checked()
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        need(1);
        const std::uint8_t byte = data_[pos_++];
        if (shift == 63 && byte > 1)
            throw SnapshotError("varint overflows 64 bits");
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
    }
    throw SnapshotError("varint longer than 10 bytes");
}

void
Deser::corruptBool(unsigned raw)
{
    throw SnapshotError(strprintf("corrupted bool value %u", raw));
}

double
Deser::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Deser::str()
{
    const std::uint64_t n = u64();
    if (n > kMaxString)
        throw SnapshotError(
            strprintf("corrupted string length %llu",
                      static_cast<unsigned long long>(n)));
    need(static_cast<std::size_t>(n));
    std::string s(reinterpret_cast<const char *>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
}

void
Deser::section(const char *tag)
{
    const std::uint8_t marker = u8();
    if (marker != 0xA5) {
        throw SnapshotError(
            strprintf("section marker for '%s' missing (stream out of "
                      "sync at offset %zu)",
                      tag, pos_ - 1));
    }
    const std::string found = str();
    if (found != tag) {
        throw SnapshotError(strprintf(
            "section mismatch: expected '%s', found '%s'", tag,
            found.c_str()));
    }
}

void
Deser::expectEnd() const
{
    if (pos_ != size_) {
        throw SnapshotError(
            strprintf("%zu trailing bytes after restore", size_ - pos_));
    }
}

std::uint64_t
Deser::count(const char *what)
{
    const std::uint64_t n = u64();
    if (n > remaining()) {
        throw SnapshotError(strprintf(
            "corrupted %s count %llu: only %zu bytes remain", what,
            static_cast<unsigned long long>(n), remaining()));
    }
    return n;
}

void
Deser::mismatch(const char *what, std::uint64_t image,
                std::uint64_t configured)
{
    throw SnapshotError(strprintf(
        "%s mismatch: image %llu, configured %llu", what,
        static_cast<unsigned long long>(image),
        static_cast<unsigned long long>(configured)));
}

void
Deser::corrupt(const char *what, unsigned raw)
{
    throw SnapshotError(strprintf("corrupted %s byte %u", what, raw));
}

void
Deser::unorderedKey(const char *what, std::uint64_t key)
{
    throw SnapshotError(strprintf("%s key %#llx out of order", what,
                                  static_cast<unsigned long long>(key)));
}

void
sortByKey(std::vector<KeyedWord> &v)
{
    const std::size_t n = v.size();
    if (n == 0)
        return;
    // One counting pass for all eight key bytes.
    std::array<std::array<std::size_t, 256>, 8> at{};
    for (const KeyedWord &e : v) {
        for (unsigned b = 0; b < 8; b++)
            at[b][(e.first >> (8 * b)) & 0xff]++;
    }
    std::vector<KeyedWord> scratch(n);
    KeyedWord *src = v.data();
    KeyedWord *dst = scratch.data();
    for (unsigned b = 0; b < 8; b++) {
        std::array<std::size_t, 256> &pos = at[b];
        if (pos[(src[0].first >> (8 * b)) & 0xff] == n)
            continue; // every key has this byte: the pass keeps the order
        std::size_t sum = 0;
        for (std::size_t &c : pos) {
            const std::size_t here = c;
            c = sum;
            sum += here;
        }
        for (std::size_t i = 0; i < n; i++)
            dst[pos[(src[i].first >> (8 * b)) & 0xff]++] = src[i];
        std::swap(src, dst);
    }
    if (src != v.data())
        v.swap(scratch);
}

void
saveMsg(Ser &s, const Msg &m)
{
    s.io(m);
}

void
restoreMsg(Deser &d, Msg &m)
{
    d.io(m);
}

void
checkRing(const char *what, unsigned capacity, unsigned head,
          unsigned tail, unsigned count)
{
    if (head >= capacity || tail >= capacity || count > capacity ||
        (head + count) % capacity != tail) {
        throw SnapshotError(strprintf(
            "%s ring out of range: head %u, tail %u, count %u", what,
            head, tail, count));
    }
}

std::uint64_t
configFingerprint(const SystemParams &params, std::uint32_t fault_mask,
                  std::uint64_t fault_seed, std::uint32_t fault_rate)
{
    // Serialize every numeric architectural parameter and hash the
    // bytes. Observability knobs (tracing, interval stats, profiling,
    // checker cadence) are deliberately excluded: they never change
    // simulated behaviour, so images stay interchangeable across them.
    Ser s;
    const CoreParams &cp = params.core;
    const RowConfig &rc = cp.row;
    const MemParams &mp = params.mem;
    s.u32(params.numCores);
    s.u64(params.seed);
    s.u64(params.deadlockCycles);
    s.u32(cp.fetchWidth);
    s.u32(cp.issueWidth);
    s.u32(cp.commitWidth);
    s.u32(cp.robEntries);
    s.u32(cp.lqEntries);
    s.u32(cp.sbEntries);
    s.u32(cp.aqEntries);
    s.u32(cp.iqEntries);
    s.u32(cp.mispredictPenalty);
    s.u32(cp.atomicReissueDelay);
    s.b(cp.storeToLoadForwarding);
    s.b(cp.forwardToAtomics);
    s.u8(static_cast<std::uint8_t>(cp.atomicPolicy));
    s.u8(static_cast<std::uint8_t>(rc.detector));
    s.u8(static_cast<std::uint8_t>(rc.update));
    s.u32(rc.predictorEntries);
    s.u32(rc.counterBits);
    s.u64(rc.latencyThreshold);
    s.u32(rc.timestampBits);
    s.b(rc.localityPromotion);
    s.u32(mp.l1Sets);
    s.u32(mp.l1Ways);
    s.u64(mp.l1HitLatency);
    s.u32(mp.l2Sets);
    s.u32(mp.l2Ways);
    s.u64(mp.l2HitLatency);
    s.u32(mp.l3SetsPerBank);
    s.u32(mp.l3Ways);
    s.u64(mp.l3HitLatency);
    s.u64(mp.memoryLatency);
    s.u32(mp.mshrs);
    s.b(mp.prefetcher);
    s.u64(mp.lockStealThreshold);
    s.u64(params.net.hopLatency);
    // Fault injection changes the architectural trajectory, so its
    // whole setup is part of the fingerprint.
    s.b(fault_mask != 0);
    if (fault_mask != 0) {
        s.u32(fault_mask);
        s.u64(fault_seed);
        s.u32(fault_rate);
    }
    Sha256 h;
    h.update(s.bytes().data(), s.bytes().size());
    const auto digest = h.digest();
    std::uint64_t fp = 0;
    for (int i = 7; i >= 0; i--)
        fp = (fp << 8) | digest[static_cast<std::size_t>(i)];
    return fp;
}

void
writeSnapshotFile(const std::string &path,
                  const std::vector<std::uint8_t> &payload,
                  std::uint64_t fingerprint)
{
    Ser file;
    for (std::uint8_t c : kMagic)
        file.u8(c);
    file.u32(snapshotFormatVersion);
    file.u64(fingerprint);
    file.u64(payload.size());
    file.raw(payload.data(), payload.size());

    Sha256 hasher;
    hasher.update(payload.data(), payload.size());
    const auto trailer = hasher.digest();
    file.raw(trailer.data(), trailer.size());

    // Tmp+rename via the shared helper: readers only ever observe
    // complete images.
    try {
        atomicWriteFile(path, file.bytes());
    } catch (const IoError &e) {
        throw SnapshotError(e.what());
    }
}

std::vector<std::uint8_t>
readSnapshotFile(const std::string &path, std::uint64_t expect_fingerprint)
{
    std::vector<std::uint8_t> raw;
    if (!readFileBytes(path, raw))
        throw SnapshotError(strprintf("cannot open '%s'", path.c_str()));

    Deser d(raw.data(), raw.size());
    std::uint8_t magic[8];
    for (auto &c : magic)
        c = d.u8();
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw SnapshotError(
            strprintf("'%s' is not a rowsim snapshot (bad magic)",
                      path.c_str()));
    const std::uint32_t version = d.u32();
    if (version != snapshotFormatVersion) {
        throw SnapshotError(strprintf(
            "'%s' has snapshot format version %u; this build reads only "
            "version %u",
            path.c_str(), version, snapshotFormatVersion));
    }
    const std::uint64_t fingerprint = d.u64();
    if (fingerprint != expect_fingerprint) {
        throw SnapshotError(strprintf(
            "'%s' was produced under a different configuration "
            "(fingerprint %016llx, expected %016llx)",
            path.c_str(), static_cast<unsigned long long>(fingerprint),
            static_cast<unsigned long long>(expect_fingerprint)));
    }
    const std::uint64_t payloadLen = d.u64();
    constexpr std::size_t headerBytes = 8 + 4 + 8 + 8;
    constexpr std::size_t trailerBytes = 32;
    if (raw.size() < headerBytes + trailerBytes ||
        payloadLen != raw.size() - headerBytes - trailerBytes) {
        throw SnapshotError(strprintf(
            "'%s' is truncated (payload %llu bytes, file holds %zu)",
            path.c_str(), static_cast<unsigned long long>(payloadLen),
            raw.size()));
    }

    Sha256 hasher;
    hasher.update(raw.data() + headerBytes,
                  static_cast<std::size_t>(payloadLen));
    const auto want = hasher.digest();
    if (std::memcmp(want.data(), raw.data() + headerBytes + payloadLen,
                    trailerBytes) != 0) {
        throw SnapshotError(strprintf(
            "'%s' is corrupted (payload digest mismatch)", path.c_str()));
    }

    return std::vector<std::uint8_t>(
        raw.begin() + headerBytes,
        raw.begin() + static_cast<std::ptrdiff_t>(headerBytes + payloadLen));
}

} // namespace rowsim
