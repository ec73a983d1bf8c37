/**
 * @file
 * The archive primitives byte for byte: what `Ser` writes for every
 * field kind (fixed-width integers, LEB128 varints, doubles, strings,
 * section markers, lists and fixed tables), that `Deser` reads the same
 * values back on its inline and its checked paths, and that it rejects
 * short and malformed input by name. Every component image is a
 * sequence of these primitives, so pinning them pins the encoding of
 * every image. Truncated images of real Systems (functional warm-up and
 * mid-flight detail) must fail with a named SnapshotError at every
 * length. A hashing archive digests exactly the bytes a buffering one
 * keeps, and refuses by name what it cannot do without the image.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/sha256.hh"
#include "mem/addr_table.hh"
#include "mem/cache_array.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

using Bytes = std::vector<std::uint8_t>;

/** The bytes @p fn writes into a fresh Ser. */
template <class Fn>
Bytes
bytesOf(Fn &&fn)
{
    Ser s;
    fn(s);
    return s.bytes();
}

/** The message of the SnapshotError @p fn throws ("" if none). */
template <class Fn>
std::string
errorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const SnapshotError &e) {
        return e.what();
    }
    return "";
}

/** @p fn, reading from @p image, throws a SnapshotError naming
 *  @p name. */
template <class Fn>
void
expectNamedError(const Bytes &image, const std::string &name, Fn &&fn)
{
    const std::string err = errorOf([&] {
        Deser d(image);
        fn(d);
    });
    EXPECT_NE(err.find(name), std::string::npos)
        << "expected '" << name << "', got '" << err << "'";
}

/** The LEB128 bytes of @p v (the reference encoding). */
Bytes
leb128(std::uint64_t v)
{
    Bytes b;
    while (v >= 0x80) {
        b.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    b.push_back(static_cast<std::uint8_t>(v));
    return b;
}

} // namespace

TEST(Archive, FixedWidthFieldsAreLittleEndian)
{
    EXPECT_EQ(bytesOf([](Ser &s) { s.u8(0xab); }), (Bytes{0xab}));
    EXPECT_EQ(bytesOf([](Ser &s) { s.u16(0x1234); }), (Bytes{0x34, 0x12}));
    EXPECT_EQ(bytesOf([](Ser &s) { s.u32(0x12345678); }),
              (Bytes{0x78, 0x56, 0x34, 0x12}));
    EXPECT_EQ(bytesOf([](Ser &s) { s.u64(0x0123456789abcdefULL); }),
              (Bytes{0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01}));
    EXPECT_EQ(bytesOf([](Ser &s) {
                  s.b(true);
                  s.b(false);
              }),
              (Bytes{0x01, 0x00}));
    // 1.5 = 0x3ff8000000000000; -0.0 keeps its sign bit.
    EXPECT_EQ(bytesOf([](Ser &s) { s.f64(1.5); }),
              (Bytes{0, 0, 0, 0, 0, 0, 0xf8, 0x3f}));
    EXPECT_EQ(bytesOf([](Ser &s) { s.f64(-0.0); }),
              (Bytes{0, 0, 0, 0, 0, 0, 0, 0x80}));

    const Bytes all = bytesOf([](Ser &s) {
        s.u8(0xab);
        s.u16(0x1234);
        s.u32(0x12345678);
        s.u64(0x0123456789abcdefULL);
        s.b(true);
        s.f64(-2.25);
    });
    Deser d(all);
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u16(), 0x1234);
    EXPECT_EQ(d.u32(), 0x12345678u);
    EXPECT_EQ(d.u64(), 0x0123456789abcdefULL);
    EXPECT_TRUE(d.b());
    EXPECT_EQ(d.f64(), -2.25);
    EXPECT_TRUE(d.atEnd());
}

TEST(Archive, VarintsAreLeb128)
{
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(bytesOf([](Ser &s) { s.vu64(0); }), (Bytes{0x00}));
    EXPECT_EQ(bytesOf([](Ser &s) { s.vu64(0x7f); }), (Bytes{0x7f}));
    EXPECT_EQ(bytesOf([](Ser &s) { s.vu64(0x80); }), (Bytes{0x80, 0x01}));
    EXPECT_EQ(bytesOf([](Ser &s) { s.vu64(std::uint64_t{1} << 63); }),
              (Bytes{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                     0x01}));
    EXPECT_EQ(bytesOf([&](Ser &s) { s.vu64(max); }),
              (Bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                     0x01}));

    // Every length from 1 to 10 bytes, against the reference encoding,
    // read back both at the end of the buffer (the checked path) and
    // with bytes to spare (the inline path).
    std::vector<std::uint64_t> values = {0, 1, 0x7f, 0x80, 0x3fff, 0x4000,
                                         max};
    for (unsigned bits = 7; bits < 64; bits += 7) {
        values.push_back((std::uint64_t{1} << bits) - 1);
        values.push_back(std::uint64_t{1} << bits);
    }
    for (std::uint64_t v : values) {
        SCOPED_TRACE(v);
        const Bytes enc = bytesOf([&](Ser &s) { s.vu64(v); });
        EXPECT_EQ(enc, leb128(v));
        Deser tight(enc);
        EXPECT_EQ(tight.vu64(), v);
        EXPECT_TRUE(tight.atEnd());
        Bytes padded = enc;
        padded.resize(enc.size() + 16, 0x5a);
        Deser loose(padded);
        EXPECT_EQ(loose.vu64(), v);
        EXPECT_EQ(loose.remaining(), 16u);
    }
}

TEST(Archive, StringsSectionsListsAndTables)
{
    EXPECT_EQ(bytesOf([](Ser &s) { s.str("ab"); }),
              (Bytes{2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'}));
    EXPECT_EQ(bytesOf([](Ser &s) { s.section("x"); }),
              (Bytes{0xa5, 1, 0, 0, 0, 0, 0, 0, 0, 'x'}));

    // A list is a u64 count and its elements; an address table goes
    // in key order.
    const std::vector<std::uint32_t> v = {1, 0x01020304};
    EXPECT_EQ(bytesOf([&](Ser &s) {
                  s.list(v, "v", [&](std::uint32_t e) { s.u32(e); });
              }),
              (Bytes{2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4, 3, 2, 1}));
    AddrTable<std::uint8_t, 0> m;
    m[300] = 3;
    m[1] = 1;
    m[20] = 2;
    EXPECT_EQ(bytesOf([&](Ser &s) {
                  s.table(m, "m", [&](const auto &key, const auto &value) {
                      s.vu64(key);
                      s.u8(value);
                  });
              }),
              (Bytes{3, 0, 0, 0, 0, 0, 0, 0, 1, 1, 20, 2, 0xac, 0x02, 3}));

    // A table is its elements at their width, with no count: the same
    // bytes as one call per element.
    const std::uint8_t t8[3] = {1, 2, 0xff};
    const std::uint16_t t16[2] = {0x0102, 0xfffe};
    const std::uint32_t t32[2] = {1, 0x01020304};
    const std::uint64_t t64[2] = {0x0102030405060708ULL, 9};
    const Bytes tables = bytesOf([&](Ser &s) {
        s.array(t8, 3, "t8");
        s.array(t16, 2, "t16");
        s.array(t32, 2, "t32");
        s.array(t64, 2, "t64");
    });
    EXPECT_EQ(tables, (Bytes{1, 2, 0xff,                  // t8
                             2, 1, 0xfe, 0xff,            // t16
                             1, 0, 0, 0, 4, 3, 2, 1,      // t32
                             8, 7, 6, 5, 4, 3, 2, 1,      // t64[0]
                             9, 0, 0, 0, 0, 0, 0, 0}));   // t64[1]
    EXPECT_EQ(tables, bytesOf([&](Ser &s) {
                  for (std::uint8_t e : t8)
                      s.u8(e);
                  for (std::uint16_t e : t16)
                      s.u16(e);
                  for (std::uint32_t e : t32)
                      s.u32(e);
                  for (std::uint64_t e : t64)
                      s.u64(e);
              }));
    std::uint8_t r8[3];
    std::uint16_t r16[2];
    std::uint32_t r32[2];
    std::uint64_t r64[2];
    Deser d(tables);
    d.array(r8, 3, "t8");
    d.array(r16, 2, "t16");
    d.array(r32, 2, "t32");
    d.array(r64, 2, "t64");
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(Bytes(r8, r8 + 3), Bytes(t8, t8 + 3));
    EXPECT_EQ(r16[1], t16[1]);
    EXPECT_EQ(r32[1], t32[1]);
    EXPECT_EQ(r64[0], t64[0]);

    // A count written as a placeholder and patched later.
    EXPECT_EQ(bytesOf([](Ser &s) {
                  s.u8(7);
                  const std::size_t at = s.size();
                  s.u64(0);
                  s.vu64(0x80);
                  s.patchU64(at, 0x0102);
              }),
              (Bytes{7, 2, 1, 0, 0, 0, 0, 0, 0, 0x80, 0x01}));
}

TEST(Archive, FinishedArchivesAreReadOnly)
{
    // A non-const Ser finishes itself on bytes(); a const one is read
    // only, and must have been finished.
    Ser s;
    s.u32(0x01020304);
    EXPECT_THROW(std::as_const(s).bytes(), std::logic_error);
    s.finish();
    EXPECT_EQ(std::as_const(s).bytes(), (Bytes{4, 3, 2, 1}));
    // Writing after finish() reopens the archive.
    s.u8(5);
    EXPECT_THROW(std::as_const(s).bytes(), std::logic_error);
    EXPECT_EQ(s.bytes(), (Bytes{4, 3, 2, 1, 5}));
    EXPECT_EQ(std::as_const(s).bytes(), (Bytes{4, 3, 2, 1, 5}));
}

namespace
{

/** A component of @p n bytes, written one field at a time. */
struct Blob
{
    std::size_t n;
    std::uint8_t seed;

    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.section("blob");
        for (std::size_t i = 0; i < n / 8; i++)
            ar.u64(i * 0x9e3779b97f4a7c15ull + seed);
        for (std::size_t i = 0; i < n % 8; i++)
            ar.u8(static_cast<std::uint8_t>(seed + i));
    }
};

/** Components inside components: every io() below is a drain point. */
struct Nest
{
    std::vector<Blob> kids;
    const CacheArray *array;

    template <class Ar>
    void
    visit(Ar &ar)
    {
        ar.section("nest");
        ar.list(kids, "kids", [&](const Blob &b) { ar.io(b); });
        ar.io(*array);
        ar.io(kids.back());
    }
};

/** A 4096x4 array with every line valid: about 200 KiB of image. */
CacheArray
fullArray()
{
    CacheArray a(4096, 4);
    Cycle now = Cycle{1} << 40; // six-byte LRU varints
    for (Addr tag = 1000; tag < 1004; tag++) {
        for (Addr set = 0; set < a.sets(); set++) {
            const Addr line = (tag * a.sets() + set) << 6;
            now++;
            a.fill(a.victim(line, nullptr, now), line,
                   CacheState::Modified, now);
        }
    }
    return a;
}

/** Run @p fn and turn its panic into a death (panics throw). */
template <class Fn>
void
dieOnPanic(Fn &&fn)
{
    try {
        fn();
    } catch (const std::logic_error &) {
        std::abort();
    }
}

} // namespace

TEST(Archive, HashingArchiveHashesTheSameBytes)
{
    const CacheArray array = fullArray();
    const Nest nest{{{70000, 1}, {3, 2}, {150001, 3}, {64 * 1024, 4}},
                    &array};
    // Each writer crosses the drain threshold several times: a
    // component larger than a chunk, a cache array whose count is
    // patched after 200 KiB of lines, and nested io() calls.
    const std::vector<std::function<void(Ser &)>> writers = {
        [](Ser &s) { s.io(Blob{200000, 9}); },
        [&](Ser &s) {
            s.u64(0x0123456789abcdefull);
            s.io(Blob{100000, 5});
            s.io(array);
            s.io(Blob{10, 6});
            s.io(array);
        },
        [&](Ser &s) {
            s.io(nest);
            s.str(std::string(300000, 'x'));
            s.io(nest);
        },
        [](Ser &s) { s.u8(7); },
        [](Ser &) {},
    };
    Ser reused;
    for (std::size_t k = 0; k < writers.size(); k++) {
        Ser buffered;
        writers[k](buffered);
        const Bytes &image = buffered.bytes();
        const std::string want = Sha256::hashHex(image.data(), image.size());

        Ser fresh;
        std::size_t written = 0;
        EXPECT_EQ(digestHex(fresh,
                            [&] {
                                writers[k](fresh);
                                written = fresh.size();
                            }),
                  want)
            << "writer " << k;
        // Offsets stay absolute: size() counts the hashed bytes too.
        EXPECT_EQ(written, image.size()) << "writer " << k;
        // One archive, one digest after another, one buffer.
        EXPECT_EQ(digestHex(reused, [&] { writers[k](reused); }), want)
            << "writer " << k;
    }
}

TEST(Archive, HashingArchiveRefusesWhatNeedsTheImage)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // After a component larger than a chunk, its bytes are hashed and
    // gone: patching them cannot be honoured.
    EXPECT_DEATH(dieOnPanic([] {
                     Sha256 h;
                     Ser s;
                     s.hashInto(&h);
                     s.u64(0);
                     s.io(Blob{Ser::kHashChunk, 1});
                     s.patchU64(0, 1);
                 }),
                 "Ser::patchU64 at offset 0 on a hashing archive: the "
                 "bytes before [0-9]+ are already hashed");
    EXPECT_DEATH(dieOnPanic([] {
                     Sha256 h;
                     Ser s;
                     s.hashInto(&h);
                     s.u8(1);
                     s.bytes();
                 }),
                 "Ser::bytes\\(\\) on a hashing archive: its image is not "
                 "kept");
    EXPECT_DEATH(dieOnPanic([] {
                     Ser s;
                     digestHex(s, [&] { s.io(Blob{100000, 1}); });
                     std::as_const(s).bytes();
                 }),
                 "Ser::bytes\\(\\) const on a hashing archive");
    EXPECT_DEATH(dieOnPanic([] {
                     Sha256 h;
                     Ser s;
                     s.hashInto(&h);
                     s.finish();
                 }),
                 "Ser::finish\\(\\) on a hashing archive");
    EXPECT_DEATH(dieOnPanic([] {
                     Sha256 h;
                     Ser s;
                     s.u8(1);
                     s.hashInto(&h);
                 }),
                 "Ser::hashInto on a buffering archive holding 1 bytes");
}

TEST(Archive, SortByKeyOrdersLikeStdSort)
{
    // Unique keys at sizes from empty to several thousand: keys with no
    // byte in common, and keys that share their high bytes (the shape
    // of line and word addresses). Random values show that each word
    // travels with its key.
    std::mt19937_64 rng(29);
    const std::uint64_t highs[] = {0, 0x7fff'0000'0000ULL,
                                   0xffff'ffff'ff00'0000ULL};
    for (std::size_t n : {0, 1, 2, 3, 17, 255, 256, 257, 1000, 4099}) {
        SCOPED_TRACE(n);
        for (int shape = -1; shape < 3; shape++) {
            std::set<std::uint64_t> keys;
            while (keys.size() < n)
                keys.insert(shape < 0 ? rng()
                                      : highs[shape] | (rng() & 0xf'ffff));
            std::vector<KeyedWord> v;
            for (std::uint64_t k : keys)
                v.emplace_back(k, rng());
            std::shuffle(v.begin(), v.end(), rng);
            std::vector<KeyedWord> expected = v;
            std::sort(expected.begin(), expected.end());
            sortByKey(v);
            EXPECT_EQ(v, expected);
        }
    }
}

TEST(Archive, ShortAndMalformedInputIsRejectedByName)
{
    // Every primitive, one byte short.
    const auto oneShort = [](auto &&write) {
        Bytes b = bytesOf(write);
        b.pop_back();
        return b;
    };
    const std::string trunc = "truncated image";
    expectNamedError(Bytes{}, trunc, [](Deser &d) { d.u8(); });
    expectNamedError(Bytes{}, trunc, [](Deser &d) { d.b(); });
    expectNamedError(oneShort([](Ser &s) { s.u16(1); }), trunc,
                     [](Deser &d) { d.u16(); });
    expectNamedError(oneShort([](Ser &s) { s.u32(1); }), trunc,
                     [](Deser &d) { d.u32(); });
    expectNamedError(oneShort([](Ser &s) { s.u64(1); }), trunc,
                     [](Deser &d) { d.u64(); });
    expectNamedError(oneShort([](Ser &s) { s.f64(1.0); }), trunc,
                     [](Deser &d) { d.f64(); });
    expectNamedError(oneShort([](Ser &s) { s.vu64(1u << 20); }), trunc,
                     [](Deser &d) { d.vu64(); });
    expectNamedError(oneShort([](Ser &s) { s.vu64(~std::uint64_t{0}); }),
                     trunc, [](Deser &d) { d.vu64(); });
    expectNamedError(oneShort([](Ser &s) { s.str("abc"); }), trunc,
                     [](Deser &d) { d.str(); });
    expectNamedError(oneShort([](Ser &s) { s.section("abc"); }), trunc,
                     [](Deser &d) { d.section("abc"); });
    const std::uint32_t t[2] = {1, 2};
    expectNamedError(oneShort([&](Ser &s) { s.array(t, 2, "t"); }),
                     "truncated image: t needs 8 bytes",
                     [](Deser &d) {
                         std::uint32_t r[2];
                         d.array(r, 2, "t");
                     });

    // Malformed varints: eleven bytes, and ten whose last byte carries
    // bits past the 64th; with and without bytes after them.
    Bytes eleven(10, 0x80);
    eleven.push_back(0x00);
    Bytes over(9, 0xff);
    over.push_back(0x02);
    for (const Bytes &bad : {eleven, over}) {
        expectNamedError(bad, "varint overflows 64 bits",
                         [](Deser &d) { d.vu64(); });
        Bytes padded = bad;
        padded.resize(bad.size() + 16, 0);
        expectNamedError(padded, "varint overflows 64 bits",
                         [](Deser &d) { d.vu64(); });
    }

    // Other named rejections of the primitives.
    expectNamedError(Bytes{2}, "corrupted bool value 2",
                     [](Deser &d) { d.b(); });
    expectNamedError(bytesOf([](Ser &s) { s.section("abc"); }),
                     "section mismatch", [](Deser &d) { d.section("abd"); });
    expectNamedError(bytesOf([](Ser &s) { s.u64(9); }), "corrupted v count",
                     [](Deser &d) { d.count("v"); });
}

namespace
{

/** Offsets of every section marker in @p img (and of the byte after
 *  it): a 0xA5 byte, a u64 length, then that many name characters. */
std::set<std::size_t>
markerCuts(const Bytes &img)
{
    std::set<std::size_t> cuts;
    for (std::size_t i = 0; i + 9 < img.size(); i++) {
        if (img[i] != 0xa5)
            continue;
        Deser d(img.data() + i + 1, img.size() - i - 1);
        const std::uint64_t len = d.u64();
        if (len == 0 || len > 32 || len > d.remaining())
            continue;
        bool name = true;
        for (std::size_t k = 0; k < len; k++) {
            const char c = static_cast<char>(img[i + 9 + k]);
            name = name && (std::isalnum(static_cast<unsigned char>(c)) ||
                            c == '_' || c == '.');
        }
        if (name) {
            cuts.insert(i);
            cuts.insert(i + 9 + len);
        }
    }
    return cuts;
}

std::unique_ptr<System>
eightCores()
{
    constexpr unsigned cores = 8;
    return std::make_unique<System>(
        makeParams(lazyConfig(), cores, 3),
        makeStreams(profileFor("tatp"), cores, 3));
}

/** Restoring any proper prefix of @p img into a fresh System fails
 *  with a SnapshotError, and the whole image restores. */
void
expectEveryPrefixRejected(const Bytes &img, const std::string &what)
{
    SCOPED_TRACE(what);
    {
        auto sys = eightCores();
        Deser d(img);
        ASSERT_NO_THROW(sys->restore(d));
    }
    std::set<std::size_t> cuts = markerCuts(img);
    const std::size_t markers = cuts.size();
    EXPECT_GT(markers, 100u);
    std::mt19937_64 rng(17);
    for (unsigned k = 0; k < 1500; k++)
        cuts.insert(std::uniform_int_distribution<std::size_t>(
            0, img.size() - 1)(rng));
    for (const std::size_t cut : cuts) {
        if (cut >= img.size())
            continue;
        // The prefix in a buffer of its own: a read past its end is
        // out of bounds for the address sanitizer too.
        const Bytes prefix(img.begin(),
                           img.begin() + static_cast<std::ptrdiff_t>(cut));
        auto sys = eightCores();
        Deser d(prefix.data(), prefix.size());
        try {
            sys->restore(d);
            ADD_FAILURE() << "prefix of " << cut << " bytes restored";
        } catch (const SnapshotError &) {
        } catch (const std::exception &e) {
            ADD_FAILURE() << "prefix of " << cut << " bytes threw "
                          << e.what() << " instead of a SnapshotError";
        }
    }
}

} // namespace

TEST(Archive, TruncatedSystemImagesFailByName)
{
    // A functional warm-up image: quiescent directory records and the
    // delta-varint value memory.
    auto warm = eightCores();
    warm->runFunctional(40, 20);
    Ser warmImage;
    warm->save(warmImage);
    expectEveryPrefixRejected(warmImage.bytes(), "functional warm-up");

    // A mid-flight detail image: full transaction records, queued
    // requests, in-flight messages and MSHRs.
    auto live = eightCores();
    live->runWarmup(12, 6);
    Ser liveImage;
    live->save(liveImage);
    expectEveryPrefixRejected(liveImage.bytes(), "mid-flight detail");
}
