/**
 * @file
 * Unit tests for common infrastructure: address helpers, logging,
 * micro-op classification, configuration defaults (Table I), and the
 * JSON reader every report path parses the simulator's sinks with.
 */

#include <gtest/gtest.h>

#include <climits>
#include <stdexcept>
#include <string>

#include "common/config.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "cpu/microop.hh"
#include "sim/microbench.hh"

using namespace rowsim;

TEST(AddressHelpers, LineAlignment)
{
    EXPECT_EQ(lineAlign(0x1000), 0x1000u);
    EXPECT_EQ(lineAlign(0x103F), 0x1000u);
    EXPECT_EQ(lineAlign(0x1040), 0x1040u);
    EXPECT_EQ(lineNum(0x1040), 0x41u);
    EXPECT_TRUE(sameLine(0x1000, 0x103F));
    EXPECT_FALSE(sameLine(0x1000, 0x1040));
}

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 7, "abc"), "x=7 y=abc");
    EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(ROWSIM_PANIC("boom %d", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(ROWSIM_FATAL("bad config"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(ROWSIM_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(ROWSIM_ASSERT(1 + 1 == 3, "not fine"), std::logic_error);
}

TEST(Logging, ParseEnvU64AcceptsOnlyFullDecimalStrings)
{
    EXPECT_EQ(parseEnvU64("X", "0"), 0u);
    EXPECT_EQ(parseEnvU64("X", "5000"), 5000u);
    // "10k" used to silently parse as 10; now the whole string must be
    // a decimal number.
    EXPECT_THROW(parseEnvU64("ROWSIM_STATS_INTERVAL", "10k"),
                 std::runtime_error);
    EXPECT_THROW(parseEnvU64("X", "garbage"), std::runtime_error);
    EXPECT_THROW(parseEnvU64("X", ""), std::runtime_error);
    EXPECT_THROW(parseEnvU64("X", " 10"), std::runtime_error);
    EXPECT_THROW(parseEnvU64("X", "-1"), std::runtime_error);
    EXPECT_THROW(parseEnvU64("X", "99999999999999999999999"),
                 std::runtime_error);
}

TEST(MicroOp, ClassificationHelpers)
{
    MicroOp op;
    op.cls = OpClass::Load;
    EXPECT_TRUE(op.isMem());
    op.cls = OpClass::AtomicRMW;
    EXPECT_TRUE(op.isMem());
    op.cls = OpClass::IntAlu;
    EXPECT_FALSE(op.isMem());
    op.cls = OpClass::Fence;
    EXPECT_FALSE(op.isMem());
}

TEST(MicroOp, NamesRoundTrip)
{
    EXPECT_STREQ(opClassName(OpClass::AtomicRMW), "AtomicRMW");
    EXPECT_STREQ(opClassName(OpClass::Fence), "Fence");
    EXPECT_STREQ(atomicOpName(AtomicOp::CompareSwap), "CompareSwap");
    EXPECT_STREQ(rmwKindName(RmwKind::SWAP), "SWAP");
}

TEST(Config, TableOneDefaults)
{
    SystemParams sp;
    EXPECT_EQ(sp.numCores, 32u);
    EXPECT_EQ(sp.core.fetchWidth, 6u);
    EXPECT_EQ(sp.core.issueWidth, 12u);
    EXPECT_EQ(sp.core.commitWidth, 12u);
    EXPECT_EQ(sp.core.robEntries, 512u);
    EXPECT_EQ(sp.core.lqEntries, 192u);
    EXPECT_EQ(sp.core.sbEntries, 128u);
    EXPECT_EQ(sp.core.aqEntries, 16u);
    // 48KB, 12-way, 64B lines -> 64 sets.
    EXPECT_EQ(sp.mem.l1Sets * sp.mem.l1Ways * lineBytes, 48u * 1024);
    EXPECT_EQ(sp.mem.l1HitLatency, 5u);
    // 1MB, 8-way private L2.
    EXPECT_EQ(sp.mem.l2Sets * sp.mem.l2Ways * lineBytes, 1024u * 1024);
    EXPECT_EQ(sp.mem.l2HitLatency, 12u);
    // 4MB per bank, 16-way L3.
    EXPECT_EQ(sp.mem.l3SetsPerBank * sp.mem.l3Ways * lineBytes,
              4u * 1024 * 1024);
    EXPECT_EQ(sp.mem.l3HitLatency, 35u);
    EXPECT_EQ(sp.mem.memoryLatency, 160u);
}

TEST(Config, RowDefaultsMatchPaper)
{
    RowConfig rc;
    EXPECT_EQ(rc.predictorEntries, 64u);
    EXPECT_EQ(rc.counterBits, 4u);
    EXPECT_EQ(rc.latencyThreshold, 400u);
    EXPECT_EQ(rc.timestampBits, 14u);
    // §IV-F: total RoW storage = 64 bytes = predictor (256 bits) + AQ
    // augmentation (16 x 16 bits = 256 bits).
    unsigned total_bits =
        rc.predictorEntries * rc.counterBits + 16 * (1 + 1 + 14);
    EXPECT_EQ(total_bits, 64u * 8);
}

namespace
{

/** @p s written as a JSON string literal, then read back. */
std::string
roundTrip(const std::string &s)
{
    std::string literal = "\"";
    literal += jsonEscape(s);
    literal += '"';
    return parseJson(literal).str;
}

/** The message parseJson throws for @p text (empty if it parses). */
std::string
jsonError(const std::string &text)
{
    try {
        parseJson(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return {};
}

} // namespace

TEST(JsonReader, ReadsChromeTraceShape)
{
    const Json root = parseJson(
        "{\"traceEvents\": [\n"
        "  {\"name\": \"lock\", \"cat\": \"atomic\", \"ph\": \"X\","
        " \"ts\": 12, \"dur\": 3.5, \"pid\": 0, \"tid\": 2,"
        " \"args\": {\"line\": \"0x1040\", \"lazy\": true}},\n"
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1,"
        " \"args\": {\"name\": \"core1\"}, \"s\": null}\n"
        "], \"displayTimeUnit\": \"ns\"}\n");
    ASSERT_EQ(root.type, Json::Object);
    const Json &events = root.at("traceEvents");
    ASSERT_EQ(events.type, Json::Array);
    ASSERT_EQ(events.arr.size(), 2u);
    const Json &x = events.arr[0];
    EXPECT_EQ(x.at("ph").str, "X");
    EXPECT_EQ(x.at("ts").asU64(), 12u);
    EXPECT_DOUBLE_EQ(x.at("dur").asDouble(), 3.5);
    EXPECT_EQ(x.at("args").at("line").asU64(), 0x1040u);
    EXPECT_TRUE(x.at("args").at("lazy").b);
    EXPECT_EQ(events.arr[1].at("args").at("name").str, "core1");
    EXPECT_TRUE(events.arr[1].has("s"));
    EXPECT_EQ(events.arr[1].at("s").type, Json::Null);
    EXPECT_EQ(root.at("missing").type, Json::Null);
    EXPECT_NE(jsonError("{\"a\": 1} x").find("trailing characters"),
              std::string::npos);
}

TEST(JsonReader, EscapeRoundTripsEveryAsciiByte)
{
    std::string all;
    for (int c = 0x01; c <= 0x7f; ++c) {
        const std::string s{'a', static_cast<char>(c), 'b'};
        EXPECT_EQ(roundTrip(s), s) << c;
        all.push_back(static_cast<char>(c));
    }
    EXPECT_EQ(roundTrip(all), all);
    EXPECT_EQ(jsonEscape("a\x01" "b"), "a\\u0001b");
}

TEST(JsonReader, DecodesUnicodeEscapesToUtf8)
{
    EXPECT_EQ(parseJson("\"\\u0041\\u00e9\\u20AC\"").str,
              "A\xc3\xa9\xe2\x82\xac");
    EXPECT_NE(jsonError("\"\\u12\"").find("bad \\u escape"),
              std::string::npos);
    EXPECT_NE(jsonError("\"\\u12g4\"").find("bad \\u escape"),
              std::string::npos);
}

TEST(JsonReader, RejectsMalformedNumbers)
{
    for (const char *bad : {"-", "1-2", "1.2.3", "1e", "+", "--1", "[1-2]"})
        EXPECT_NE(jsonError(bad).find("JSON error"), std::string::npos)
            << bad;
    EXPECT_NE(jsonError("1.2.3").find("bad number '1.2.3'"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(parseJson("-1.5e3").num, -1500.0);
    EXPECT_DOUBLE_EQ(parseJson("0").num, 0.0);
    EXPECT_DOUBLE_EQ(parseJson("[1, -2.25]").arr[1].num, -2.25);
}

TEST(JsonReader, AsU64IsDefinedForEveryNumber)
{
    EXPECT_EQ(parseJson("42").asU64(), 42u);
    EXPECT_EQ(parseJson("42.9").asU64(), 42u);
    EXPECT_EQ(parseJson("-1").asU64(), 0u);
    EXPECT_EQ(parseJson("-0.5").asU64(), 0u);
    EXPECT_EQ(parseJson("1e30").asU64(), ULLONG_MAX);
    EXPECT_EQ(parseJson("\"0x10\"").asU64(), 16u);
    EXPECT_EQ(parseJson("true").asU64(), 0u);
}

TEST(JsonReader, DeepNestingIsAJsonError)
{
    const unsigned limit = jsonMaxDepth;
    EXPECT_EQ(jsonError(std::string(limit, '[') + std::string(limit, ']')),
              "");
    EXPECT_NE(jsonError(std::string(limit + 1, '[') +
                        std::string(limit + 1, ']'))
                  .find("JSON error at offset 512: nesting deeper than"),
              std::string::npos);
    EXPECT_NE(jsonError(std::string(200000, '[')).find("nesting deeper than"),
              std::string::npos);
    std::string objects;
    for (int i = 0; i < 200000; ++i)
        objects += "{\"a\":";
    EXPECT_NE(jsonError(objects).find("nesting deeper than"),
              std::string::npos);
}
