/**
 * @file
 * The simulator's one JSON module: the writer-side string escaping used
 * by every sink (trace, heartbeat, run reports) and the reader that
 * tools/rowsim_report and the tests parse those sinks back with.
 *
 * Keeping both halves together keeps the round trip honest: every byte
 * jsonEscape writes, the reader decodes back to the same byte.
 */

#ifndef ROWSIM_COMMON_JSON_HH
#define ROWSIM_COMMON_JSON_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace rowsim
{

/** Escape a string for embedding in a JSON string literal. Control
 *  bytes without a short escape are written as \\u00XX. */
std::string jsonEscape(const std::string &s);

/** One parsed JSON value. Object lookups go through a map, so member
 *  order is not preserved. */
struct Json
{
    enum Type { Null, Bool, Number, String, Array, Object } type = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    /** Member @p key, or a shared Null value when absent. */
    const Json &at(const std::string &key) const;

    bool has(const std::string &key) const { return obj.count(key) != 0; }

    /** Numbers arrive as doubles or as hex strings ("0x10"). Negative
     *  numbers read as 0 and numbers past the range as the maximum;
     *  any other type reads as 0. */
    unsigned long long asU64() const;

    double asDouble() const { return type == Number ? num : 0.0; }
};

/** Deepest array/object nesting parseJson accepts. */
constexpr unsigned jsonMaxDepth = 512;

/**
 * Parse @p text as exactly one JSON value (recursive descent). Throws
 * std::runtime_error ("JSON error at offset N: why") on malformed
 * input, on a number token strtod does not consume in full, and on
 * nesting deeper than jsonMaxDepth. \\uXXXX escapes decode to UTF-8
 * (basic multilingual plane; a surrogate half decodes as its own
 * three-byte sequence).
 */
Json parseJson(const std::string &text);

} // namespace rowsim

#endif // ROWSIM_COMMON_JSON_HH
