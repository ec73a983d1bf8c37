#include "common/json.hh"

#include <cctype>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/log.hh"

namespace rowsim
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

const Json &
Json::at(const std::string &key) const
{
    static const Json null;
    auto it = obj.find(key);
    return it == obj.end() ? null : it->second;
}

unsigned long long
Json::asU64() const
{
    if (type == Number) {
        if (!(num > 0))
            return 0;
        if (num >= 18446744073709551616.0) // 2^64
            return ULLONG_MAX;
        return static_cast<unsigned long long>(num);
    }
    if (type == String)
        return std::strtoull(str.c_str(), nullptr, 0);
    return 0;
}

namespace
{

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    Json
    parse()
    {
        Json v = value();
        ws();
        if (pos != s.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos) + ": " + why);
    }

    void
    ws()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                                  s[pos] == '\t' || s[pos] == '\r'))
            pos++;
    }

    char
    peek() const
    {
        if (pos >= s.size())
            fail("unexpected end");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        pos++;
    }

    Json
    value()
    {
        ws();
        switch (peek()) {
          case '{':
          case '[': {
            // Bounded so a hostile file fails like any other bad input
            // instead of overflowing the stack.
            if (depth == jsonMaxDepth)
                fail("nesting deeper than " +
                     std::to_string(jsonMaxDepth));
            depth++;
            Json j = peek() == '{' ? object() : array();
            depth--;
            return j;
          }
          case '"': return string();
          case 't': return literal("true", Json::Bool, true);
          case 'f': return literal("false", Json::Bool, false);
          case 'n': return literal("null", Json::Null, false);
          default: return number();
        }
    }

    Json
    literal(const char *word, Json::Type t, bool b)
    {
        if (s.compare(pos, std::strlen(word), word) != 0)
            fail("bad literal");
        pos += std::strlen(word);
        Json j;
        j.type = t;
        j.b = b;
        return j;
    }

    Json
    object()
    {
        Json j;
        j.type = Json::Object;
        expect('{');
        ws();
        if (peek() == '}') {
            pos++;
            return j;
        }
        while (true) {
            ws();
            Json key = string();
            ws();
            expect(':');
            j.obj[key.str] = value();
            ws();
            if (peek() == ',') {
                pos++;
                continue;
            }
            expect('}');
            return j;
        }
    }

    Json
    array()
    {
        Json j;
        j.type = Json::Array;
        expect('[');
        ws();
        if (peek() == ']') {
            pos++;
            return j;
        }
        while (true) {
            j.arr.push_back(value());
            ws();
            if (peek() == ',') {
                pos++;
                continue;
            }
            expect(']');
            return j;
        }
    }

    Json
    string()
    {
        Json j;
        j.type = Json::String;
        expect('"');
        while (true) {
            char c = peek();
            pos++;
            if (c == '"')
                return j;
            if (c != '\\') {
                j.str += c;
                continue;
            }
            char e = peek();
            pos++;
            switch (e) {
              case '"': j.str += '"'; break;
              case '\\': j.str += '\\'; break;
              case '/': j.str += '/'; break;
              case 'n': j.str += '\n'; break;
              case 't': j.str += '\t'; break;
              case 'r': j.str += '\r'; break;
              case 'u': {
                const std::string hex = s.substr(pos, 4);
                if (hex.size() != 4 ||
                    hex.find_first_not_of("0123456789abcdefABCDEF") !=
                        std::string::npos)
                    fail("bad \\u escape");
                pos += 4;
                const unsigned long cp =
                    std::strtoul(hex.c_str(), nullptr, 16);
                // UTF-8: one, two or three bytes for a BMP code point.
                if (cp < 0x80) {
                    j.str += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    j.str += static_cast<char>(0xc0 | (cp >> 6));
                    j.str += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    j.str += static_cast<char>(0xe0 | (cp >> 12));
                    j.str += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    j.str += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default: fail("bad escape");
            }
        }
    }

    Json
    number()
    {
        const std::size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-')) {
            pos++;
        }
        const std::string tok = s.substr(start, pos - start);
        Json j;
        j.type = Json::Number;
        char *end = nullptr;
        j.num = std::strtod(tok.c_str(), &end);
        if (tok.empty() || end != tok.c_str() + tok.size()) {
            pos = start;
            fail(tok.empty() ? "expected number" : "bad number '" + tok + "'");
        }
        return j;
    }

    const std::string &s;
    std::size_t pos = 0;
    unsigned depth = 0;
};

} // namespace

Json
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace rowsim
