#include "common/trace.hh"

#include <cctype>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

#include "common/json.hh"
#include "common/log.hh"

namespace rowsim
{

const char *
traceCategoryName(TraceCategory c)
{
    switch (c) {
      case TraceCategory::Pipeline: return "pipeline";
      case TraceCategory::Atomic: return "atomic";
      case TraceCategory::Coherence: return "coherence";
      case TraceCategory::Directory: return "directory";
      case TraceCategory::Network: return "network";
      case TraceCategory::Predictor: return "predictor";
      case TraceCategory::Queue: return "queue";
      case TraceCategory::Span: return "span";
    }
    return "?";
}

std::uint32_t
parseTraceCategories(const std::string &spec)
{
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        // Trim and lowercase.
        while (!tok.empty() && (tok.front() == ' ' || tok.front() == '\t'))
            tok.erase(tok.begin());
        while (!tok.empty() && (tok.back() == ' ' || tok.back() == '\t'))
            tok.pop_back();
        for (auto &ch : tok)
            ch = static_cast<char>(std::tolower(ch));
        if (tok.empty())
            continue;
        if (tok == "all") {
            mask |= traceCategoryAll;
            continue;
        }
        if (tok == "none")
            continue;
        bool known = false;
        for (std::uint32_t bit = 1; bit <= traceCategoryAll; bit <<= 1) {
            if (tok == traceCategoryName(static_cast<TraceCategory>(bit))) {
                mask |= bit;
                known = true;
                break;
            }
        }
        if (!known)
            ROWSIM_FATAL("unknown trace category '%s' (valid: pipeline, "
                         "atomic, coherence, directory, network, "
                         "predictor, queue, span, all, none)",
                         tok.c_str());
    }
    return mask;
}

Trace &
Trace::instance()
{
    // One Trace per thread: sinks, ring and masks never cross threads,
    // so concurrent sweep workers cannot interleave output.
    static thread_local Trace t;
    return t;
}

Trace::~Trace()
{
    closeAll();
}

std::string
suffixJobPath(const std::string &path, const std::string &key)
{
    if (key.empty())
        return path;
    // Insert before the last extension, but not before a dot that is
    // part of a directory component ("out.d/trace").
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + "." + key;
    }
    return path.substr(0, dot) + "." + key + path.substr(dot);
}

void
Trace::scopeToJob(const std::string &key)
{
    instance().closeAll();
    sinkMask_ = 0;
    ringMask_ = 0;
    mask_ = 0;
    jobKey_ = key;
}

const std::string &
Trace::jobKey()
{
    return jobKey_;
}

void
Trace::setup(std::uint32_t mask, std::size_t ring,
             const std::string &text_path, const std::string &json_path)
{
    configure(mask);
    enableRing(ring);
    if (mask == 0)
        return;
    if (!text_path.empty() && !textSink_) {
        const std::string p = suffixJobPath(text_path, jobKey_);
        std::FILE *f = std::fopen(p.c_str(), "w");
        if (!f)
            ROWSIM_FATAL("cannot open trace text file '%s'", p.c_str());
        setTextSink(f, true);
    }
    if (!json_path.empty() && !json_)
        openJson(suffixJobPath(json_path, jobKey_));
}

void
Trace::setTextSink(std::FILE *f, bool owned)
{
    if (ownTextSink_ && textSink_)
        std::fclose(textSink_);
    textSink_ = f;
    ownTextSink_ = owned;
}

bool
Trace::openJson(const std::string &path)
{
    closeJson();
    json_ = std::fopen(path.c_str(), "w");
    if (!json_) {
        ROWSIM_WARN("cannot open chrome trace file '%s'", path.c_str());
        return false;
    }
    std::fputs("{\"traceEvents\":[\n", json_);
    jsonFirst_ = true;
    return true;
}

void
Trace::closeJson()
{
    if (!json_)
        return;
    std::fputs("\n]}\n", json_);
    std::fclose(json_);
    json_ = nullptr;
}

void
Trace::closeAll()
{
    closeJson();
    setTextSink(nullptr, false);
}

void
Trace::emitJson(const std::string &record)
{
    if (!json_)
        return;
    if (!jsonFirst_)
        std::fputs(",\n", json_);
    jsonFirst_ = false;
    std::fputs(record.c_str(), json_);
    events_++;
}

void
Trace::enableRing(std::size_t capacity)
{
    ringCap_ = capacity;
    ringNext_ = 0;
    ringCount_ = 0;
    ring_.assign(ringCap_, std::string());
    ringMask_ = ringCap_ ? traceCategoryAll : 0;
    mask_ = sinkMask_ | ringMask_;
}

std::vector<std::string>
Trace::ringSnapshot() const
{
    std::vector<std::string> out;
    out.reserve(ringCount_);
    // Oldest first: the slot at ringNext_ is the oldest once full.
    const std::size_t start =
        ringCount_ == ringCap_ ? ringNext_ : 0;
    for (std::size_t i = 0; i < ringCount_; i++)
        out.push_back(ring_[(start + i) % ringCap_]);
    return out;
}

void
Trace::text(TraceCategory cat, Cycle cycle, const char *fmt, ...)
{
    if (!enabled(cat))
        return;
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    if (ringCap_ && (ringMask_ & static_cast<std::uint32_t>(cat))) {
        ring_[ringNext_] = strprintf("%12llu [%s] %s",
                                     static_cast<unsigned long long>(cycle),
                                     traceCategoryName(cat), buf);
        ringNext_ = (ringNext_ + 1) % ringCap_;
        if (ringCount_ < ringCap_)
            ringCount_++;
    }
    if (!(sinkMask_ & static_cast<std::uint32_t>(cat)))
        return;
    std::FILE *out = textSink_ ? textSink_ : stderr;
    std::fprintf(out, "%12llu [%s] %s\n",
                 static_cast<unsigned long long>(cycle),
                 traceCategoryName(cat), buf);
}

namespace
{
std::string
argsField(const std::string &args_json)
{
    return args_json.empty() ? std::string()
                             : ",\"args\":" + args_json;
}
} // namespace

void
Trace::complete(TraceCategory cat, int pid, int tid, const char *name,
                Cycle start, Cycle end, const std::string &args_json)
{
    // Sink mask, not the effective mask: ring-only categories (crash
    // diagnostics) must not leak into the Chrome trace.
    if (!json_ || !(sinkMask_ & static_cast<std::uint32_t>(cat)))
        return;
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%llu,"
        "\"dur\":%llu,\"pid\":%d,\"tid\":%d%s}",
        jsonEscape(name).c_str(), traceCategoryName(cat),
        static_cast<unsigned long long>(start),
        static_cast<unsigned long long>(end >= start ? end - start : 0),
        pid, tid, argsField(args_json).c_str()));
}

void
Trace::span(TraceCategory cat, int pid, int tid, const char *name,
            std::uint64_t id, Cycle start, Cycle end,
            const std::string &args_json)
{
    if (!json_ || !(sinkMask_ & static_cast<std::uint32_t>(cat)))
        return;
    const std::string escaped = jsonEscape(name);
    const char *catname = traceCategoryName(cat);
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"b\",\"id\":\"%llx\","
        "\"ts\":%llu,\"pid\":%d,\"tid\":%d%s}",
        escaped.c_str(), catname, static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(start), pid, tid,
        argsField(args_json).c_str()));
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"e\",\"id\":\"%llx\","
        "\"ts\":%llu,\"pid\":%d,\"tid\":%d}",
        escaped.c_str(), catname, static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(end), pid, tid));
}

void
Trace::instant(TraceCategory cat, int pid, int tid, const char *name,
               Cycle ts, const std::string &args_json)
{
    if (!json_ || !(sinkMask_ & static_cast<std::uint32_t>(cat)))
        return;
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
        "\"ts\":%llu,\"pid\":%d,\"tid\":%d%s}",
        jsonEscape(name).c_str(), traceCategoryName(cat),
        static_cast<unsigned long long>(ts), pid, tid,
        argsField(args_json).c_str()));
}

void
Trace::flow(TraceCategory cat, int pid, int tid, const char *name,
            std::uint64_t id, Cycle ts, char phase)
{
    if (!json_ || !(sinkMask_ & static_cast<std::uint32_t>(cat)))
        return;
    // Flow-finish binds to the enclosing slice ("bp":"e") so the arrow
    // lands on the segment slice rather than needing a matching
    // instant.
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"id\":\"%llx\","
        "\"ts\":%llu,\"pid\":%d,\"tid\":%d%s}",
        jsonEscape(name).c_str(), traceCategoryName(cat), phase,
        static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(ts), pid, tid,
        phase == 'f' ? ",\"bp\":\"e\"" : ""));
}

void
Trace::counter(TraceCategory cat, int pid, const char *name, Cycle ts,
               double value)
{
    if (!json_ || !(sinkMask_ & static_cast<std::uint32_t>(cat)))
        return;
    emitJson(strprintf(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"C\",\"ts\":%llu,"
        "\"pid\":%d,\"args\":{\"value\":%g}}",
        jsonEscape(name).c_str(), traceCategoryName(cat),
        static_cast<unsigned long long>(ts), pid, value));
}

void
Trace::nameProcess(int pid, const std::string &name)
{
    if (!json_)
        return;
    emitJson(strprintf(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        pid, jsonEscape(name).c_str()));
}

void
Trace::nameThread(int pid, int tid, const std::string &name)
{
    if (!json_)
        return;
    emitJson(strprintf(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        pid, tid, jsonEscape(name).c_str()));
}

} // namespace rowsim
