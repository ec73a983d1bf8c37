#include "common/io.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <unistd.h>

#include "common/log.hh"

namespace rowsim
{

namespace
{

/** Armed torn-write kill point (test support); disabled by default. */
std::size_t killAfterBytes = atomicWriteKillDisabled;

/** Monotonic per-process counter so concurrent atomicWriteFile calls in
 *  one process (sweep worker threads) never share a temporary name. */
std::atomic<std::uint64_t> tmpSeq{0};

} // namespace

void
setAtomicWriteKillAfter(std::size_t bytes)
{
    killAfterBytes = bytes;
}

void
atomicWriteFile(const std::string &path, const void *data, std::size_t len)
{
    // Parent directories are the writer's problem: every store/snapshot
    // path is keyed, and demanding pre-created directories just moves
    // the mkdir to every call site.
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);

    const std::string tmp =
        path + strprintf(".tmp.%ld.%llu", static_cast<long>(::getpid()),
                         static_cast<unsigned long long>(
                             tmpSeq.fetch_add(1)));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        throw IoError(strprintf("cannot create '%s': %s", tmp.c_str(),
                                std::strerror(errno)));
    }

    bool ok = true;
    if (killAfterBytes != atomicWriteKillDisabled && len > killAfterBytes) {
        // Torn-write drill: flush a prefix to disk, then die exactly as
        // a writer killed mid-write would — temporary left behind,
        // final path untouched.
        if (killAfterBytes > 0)
            std::fwrite(data, 1, killAfterBytes, f);
        std::fflush(f);
        std::_Exit(9);
    }
    if (len > 0)
        ok = std::fwrite(data, 1, len, f) == len;
    ok = ok && std::fflush(f) == 0;
    // fsync before rename: rename-over-old is only crash-safe once the
    // new bytes are durable, else a power cut can leave a zero-length
    // "complete" file.
    ok = ok && ::fsync(::fileno(f)) == 0;
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        throw IoError(strprintf("write to '%s' failed: %s", tmp.c_str(),
                                std::strerror(errno)));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.c_str());
        throw IoError(strprintf("cannot rename '%s' over '%s': %s",
                                tmp.c_str(), path.c_str(),
                                std::strerror(err)));
    }
}

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    out.clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::uint8_t chunk[1 << 14];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.insert(out.end(), chunk, chunk + n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    if (!ok)
        out.clear();
    return ok;
}

} // namespace rowsim
