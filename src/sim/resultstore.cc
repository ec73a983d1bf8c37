#include "sim/resultstore.hh"

#include <cstdio>
#include <cstring>

#include "common/config.hh"
#include "common/io.hh"
#include "common/log.hh"
#include "common/sha256.hh"
#include "common/timeseries.hh"
#include "sim/options.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

namespace
{

/** Entry-file magic: "ROWRES\0\0". */
constexpr std::uint8_t kResMagic[8] = {'R', 'O', 'W', 'R', 'E', 'S', 0, 0};

/** magic + u32 schema version + 32-byte key + u64 payload length. */
constexpr std::size_t kResHeaderBytes = 8 + 4 + 32 + 8;
constexpr std::size_t kResTrailerBytes = 32;

/** The u32 after the error text. It once counted sweep attempts; it
 *  stays, as a constant, so the v4 layout and every stored entry hold. */
constexpr std::uint32_t kAttemptsWord = 1;

} // namespace

std::vector<std::uint8_t>
encodeResult(const RunResult &r)
{
    Ser s;
    s.section("result");
    s.str(r.workload);
    s.str(r.config);
    s.u8(static_cast<std::uint8_t>(r.status));
    s.str(r.error);
    s.u32(kAttemptsWord);
    s.u64(r.cycles);
    s.u64(r.instructions);
    s.u64(r.atomicsCommitted);
    s.f64(r.atomicsPer10k);
    s.u64(r.atomicsUnlocked);
    s.u64(r.detectedContended);
    s.u64(r.oracleContended);
    s.f64(r.contendedPct);
    s.f64(r.missLatency);
    s.f64(r.dispatchToIssue);
    s.f64(r.issueToLock);
    s.f64(r.lockToUnlock);
    s.f64(r.dispatchToIssueP50);
    s.f64(r.dispatchToIssueP90);
    s.f64(r.dispatchToIssueP99);
    s.f64(r.issueToLockP50);
    s.f64(r.issueToLockP90);
    s.f64(r.issueToLockP99);
    s.f64(r.lockToUnlockP50);
    s.f64(r.lockToUnlockP90);
    s.f64(r.lockToUnlockP99);
    s.f64(r.olderUnexecuted);
    s.f64(r.youngerStarted);
    s.f64(r.predAccuracy);
    s.u64(r.atomicsForwarded);
    s.u64(r.atomicsPromoted);
    s.u64(r.forcedUnlocks);
    s.u64(r.eagerIssued);
    s.u64(r.lazyIssued);
    s.section("converge");
    s.str(r.convergeMetric);
    s.f64(r.convergeTarget);
    s.f64(r.convergeConfidence);
    s.f64(r.convergeAchieved);
    s.b(r.converged);
    s.section("blobs");
    s.str(r.statsJson);
    s.str(r.profileJson);
    s.str(r.spanJson);
    s.str(r.tsJson);
    s.str(r.samplingJson);
    return s.bytes();
}

RunResult
decodeResult(const std::vector<std::uint8_t> &payload)
{
    Deser d(payload);
    RunResult r;
    d.section("result");
    r.workload = d.str();
    r.config = d.str();
    const std::uint8_t status = d.u8();
    if (status > static_cast<std::uint8_t>(RunStatus::Failed))
        throw SnapshotError(strprintf("corrupted run status %u", status));
    r.status = static_cast<RunStatus>(status);
    r.error = d.str();
    if (const std::uint32_t word = d.u32(); word != kAttemptsWord)
        throw SnapshotError(
            strprintf("corrupted attempts word %u (expected %u)", word,
                      kAttemptsWord));
    r.cycles = d.u64();
    r.instructions = d.u64();
    r.atomicsCommitted = d.u64();
    r.atomicsPer10k = d.f64();
    r.atomicsUnlocked = d.u64();
    r.detectedContended = d.u64();
    r.oracleContended = d.u64();
    r.contendedPct = d.f64();
    r.missLatency = d.f64();
    r.dispatchToIssue = d.f64();
    r.issueToLock = d.f64();
    r.lockToUnlock = d.f64();
    r.dispatchToIssueP50 = d.f64();
    r.dispatchToIssueP90 = d.f64();
    r.dispatchToIssueP99 = d.f64();
    r.issueToLockP50 = d.f64();
    r.issueToLockP90 = d.f64();
    r.issueToLockP99 = d.f64();
    r.lockToUnlockP50 = d.f64();
    r.lockToUnlockP90 = d.f64();
    r.lockToUnlockP99 = d.f64();
    r.olderUnexecuted = d.f64();
    r.youngerStarted = d.f64();
    r.predAccuracy = d.f64();
    r.atomicsForwarded = d.u64();
    r.atomicsPromoted = d.u64();
    r.forcedUnlocks = d.u64();
    r.eagerIssued = d.u64();
    r.lazyIssued = d.u64();
    d.section("converge");
    r.convergeMetric = d.str();
    r.convergeTarget = d.f64();
    r.convergeConfidence = d.f64();
    r.convergeAchieved = d.f64();
    r.converged = d.b();
    d.section("blobs");
    r.statsJson = d.str();
    r.profileJson = d.str();
    r.spanJson = d.str();
    r.tsJson = d.str();
    r.samplingJson = d.str();
    d.expectEnd();
    return r;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {}

std::unique_ptr<ResultStore>
ResultStore::open(const RunOptions &opts)
{
    if (!opts.results)
        return nullptr;
    return std::make_unique<ResultStore>(opts.resultsDir);
}

ResultKey
ResultStore::keyFor(const SystemParams &params, const RunOptions &opts,
                    const std::string &workload, std::uint64_t quota,
                    const std::string &window)
{
    // The fingerprint covers everything that changes the simulated
    // trajectory (architecture, seed, faults). On top of that, the key
    // carries the knobs that change what a RunResult *contains* without
    // changing the simulation — the profiler mask (profileJson and the
    // stats JSON "profile" section), the span gate and, with spans on,
    // the span top-K (spanJson's tables and retained records), the
    // interval-stats period as requested (statsJson interval series), the
    // time-series
    // engine (tsJson) — and the two that change the results
    // themselves: the convergence spec (the run stops at the
    // convergence cycle) and the execution mode, which is deliberately
    // outside the fingerprint (checkpoints interchange between modes).
    const ConvergeSpec &conv = opts.converge;
    Ser s;
    s.section("rowres-key");
    s.u32(resultSchemaVersion);
    s.u64(configFingerprint(params, opts.faults.mask, opts.faults.seed,
                            opts.faults.rate));
    s.str(workload);
    s.str(window);
    s.u64(quota);
    s.u32(opts.profileMask);
    s.b(opts.spans);
    if (opts.spans)
        s.u64(opts.spansTopK);
    s.u64(opts.statsInterval);
    s.b(opts.timeseries);
    // The rendered window, a constant since it stopped being a knob;
    // kept so existing keys stay put.
    s.u64(opts.timeseries ? IntervalSampler::kWindow : 0);
    s.b(conv.active);
    s.str(conv.metric);
    s.f64(conv.relHalfwidth);
    s.f64(conv.confidence);
    s.str(opts.funcMode ? "func" : "detail");

    Sha256 h;
    h.update(s.bytes().data(), s.bytes().size());
    return h.digest();
}

std::string
ResultStore::keyHex(const ResultKey &key)
{
    return Sha256::hex(key);
}

std::string
ResultStore::pathFor(const ResultKey &key) const
{
    return dir_ + "/" + keyHex(key) + ".res";
}

void
ResultStore::quarantine(const std::string &path, const char *why)
{
    // Move the damaged entry aside (keeping it for post-mortems) so the
    // recompute path can overwrite the slot; deleting is the fallback
    // when even the rename fails.
    quarantined_++;
    const std::string dst = path + ".quarantined";
    if (std::rename(path.c_str(), dst.c_str()) == 0) {
        ROWSIM_WARN("result store: quarantined '%s' (%s)", path.c_str(),
                    why);
    } else if (std::remove(path.c_str()) == 0) {
        ROWSIM_WARN("result store: removed damaged '%s' (%s)",
                    path.c_str(), why);
    } else {
        ROWSIM_WARN("result store: cannot quarantine '%s' (%s)",
                    path.c_str(), why);
    }
}

bool
ResultStore::load(const ResultKey &key, RunResult &out)
{
    const std::string path = pathFor(key);
    std::vector<std::uint8_t> raw;
    if (!readFileBytes(path, raw)) {
        misses_++;
        return false;
    }

    // Validate the container before trusting a single payload byte.
    if (raw.size() < kResHeaderBytes + kResTrailerBytes ||
        std::memcmp(raw.data(), kResMagic, sizeof(kResMagic)) != 0) {
        quarantine(path, "not a result entry");
        misses_++;
        return false;
    }
    Deser d(raw.data(), raw.size());
    for (std::size_t i = 0; i < sizeof(kResMagic); i++)
        d.u8();
    std::uint32_t version = 0;
    ResultKey embedded{};
    std::uint64_t payloadLen = 0;
    try {
        version = d.u32();
        for (auto &b : embedded)
            b = d.u8();
        payloadLen = d.u64();
    } catch (const SnapshotError &) {
        quarantine(path, "truncated header");
        misses_++;
        return false;
    }
    if (version != resultSchemaVersion) {
        // Stale schema, not damage: the entry was valid for another
        // build. Leave it in place (a store() under the current schema
        // overwrites the slot) and miss cleanly.
        misses_++;
        return false;
    }
    if (embedded != key) {
        quarantine(path, "embedded key mismatch (misplaced entry)");
        misses_++;
        return false;
    }
    if (payloadLen != raw.size() - kResHeaderBytes - kResTrailerBytes) {
        quarantine(path, "truncated payload");
        misses_++;
        return false;
    }
    Sha256 h;
    h.update(raw.data() + kResHeaderBytes,
             static_cast<std::size_t>(payloadLen));
    const auto want = h.digest();
    if (std::memcmp(want.data(), raw.data() + kResHeaderBytes + payloadLen,
                    kResTrailerBytes) != 0) {
        quarantine(path, "payload digest mismatch");
        misses_++;
        return false;
    }

    try {
        out = decodeResult(std::vector<std::uint8_t>(
            raw.begin() + kResHeaderBytes,
            raw.begin() +
                static_cast<std::ptrdiff_t>(kResHeaderBytes + payloadLen)));
    } catch (const SnapshotError &e) {
        // Digest-valid but undecodable means a same-version layout bug;
        // quarantine rather than loop on it.
        quarantine(path, e.what());
        misses_++;
        return false;
    }
    hits_++;
    return true;
}

bool
ResultStore::serve(const ResultKey &key, bool need_stats, RunResult &out)
{
    RunResult cached;
    if (!load(key, cached) || (need_stats && cached.statsJson.empty()))
        return false;
    if (!need_stats)
        cached.statsJson.clear();
    cached.fromCache = true;
    out = std::move(cached);
    return true;
}

void
ResultStore::store(const ResultKey &key, const RunResult &r)
{
    const std::vector<std::uint8_t> payload = encodeResult(r);

    Ser file;
    for (std::uint8_t c : kResMagic)
        file.u8(c);
    file.u32(resultSchemaVersion);
    file.raw(key.data(), key.size());
    file.u64(payload.size());
    file.raw(payload.data(), payload.size());
    Sha256 h;
    h.update(payload.data(), payload.size());
    const auto trailer = h.digest();
    file.raw(trailer.data(), trailer.size());

    try {
        atomicWriteFile(pathFor(key), file.bytes());
        stores_++;
    } catch (const IoError &e) {
        // A full disk or bad permissions cost the cache, not the run.
        ROWSIM_WARN("result store: %s", e.what());
    }
}

} // namespace rowsim
