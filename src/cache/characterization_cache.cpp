#include "src/cache/characterization_cache.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "src/obs/trace.hpp"
#include "src/util/crc32.hpp"
#include "src/util/io.hpp"
#include "src/util/thread_pool.hpp"
#include "src/verify/verify.hpp"

namespace axf::cache {

namespace {

constexpr std::uint32_t kShardMagic = 0x43465841;  // "AXFC" little-endian

/// FNV-1a over a byte range (payload checksums).
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

/// CRC-32 over one shard entry: the key fields (in their on-disk order)
/// chained into the payload bytes, so a flipped bit anywhere in the entry
/// — key or payload — fails verification, not just payload rot.
std::uint32_t entryCrc(const CacheKey& key, const std::uint8_t* payload, std::size_t n) {
    // Key fields in their on-disk (little-endian) byte order, independent
    // of host endianness, so the checksum matches the file on any host.
    std::uint8_t keyBytes[28];
    std::uint8_t* p = keyBytes;
    for (std::uint64_t v : {key.structuralHash, key.signatureDigest, key.configDigest})
        for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
    for (int i = 0; i < 4; ++i) *p++ = static_cast<std::uint8_t>(key.kind >> (8 * i));
    const std::uint32_t seed = util::crc32(keyBytes, sizeof keyBytes);
    return util::crc32(payload, n, seed);
}

/// splitmix64 — cheap avalanche for digest accumulation.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Order-sensitive digest builder for config structs.
class Digest {
public:
    Digest& u64(std::uint64_t v) {
        state_ = mix64(state_ ^ mix64(v + count_++));
        return *this;
    }
    Digest& f64(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return u64(bits);
    }
    Digest& i(long long v) { return u64(static_cast<std::uint64_t>(v)); }
    Digest& str(std::string_view s) {
        u64(s.size());
        return u64(fnv1a(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
    }
    std::uint64_t value() const { return state_; }

private:
    std::uint64_t state_ = 0x5CA1AB1E0DDBA11ull;
    std::uint64_t count_ = 0;
};

}  // namespace

std::size_t CacheKeyHash::operator()(const CacheKey& k) const {
    std::uint64_t h = mix64(k.structuralHash);
    h = mix64(h ^ k.signatureDigest);
    h = mix64(h ^ k.configDigest);
    h = mix64(h ^ k.kind);
    return static_cast<std::size_t>(h);
}

std::string CacheStats::summary() const {
    std::ostringstream os;
    const std::uint64_t lookups = hits + misses;
    os << hits << "/" << lookups << " hits";
    if (lookups > 0)
        os << " (" << static_cast<int>(100.0 * static_cast<double>(hits) /
                                       static_cast<double>(lookups) + 0.5)
           << "%)";
    os << ", " << stores << " stores, " << diskEntriesLoaded
       << " loaded from disk, " << corruptEntriesDropped << " corrupt dropped, "
       << entriesFlushed << " flushed";
    if (shardWriteRetries > 0 || shardWriteFailures > 0)
        os << ", " << shardWriteRetries << " write retries, " << shardWriteFailures
           << " write failures";
    return os.str();
}

CharacterizationCache::CharacterizationCache() {
    // Contribute this instance's counters as process-wide `cache.*`
    // metrics; the snapshot merge sums them across live instances.
    collectorId_ = obs::Registry::global().addCollector([this](obs::MetricsSnapshot& snap) {
        snap.addCounter("cache.hits", hits_.value());
        snap.addCounter("cache.misses", misses_.value());
        snap.addCounter("cache.stores", stores_.value());
        snap.addCounter("cache.disk_entries_loaded", diskEntriesLoaded_.value());
        snap.addCounter("cache.corrupt_entries_dropped", corruptEntriesDropped_.value());
        snap.addCounter("cache.entries_flushed", entriesFlushed_.value());
        snap.addCounter("cache.shard_write_retries", shardWriteRetries_.value());
        snap.addCounter("cache.shard_write_failures", shardWriteFailures_.value());
    });
}

CharacterizationCache::CharacterizationCache(Options options) : CharacterizationCache() {
    options_ = std::move(options);
    if (options_.directory.empty()) return;
    obs::Span span("cache_load", options_.directory);
    std::error_code ec;
    std::filesystem::create_directories(options_.directory, ec);  // best effort
    for (std::size_t i = 0; i < kStripes; ++i) loadShard(i);
}

CharacterizationCache::~CharacterizationCache() {
    try {
        flush();
    } catch (...) {
        // Best effort: a full disk at shutdown must not terminate the
        // process; the cache is a pure accelerator.
    }
    obs::Registry::global().removeCollector(collectorId_);
}

std::string CharacterizationCache::shardPath(std::size_t stripe) const {
    char name[32];
    std::snprintf(name, sizeof name, "shard_%02zx.axc", stripe);
    return options_.directory + "/" + name;
}

void CharacterizationCache::loadShard(std::size_t stripe) {
    std::ifstream in(shardPath(stripe), std::ios::binary);
    if (!in) return;
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    util::ByteReader reader(bytes);

    std::uint32_t magic = 0, version = 0;
    std::uint64_t count = 0;
    if (!reader.u32(magic) || !reader.u32(version) || !reader.u64(count) ||
        magic != kShardMagic || version != kSchemaVersion) {
        // Foreign or stale-schema file: ignore wholesale, entries recompute.
        corruptEntriesDropped_.addAlways();
        return;
    }

    Stripe& s = stripes_[stripe];
    std::lock_guard<std::mutex> lock(s.mutex);
    for (std::uint64_t e = 0; e < count; ++e) {
        CacheKey key;
        std::uint32_t payloadSize = 0;
        std::uint32_t checksum = 0;
        reader.u64(key.structuralHash);
        reader.u64(key.signatureDigest);
        reader.u64(key.configDigest);
        reader.u32(key.kind);
        if (!reader.u32(payloadSize) || !reader.u32(checksum) ||
            reader.remaining() < payloadSize) {
            // Truncated entry: nothing after it can be framed reliably.
            corruptEntriesDropped_.addAlways();
            break;
        }
        std::vector<std::uint8_t> payload(payloadSize);
        reader.raw(payload.data(), payloadSize);
        if (entryCrc(key, payload.data(), payload.size()) != checksum || stripeOf(key) != stripe) {
            // Bit rot (or an entry filed under the wrong prefix): skip this
            // entry but keep scanning — the framing is still intact.
            corruptEntriesDropped_.addAlways();
            continue;
        }
        if (s.entries.emplace(key, std::move(payload)).second) {
            s.order.push_back(key);
            diskEntriesLoaded_.addAlways();
        }
    }
}

void CharacterizationCache::writeShard(std::size_t stripe, Stripe& s) {
    obs::Span span("cache_shard_write");
    util::ByteWriter out;
    out.u32(kShardMagic);
    out.u32(kSchemaVersion);
    out.u64(s.entries.size());
    // Walk in insertion order so shard files are deterministic for a given
    // store sequence (stable diffs, reproducible fleet artifacts).
    for (const CacheKey& key : s.order) {
        const std::vector<std::uint8_t>& payload = s.entries.at(key);
        out.u64(key.structuralHash);
        out.u64(key.signatureDigest);
        out.u64(key.configDigest);
        out.u32(key.kind);
        out.u32(static_cast<std::uint32_t>(payload.size()));
        out.u32(entryCrc(key, payload.data(), payload.size()));
        out.raw(payload.data(), payload.size());
    }

    // Durable replace: write-to-temporary + fsync + rename (+ directory
    // fsync), retrying transient failures with backoff.  A failed write is
    // logged in the stats but must not kill the process — the cache is a
    // pure accelerator and the stripe stays dirty for the next flush.
    const util::AtomicWriteResult written =
        util::atomicWriteFile(shardPath(stripe), out.bytes());
    if (written.attempts > 1)
        shardWriteRetries_.addAlways(written.attempts - 1);
    if (!written) {
        shardWriteFailures_.addAlways();
        return;
    }
    entriesFlushed_.addAlways(s.entries.size());
    s.dirty = false;
}

void CharacterizationCache::flush() {
    if (options_.directory.empty()) return;
    obs::Span span("cache_flush", options_.directory);
    for (std::size_t i = 0; i < kStripes; ++i) {
        Stripe& s = stripes_[i];
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.dirty) writeShard(i, s);
    }
}

std::optional<std::vector<std::uint8_t>> CharacterizationCache::findBytes(const CacheKey& key) {
    Stripe& s = stripes_[stripeOf(key)];
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.entries.find(key);
    if (it == s.entries.end()) {
        misses_.addAlways();
        return std::nullopt;
    }
    hits_.addAlways();
    return it->second;
}

void CharacterizationCache::putBytes(const CacheKey& key, std::vector<std::uint8_t> payload) {
    Stripe& s = stripes_[stripeOf(key)];
    std::lock_guard<std::mutex> lock(s.mutex);
    // Content-addressed entries are interchangeable, so overwriting is
    // harmless under races — and it self-heals an undecodable payload that
    // slipped past the shard checksum (the caller recomputed it).
    auto [it, inserted] = s.entries.insert_or_assign(key, std::move(payload));
    s.dirty = true;
    if (!inserted) return;
    s.order.push_back(key);
    stores_.addAlways();
}

std::optional<circuit::Netlist> CharacterizationCache::findNetlist(const CacheKey& key,
                                                                  std::uint64_t* hashOut) {
    const std::optional<std::vector<std::uint8_t>> bytes = findBytes(key);
    if (!bytes) return std::nullopt;
    util::ByteReader reader(*bytes);
    std::uint64_t storedHash = 0;
    std::optional<circuit::Netlist> net;
    if (reader.u64(storedHash)) net = circuit::Netlist::deserialize(reader);
    if (net && net->structuralHash() != storedHash) net.reset();
    // Second line of defence: `Netlist::deserialize` already refuses
    // unknown gate kinds and, through `checkOperand`, every operand or
    // output id that is not an earlier node.  The lint still runs so a
    // rule the decoder does not enforce cannot reach a caller.
    if (net && verify::lintNetlist(*net).hasErrors()) net.reset();
    if (!net) {
        // Decoded-but-illegal payloads are corrupt entries in every way
        // that matters: count them and report a miss (the caller
        // recomputes; its putNetlist self-heals the entry).
        corruptEntriesDropped_.addAlways();
        misses_.addAlways();
        hits_.subAlways();
        return std::nullopt;
    }
    if (hashOut != nullptr) *hashOut = storedHash;
    return net;
}

void CharacterizationCache::putNetlist(const CacheKey& key, const circuit::Netlist& netlist,
                                       std::uint64_t hash) {
    util::ByteWriter out;
    out.u64(hash);
    netlist.serialize(out);
    putBytes(key, out.take());
}

void CharacterizationCache::forEachEntry(
    const std::function<void(const CacheKey&, const std::vector<std::uint8_t>&)>& fn) {
    for (Stripe& s : stripes_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        for (const auto& [key, payload] : s.entries) fn(key, payload);
    }
}

namespace {

template <typename Report>
std::optional<Report> decodeReport(std::optional<std::vector<std::uint8_t>> bytes) {
    if (!bytes) return std::nullopt;
    util::ByteReader reader(*bytes);
    Report report;
    if (!Report::deserialize(reader, report)) return std::nullopt;
    return report;
}

template <typename Report>
std::vector<std::uint8_t> encodeReport(const Report& report) {
    util::ByteWriter out;
    report.serialize(out);
    return out.take();
}

void checkKind(const CacheKey& key, PayloadKind kind) {
    if (key.kind != static_cast<std::uint32_t>(kind))
        throw std::logic_error("CharacterizationCache: key/payload kind mismatch");
}

}  // namespace

std::optional<error::ErrorReport> CharacterizationCache::findError(const CacheKey& key) {
    checkKind(key, PayloadKind::ErrorProfile);
    return decodeReport<error::ErrorReport>(findBytes(key));
}

void CharacterizationCache::putError(const CacheKey& key, const error::ErrorReport& report) {
    checkKind(key, PayloadKind::ErrorProfile);
    putBytes(key, encodeReport(report));
}

std::optional<synth::AsicReport> CharacterizationCache::findAsic(const CacheKey& key) {
    checkKind(key, PayloadKind::AsicReport);
    return decodeReport<synth::AsicReport>(findBytes(key));
}

void CharacterizationCache::putAsic(const CacheKey& key, const synth::AsicReport& report) {
    checkKind(key, PayloadKind::AsicReport);
    putBytes(key, encodeReport(report));
}

std::optional<synth::FpgaReport> CharacterizationCache::findFpga(const CacheKey& key) {
    checkKind(key, PayloadKind::FpgaReport);
    return decodeReport<synth::FpgaReport>(findBytes(key));
}

void CharacterizationCache::putFpga(const CacheKey& key, const synth::FpgaReport& report) {
    checkKind(key, PayloadKind::FpgaReport);
    putBytes(key, encodeReport(report));
}

std::optional<fault::ResilienceReport> CharacterizationCache::findResilience(
    const CacheKey& key) {
    checkKind(key, PayloadKind::Resilience);
    return decodeReport<fault::ResilienceReport>(findBytes(key));
}

void CharacterizationCache::putResilience(const CacheKey& key,
                                          const fault::ResilienceReport& report) {
    checkKind(key, PayloadKind::Resilience);
    putBytes(key, encodeReport(report));
}

CacheStats CharacterizationCache::stats() const {
    CacheStats s;
    s.hits = hits_.value();
    s.misses = misses_.value();
    s.stores = stores_.value();
    s.diskEntriesLoaded = diskEntriesLoaded_.value();
    s.corruptEntriesDropped = corruptEntriesDropped_.value();
    s.entriesFlushed = entriesFlushed_.value();
    s.shardWriteRetries = shardWriteRetries_.value();
    s.shardWriteFailures = shardWriteFailures_.value();
    return s;
}

std::size_t CharacterizationCache::size() const {
    std::size_t n = 0;
    for (const Stripe& s : stripes_) {
        std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(s.mutex));
        n += s.entries.size();
    }
    return n;
}

// --- digests and keys -------------------------------------------------------

std::uint64_t CharacterizationCache::digestOf(const circuit::ArithSignature& sig) {
    return Digest()
        .i(static_cast<long long>(sig.op))
        .i(sig.widthA)
        .i(sig.widthB)
        .value();
}

std::uint64_t CharacterizationCache::digestOf(const error::ErrorAnalysisConfig& config,
                                              const circuit::ArithSignature& sig) {
    // Same predicate the analyzer uses to pick its path — a single shared
    // helper, so the key canonicalization can never drift from it.
    const bool exhaustive = config.isExhaustiveFor(sig);
    Digest d;
    d.str("error-analysis.v1");
    d.u64(exhaustive ? 1 : 0);
    if (!exhaustive) d.u64(config.sampleCount).u64(config.seed);
    // `threads` deliberately excluded: chunk-ordered merging keeps reports
    // bit-identical at any thread count.
    return d.value();
}

std::uint64_t CharacterizationCache::digestOf(const synth::AsicFlow::Options& options) {
    return Digest()
        // v2: activity stimulus moved to addressable per-block seeds
        // (chunk-parallel estimation) — power figures differ from v1.
        .str("asic-flow.v2")
        .f64(options.clockMhz)
        .i(options.activityBlocks)
        .u64(options.activitySeed)
        .f64(options.staticPowerPerCellUw)
        .value();
}

std::uint64_t CharacterizationCache::digestOf(const synth::FpgaFlow::Options& options) {
    return Digest()
        // v2: activity stimulus moved to addressable per-block seeds
        // (chunk-parallel estimation) — power figures differ from v1.
        .str("fpga-flow.v2")
        .i(options.mapper.lutInputs)
        .i(options.mapper.cutsPerNode)
        .f64(options.lutDelayNs)
        .f64(options.netDelayBaseNs)
        .f64(options.netDelayFanoutNs)
        .f64(options.ioDelayNs)
        .f64(options.routingJitterNs)
        .f64(options.clockMhz)
        .f64(options.lutCapFf)
        .f64(options.wireCapFf)
        .f64(options.staticPowerPerLutUw)
        .f64(options.powerJitterFraction)
        .i(options.activityBlocks)
        .u64(options.seed)
        .u64(options.activitySeed)
        .value();
}

std::uint64_t CharacterizationCache::digestOf(const fault::CampaignConfig& config,
                                              const circuit::ArithSignature& sig) {
    const bool exhaustive = config.analysis.isExhaustiveFor(sig);
    Digest d;
    d.str("fault-campaign.v1");
    d.u64(exhaustive ? 1 : 0);
    if (!exhaustive) d.u64(config.analysis.sampleCount).u64(config.analysis.seed);
    // `threads` deliberately excluded: the campaign's block-ordered merge
    // keeps reports bit-identical at any thread count.
    d.u64(config.includeInputFaults ? 1 : 0);
    d.u64(config.collapseEquivalent ? 1 : 0);
    d.f64(config.criticalFactor);
    d.f64(config.criticalFloor);
    d.u64(config.maxCritical);
    return d.value();
}

CacheKey CharacterizationCache::errorKey(std::uint64_t structuralHash,
                                         const circuit::ArithSignature& sig,
                                         const error::ErrorAnalysisConfig& config) {
    return CacheKey{structuralHash, digestOf(sig), digestOf(config, sig),
                    static_cast<std::uint32_t>(PayloadKind::ErrorProfile)};
}

CacheKey CharacterizationCache::asicKey(std::uint64_t structuralHash,
                                        const synth::AsicFlow::Options& options) {
    return CacheKey{structuralHash, 0, digestOf(options),
                    static_cast<std::uint32_t>(PayloadKind::AsicReport)};
}

CacheKey CharacterizationCache::fpgaKey(std::uint64_t structuralHash,
                                        const synth::FpgaFlow::Options& options) {
    return CacheKey{structuralHash, 0, digestOf(options),
                    static_cast<std::uint32_t>(PayloadKind::FpgaReport)};
}

CacheKey CharacterizationCache::resilienceKey(std::uint64_t structuralHash,
                                              const circuit::ArithSignature& sig,
                                              const fault::CampaignConfig& config) {
    return CacheKey{structuralHash, digestOf(sig), digestOf(config, sig),
                    static_cast<std::uint32_t>(PayloadKind::Resilience)};
}

CacheKey CharacterizationCache::blobKey(std::uint64_t structuralHash, std::string_view tag) {
    return CacheKey{structuralHash, 0, Digest().str(tag).value(),
                    static_cast<std::uint32_t>(PayloadKind::Blob)};
}

// --- null-tolerant wrappers --------------------------------------------------

error::ErrorReport analyzeErrorCached(CharacterizationCache* cache, std::uint64_t structuralHash,
                                      const circuit::Netlist& netlist,
                                      const circuit::ArithSignature& sig,
                                      const error::ErrorAnalysisConfig& config) {
    if (cache == nullptr) return error::analyzeError(netlist, sig, config);
    const CacheKey key = CharacterizationCache::errorKey(structuralHash, sig, config);
    if (std::optional<error::ErrorReport> hit = cache->findError(key)) return *hit;
    const error::ErrorReport report = error::analyzeError(netlist, sig, config);
    cache->putError(key, report);
    return report;
}

fault::ResilienceReport analyzeResilienceCached(CharacterizationCache* cache,
                                                std::uint64_t structuralHash,
                                                const circuit::Netlist& netlist,
                                                const circuit::ArithSignature& sig,
                                                const fault::CampaignConfig& config) {
    if (cache == nullptr) return fault::analyzeResilience(netlist, sig, config);
    const CacheKey key = CharacterizationCache::resilienceKey(structuralHash, sig, config);
    if (std::optional<fault::ResilienceReport> hit = cache->findResilience(key)) return *hit;
    const fault::ResilienceReport report = fault::analyzeResilience(netlist, sig, config);
    cache->putResilience(key, report);
    return report;
}

namespace {

/// The three steps shared by the batched flow helpers (see the header):
/// serial lookups, parallel computation of the misses, serial stores in
/// index order.  `spanName` must be a string literal.
template <typename Report, typename Flow>
std::vector<Report> cachedBatch(const char* spanName, CharacterizationCache* cache,
                                const Flow& flow, std::span<const circuit::Netlist* const> netlists,
                                CacheKey (*keyOf)(std::uint64_t, const typename Flow::Options&),
                                std::optional<Report> (CharacterizationCache::*find)(const CacheKey&),
                                void (CharacterizationCache::*put)(const CacheKey&, const Report&),
                                Report (Flow::*compute)(const circuit::Netlist&) const) {
    obs::Span span(spanName);
    const std::size_t n = netlists.size();
    std::vector<Report> reports(n);
    std::vector<CacheKey> keys(n);
    std::vector<std::size_t> misses;    // computed by this batch, ascending
    std::vector<bool> repeated(n, false);  // key of an earlier miss in the batch
    if (cache == nullptr) {
        for (std::size_t i = 0; i < n; ++i) misses.push_back(i);
    } else {
        std::unordered_set<CacheKey, CacheKeyHash> missed;
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = keyOf(netlists[i]->structuralHash(), flow.options());
            if (missed.count(keys[i]) != 0) {
                repeated[i] = true;
            } else if (std::optional<Report> hit = (cache->*find)(keys[i])) {
                reports[i] = std::move(*hit);
            } else {
                missed.insert(keys[i]);
                misses.push_back(i);
            }
        }
    }
    util::ThreadPool::global().parallelFor(misses.size(), [&](std::size_t j) {
        reports[misses[j]] = (flow.*compute)(*netlists[misses[j]]);
    });
    if (cache == nullptr) return reports;
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (next < misses.size() && misses[next] == i) {
            (cache->*put)(keys[i], reports[i]);
            ++next;
        } else if (repeated[i]) {
            // Serially this lookup comes after the earlier copy's store.
            std::optional<Report> hit = (cache->*find)(keys[i]);
            reports[i] = hit ? std::move(*hit) : (flow.*compute)(*netlists[i]);
            if (!hit) (cache->*put)(keys[i], reports[i]);
        }
    }
    return reports;
}

}  // namespace

std::vector<synth::AsicReport> synthesizeCachedBatch(
    CharacterizationCache* cache, const synth::AsicFlow& flow,
    std::span<const circuit::Netlist* const> netlists) {
    return cachedBatch<synth::AsicReport>("synthesize_batch", cache, flow, netlists,
                                          &CharacterizationCache::asicKey,
                                          &CharacterizationCache::findAsic,
                                          &CharacterizationCache::putAsic,
                                          &synth::AsicFlow::synthesize);
}

std::vector<synth::FpgaReport> implementCachedBatch(
    CharacterizationCache* cache, const synth::FpgaFlow& flow,
    std::span<const circuit::Netlist* const> netlists) {
    return cachedBatch<synth::FpgaReport>("implement_batch", cache, flow, netlists,
                                          &CharacterizationCache::fpgaKey,
                                          &CharacterizationCache::findFpga,
                                          &CharacterizationCache::putFpga,
                                          &synth::FpgaFlow::implement);
}

synth::AsicReport synthesizeCached(CharacterizationCache* cache, const synth::AsicFlow& flow,
                                   const circuit::Netlist& netlist) {
    const circuit::Netlist* one[] = {&netlist};
    return synthesizeCachedBatch(cache, flow, one).front();
}

synth::FpgaReport implementCached(CharacterizationCache* cache, const synth::FpgaFlow& flow,
                                  const circuit::Netlist& netlist) {
    const circuit::Netlist* one[] = {&netlist};
    return implementCachedBatch(cache, flow, one).front();
}

}  // namespace axf::cache
