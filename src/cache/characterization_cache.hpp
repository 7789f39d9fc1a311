#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/circuit/arith.hpp"
#include "src/circuit/netlist.hpp"
#include "src/error/error_metrics.hpp"
#include "src/fault/fault.hpp"
#include "src/obs/metrics.hpp"
#include "src/synth/asic.hpp"
#include "src/synth/fpga.hpp"

namespace axf::cache {

/// Payload type discriminator baked into every key, so a report kind can
/// never deserialize into the wrong struct even on a hash collision of the
/// other key fields.
enum class PayloadKind : std::uint32_t {
    ErrorProfile = 1,  ///< error::ErrorReport
    AsicReport = 2,    ///< synth::AsicReport
    FpgaReport = 3,    ///< synth::FpgaReport
    Blob = 4,          ///< free-form bytes (simplified netlists, LUT tables)
    Resilience = 5,    ///< fault::ResilienceReport
};

/// Content address of one characterization artifact.
struct CacheKey {
    std::uint64_t structuralHash = 0;   ///< Netlist::structuralHash of the circuit
    std::uint64_t signatureDigest = 0;  ///< arithmetic interface (0 when n/a)
    std::uint64_t configDigest = 0;     ///< result-affecting knobs of the producing flow
    std::uint32_t kind = 0;             ///< PayloadKind

    friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const;
};

/// Monotonic counters of one cache instance (process lifetime).
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t diskEntriesLoaded = 0;    ///< entries adopted from shard files
    std::uint64_t corruptEntriesDropped = 0;  ///< bad checksum / truncated / stale schema
    std::uint64_t entriesFlushed = 0;
    std::uint64_t shardWriteRetries = 0;   ///< transient write failures retried by flush
    std::uint64_t shardWriteFailures = 0;  ///< shard writes abandoned after all retries

    std::string summary() const;
};

/// Content-addressed characterization store shared by library builds, the
/// ApproxFPGAs flow and the accelerator DSE: error profiles, ASIC/FPGA
/// reports and derived blobs keyed by (structural hash, arithmetic
/// signature, config digest, payload kind) under a global schema version.
///
/// Concurrency: the key space is split over 64 stripes by structural-hash
/// prefix, each stripe behind its own mutex, so the `util::ThreadPool`
/// characterization pipelines can hit the cache from every worker without
/// serializing on one lock.
///
/// Persistence (optional): each stripe maps to one binary shard file named
/// by its hash prefix inside the cache directory.  Shard files are loaded
/// on construction and rewritten by `flush()` via write-to-temporary +
/// fsync + atomic rename (`util::atomicWriteFile`, with bounded
/// retry-with-backoff on transient failures), so concurrent
/// readers/writers of the same directory never observe a half-written
/// shard and a crash right after flush cannot leave an empty or torn
/// file behind the rename.  Every entry carries a CRC-32 over its key
/// and payload bytes; corrupt entries, truncated shards and
/// schema-version mismatches are dropped silently — the consumer just
/// recomputes and the next flush repairs the file.
class CharacterizationCache {
public:
    /// Bump whenever any serialized payload layout changes — or when a
    /// producer's numeric output may shift (v2: the error-metric
    /// accumulator moved to explicit vector arithmetic, which can contract
    /// differently at the last ulp than the old scalar codegen; v3: the
    /// per-entry checksum became a u32 CRC-32 over key + payload, so a
    /// bit flip anywhere in an entry — not just its payload — is caught);
    /// shard files written under another version are ignored wholesale.
    static constexpr std::uint32_t kSchemaVersion = 3;

    struct Options {
        std::string directory;  ///< empty = in-memory only (no persistence)
    };

    CharacterizationCache();  ///< in-memory only
    explicit CharacterizationCache(Options options);
    ~CharacterizationCache();  ///< best-effort flush of dirty shards

    CharacterizationCache(const CharacterizationCache&) = delete;
    CharacterizationCache& operator=(const CharacterizationCache&) = delete;

    // --- generic byte-payload interface ------------------------------------
    std::optional<std::vector<std::uint8_t>> findBytes(const CacheKey& key);
    void putBytes(const CacheKey& key, std::vector<std::uint8_t> payload);

    // --- typed report interface (kind checked against the key) -------------
    std::optional<error::ErrorReport> findError(const CacheKey& key);
    void putError(const CacheKey& key, const error::ErrorReport& report);
    std::optional<synth::AsicReport> findAsic(const CacheKey& key);
    void putAsic(const CacheKey& key, const synth::AsicReport& report);
    std::optional<synth::FpgaReport> findFpga(const CacheKey& key);
    void putFpga(const CacheKey& key, const synth::FpgaReport& report);
    std::optional<fault::ResilienceReport> findResilience(const CacheKey& key);
    void putResilience(const CacheKey& key, const fault::ResilienceReport& report);

    // --- netlist payloads (Blob kind, hash-prefixed) ------------------------
    /// Finds a netlist stored by `putNetlist`: the payload's embedded
    /// structural hash must match the rebuilt netlist (tamper check), and
    /// the netlist must pass the src/verify linter.  Cache directories are
    /// shared, externally writable state, so a blob that deserializes but
    /// breaks a structural invariant counts as a corrupt miss, like a
    /// tampered one, and downstream consumers never evaluate it.
    /// `hashOut` (optional) receives the embedded hash.
    std::optional<circuit::Netlist> findNetlist(const CacheKey& key,
                                                std::uint64_t* hashOut = nullptr);
    /// Stores `netlist` under `key` with its structural hash `hash`
    /// prefixed (callers usually already computed it).
    void putNetlist(const CacheKey& key, const circuit::Netlist& netlist, std::uint64_t hash);

    /// Visits every resident entry (key + payload bytes) under the stripe
    /// locks; `fn` must not reenter the cache.  This is the enumeration
    /// hook for offline auditing (axf-lint --cache).
    void forEachEntry(const std::function<void(const CacheKey&,
                                               const std::vector<std::uint8_t>&)>& fn);

    /// Writes every dirty shard to disk (no-op for in-memory caches).
    void flush();

    CacheStats stats() const;
    std::size_t size() const;
    const std::string& directory() const { return options_.directory; }

    // --- key construction --------------------------------------------------
    static std::uint64_t digestOf(const circuit::ArithSignature& sig);
    /// Digest of the result-affecting error-analysis knobs.  `threads` is
    /// excluded (reports are bit-identical at any thread count), and for
    /// input spaces within the exhaustive limit the sampling knobs are
    /// canonicalized away — every exhaustive sweep of the same circuit
    /// shares one entry regardless of the configured sample policy.
    static std::uint64_t digestOf(const error::ErrorAnalysisConfig& config,
                                  const circuit::ArithSignature& sig);
    /// Each flow digest folds in a versioned producer tag (e.g.
    /// "fpga-flow.v1").  Options alone cannot see a change to the model
    /// *code* — bump the producer's tag version whenever its formulas
    /// change semantics, or persisted stores would serve stale reports.
    static std::uint64_t digestOf(const synth::AsicFlow::Options& options);
    static std::uint64_t digestOf(const synth::FpgaFlow::Options& options);
    /// Digest of the result-affecting fault-campaign knobs; the embedded
    /// analysis config is canonicalized the same way as the error digest
    /// (threads excluded, sampling knobs dropped for exhaustive spaces).
    static std::uint64_t digestOf(const fault::CampaignConfig& config,
                                  const circuit::ArithSignature& sig);

    static CacheKey errorKey(std::uint64_t structuralHash, const circuit::ArithSignature& sig,
                             const error::ErrorAnalysisConfig& config);
    static CacheKey asicKey(std::uint64_t structuralHash,
                            const synth::AsicFlow::Options& options);
    static CacheKey fpgaKey(std::uint64_t structuralHash,
                            const synth::FpgaFlow::Options& options);
    static CacheKey resilienceKey(std::uint64_t structuralHash,
                                  const circuit::ArithSignature& sig,
                                  const fault::CampaignConfig& config);
    /// Free-form payloads; `tag` names the artifact family (and version).
    static CacheKey blobKey(std::uint64_t structuralHash, std::string_view tag);

private:
    static constexpr std::size_t kStripes = 64;

    struct Stripe {
        std::mutex mutex;
        std::unordered_map<CacheKey, std::vector<std::uint8_t>, CacheKeyHash> entries;
        std::vector<CacheKey> order;  ///< insertion order, for deterministic shard files
        bool dirty = false;
    };

    static std::size_t stripeOf(const CacheKey& key) {
        return static_cast<std::size_t>(key.structuralHash >> 58);  // top 6 bits
    }

    std::string shardPath(std::size_t stripe) const;
    void loadShard(std::size_t stripe);
    void writeShard(std::size_t stripe, Stripe& s);  ///< caller holds s.mutex

    Options options_;
    std::array<Stripe, kStripes> stripes_;

    // Per-instance counters on the obs primitives (sharded relaxed adds —
    // the same hot-path cost as the raw atomics they replaced).  `stats()`
    // stays per-instance and exact regardless of the process metrics
    // switch (addAlways), while a registry collector contributes the same
    // numbers as `cache.*` process metrics, summed across live instances
    // at snapshot time.
    obs::Counter hits_;
    obs::Counter misses_;
    obs::Counter stores_;
    obs::Counter diskEntriesLoaded_;
    obs::Counter corruptEntriesDropped_;
    obs::Counter entriesFlushed_;
    obs::Counter shardWriteRetries_;
    obs::Counter shardWriteFailures_;
    std::size_t collectorId_ = 0;
};

// --- null-tolerant convenience wrappers ------------------------------------
// One-liners for the characterization pipelines: `cache == nullptr` falls
// back to the plain computation, so every injection point keeps today's
// behavior by default.

/// Cached `error::analyzeError`; `structuralHash` must be the hash of
/// `netlist` (passed in because callers usually already computed it).
error::ErrorReport analyzeErrorCached(CharacterizationCache* cache, std::uint64_t structuralHash,
                                      const circuit::Netlist& netlist,
                                      const circuit::ArithSignature& sig,
                                      const error::ErrorAnalysisConfig& config);

/// Cached `fault::analyzeResilience`; `structuralHash` must be the hash of
/// `netlist` (passed in because callers usually already computed it).
fault::ResilienceReport analyzeResilienceCached(CharacterizationCache* cache,
                                                std::uint64_t structuralHash,
                                                const circuit::Netlist& netlist,
                                                const circuit::ArithSignature& sig,
                                                const fault::CampaignConfig& config);

/// Cached `synth::AsicFlow::synthesize` (a batch of one, see below).
synth::AsicReport synthesizeCached(CharacterizationCache* cache, const synth::AsicFlow& flow,
                                   const circuit::Netlist& netlist);

/// Cached `synth::FpgaFlow::implement` (a batch of one, see below).
synth::FpgaReport implementCached(CharacterizationCache* cache, const synth::FpgaFlow& flow,
                                  const circuit::Netlist& netlist);

// --- index-addressed batches over circuits -----------------------------------
// Report i belongs to `netlists[i]`.  A batch runs in three steps: cache
// lookups serially in index order, the misses computed on
// `util::ThreadPool::global()` (each into its own slot), then the new
// reports stored serially in index order.  The reports, the `CacheStats`
// counts and the `forEachEntry` order therefore equal those of N serial
// single-circuit calls at any thread count: a netlist repeated within the
// batch is computed once and its later copies hit, as they would
// serially.

/// Batched `synthesizeCached`.
std::vector<synth::AsicReport> synthesizeCachedBatch(
    CharacterizationCache* cache, const synth::AsicFlow& flow,
    std::span<const circuit::Netlist* const> netlists);

/// Batched `implementCached`.
std::vector<synth::FpgaReport> implementCachedBatch(
    CharacterizationCache* cache, const synth::FpgaFlow& flow,
    std::span<const circuit::Netlist* const> netlists);

}  // namespace axf::cache
