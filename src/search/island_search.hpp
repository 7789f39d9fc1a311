#pragma once

#include <array>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/durable/checkpoint.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/search/pareto_archive.hpp"
#include "src/util/bytes.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::search {

namespace detail {

/// Search-layer metrics, resolved once per process (shared by every
/// IslandSearch instantiation — the registry is name-keyed, not typed).
struct SearchMetrics {
    obs::Counter& epochs = obs::Registry::global().counter("search.epochs");
    obs::Counter& generations = obs::Registry::global().counter("search.generations");
    obs::Counter& migrants = obs::Registry::global().counter("search.migrants");
    obs::Gauge& archiveSize = obs::Registry::global().gauge("search.archive_size");
    obs::Histogram& epochSeconds = obs::Registry::global().histogram("search.epoch_seconds");
};

inline SearchMetrics& searchMetrics() {
    static SearchMetrics* m = new SearchMetrics();
    return *m;
}

}  // namespace detail

/// The workload contract of the search engine.  A `Problem` owns the
/// genome representation and everything domain-specific about it:
///
///  - `Genome` — copyable, equality-comparable (archive dedup);
///  - `objectiveCount()` — k, all objectives MINIMIZED (adapters negate
///    quality-like metrics);
///  - `random(rng)` / `mutate(g, rng)` / `crossover(a, b, rng)` — the
///    variation operators, drawing all randomness from the passed stream;
///  - `evaluate(batch, out)` — estimates objectives for a whole
///    speculative batch at once so per-call overhead (estimator setup,
///    feature extraction) amortizes.  Must be const, RNG-free and
///    thread-safe: islands call it concurrently.
template <typename P>
concept Problem =
    std::copy_constructible<typename P::Genome> &&
    std::equality_comparable<typename P::Genome> &&
    requires(const P& p, const typename P::Genome& g, util::Rng& rng,
             std::span<const typename P::Genome> batch, std::span<Objectives> out) {
        { p.objectiveCount() } -> std::convertible_to<std::size_t>;
        { p.random(rng) } -> std::same_as<typename P::Genome>;
        { p.mutate(g, rng) } -> std::same_as<typename P::Genome>;
        { p.crossover(g, g, rng) } -> std::same_as<typename P::Genome>;
        { p.evaluate(batch, out) };
    };

/// A `Problem` whose genomes can travel through a checkpoint file.  The
/// problem owns the genome encoding (the search engine treats genomes as
/// opaque), so it also owns their byte layout: `serializeGenome` appends a
/// self-delimiting encoding, `deserializeGenome` reads exactly what was
/// written and returns nullopt on malformed input (the reader's sticky
/// failure makes "read all fields, check once" safe).  Only problems
/// satisfying this concept can use the checkpoint/resume API below.
template <typename P>
concept CheckpointableProblem =
    Problem<P> && requires(const P& p, const typename P::Genome& g, util::ByteWriter& out,
                           util::ByteReader& in) {
        { p.serializeGenome(g, out) };
        { p.deserializeGenome(in) } -> std::same_as<std::optional<typename P::Genome>>;
    };

/// Per-island local search policy.  All strategies share the archive and
/// the variation operators; they differ in how parents are chosen and
/// what steers the walk.
enum class Strategy {
    HillClimb,  ///< estimator-guided archive hill-climb (the AutoAx recipe)
    Anneal,     ///< single-trajectory simulated annealing over the archive
    Genetic,    ///< small GA: crossover of two archive parents + mutation
};

const char* strategyName(Strategy strategy);

/// Deterministic island-model metaheuristic over any `Problem`.
///
/// N islands each own a `ParetoArchive` and a private RNG stream; the
/// island seeds iterate splitmix64 from the base seed (island 0 KEEPS the
/// base seed, which is what makes `islands = 1, batch = 1` with the
/// default HillClimb strategy reproduce the legacy single-archive serial search
/// bit-for-bit).  Every generation an island drafts a speculative batch
/// of candidates — all RNG draws happen up front against the
/// pre-generation archive — then estimates the whole batch with ONE
/// `Problem::evaluate` call and folds the results back in draft order.
///
/// Determinism contract: an island's trajectory is a pure function of its
/// seed, its strategy and the migrants it receives.  Islands advance in
/// lockstep epochs of `migrationInterval` generations (one fixed work
/// item per island, fanned over the pool), migration runs serially in
/// island order on pre-epoch snapshots (ring topology: island i receives
/// from island i-1), and the final merge inserts island archives in
/// island order — so the result is bit-identical for ANY thread count
/// (including `threads = 1` and the `AXF_THREADS` pool sizing), though it
/// legitimately changes with the island count or strategy mix.
template <Problem P>
class IslandSearch {
public:
    using Genome = typename P::Genome;
    using Archive = ParetoArchive<Genome>;
    using Entry = typename Archive::Entry;

    /// Anneal schedule: relative-worsening scale at generation 0 and at
    /// the final generation, geometric in between.
    static constexpr double kAnnealStartTemp = 0.25;
    static constexpr double kAnnealEndTemp = 1e-3;

    struct Options {
        int islands = 1;
        int generations = 1000;     ///< per island
        int batch = 1;              ///< speculative candidates per generation
        int seedsPerIsland = 0;     ///< random genomes seeding each archive
        int migrationInterval = 16; ///< generations between migrations (0 = never)
        int migrants = 4;           ///< entries offered per migration (0 = none)
        std::size_t archiveCap = 0; ///< per-island and merged cap (0 = unlimited)
        std::uint64_t seed = 1;     ///< base of the splitmix64 island seed stream
        /// Per-island strategies, cycled (empty = HillClimb everywhere).
        /// Mixing strategies across islands diversifies the search without
        /// giving up determinism.
        std::vector<Strategy> islandStrategies;
        std::size_t threads = 0;        ///< worker cap (0 = whole pool, 1 = serial)
        util::ThreadPool* pool = nullptr;  ///< nullptr = the process-global pool

        // --- Durability (requires a CheckpointableProblem) ---------------
        /// Snapshot file updated at epoch boundaries (empty = no
        /// checkpointing).  Snapshots are taken only at states an
        /// uninterrupted run also passes through, which is what makes
        /// resume bit-identity possible at all.
        std::string checkpointPath;
        int checkpointInterval = 1;  ///< epochs between snapshots (final one always written)
        /// Caller-supplied identity of the problem (estimator digests,
        /// netlist hashes, ...), folded with the result-affecting options
        /// into the checkpoint header digest.  Threads/pool are excluded:
        /// resuming on a different thread count is explicitly supported.
        std::uint64_t problemDigest = 0;
        /// Checked ONLY at epoch boundaries — an epoch is the atom of
        /// search work, so cancellation never leaves a half-stepped island.
        /// On trip: final checkpoint is flushed, then OperationCancelled.
        const util::CancellationToken* cancel = nullptr;
        /// Observability hook invoked after each epoch boundary (post
        /// checkpoint write) with the generations completed so far.  Tests
        /// throw from here to simulate a kill with the snapshot on disk;
        /// tools pulse watchdogs and throttle from here.
        std::function<void(int)> onEpoch;
    };

    struct Result {
        Archive archive;  ///< block-ordered merge over island archives
        std::size_t evaluations = 0;  ///< genomes sent through Problem::evaluate
        std::vector<std::size_t> islandEvaluations;
        /// Final per-island RNG streams, so a caller can continue drawing
        /// deterministically where the search left off (the DSE random
        /// baseline continues island 0's stream — with one island that is
        /// exactly the legacy post-search state).
        std::vector<util::Rng> islandRngs;
    };

    IslandSearch(const P& problem, Options options)
        : problem_(problem), options_(std::move(options)) {
        if (options_.islands < 1) throw std::invalid_argument("IslandSearch: islands < 1");
        if (options_.batch < 1) throw std::invalid_argument("IslandSearch: batch < 1");
        if (options_.generations < 0)
            throw std::invalid_argument("IslandSearch: negative generations");
        if (options_.checkpointInterval < 1)
            throw std::invalid_argument("IslandSearch: checkpointInterval < 1");
        if constexpr (!CheckpointableProblem<P>) {
            if (!options_.checkpointPath.empty())
                throw std::invalid_argument(
                    "IslandSearch: checkpointPath set but the problem has no genome "
                    "serialization hooks");
        }
    }

    /// Runs the search.  `seeded` entries are pre-evaluated knowledge
    /// (e.g. a DSE training sample) inserted into EVERY island archive
    /// after its private random seeds.
    Result run(std::span<const Entry> seeded = {}) const {
        const std::size_t n = static_cast<std::size_t>(options_.islands);
        std::vector<Island> islands;
        islands.reserve(n);
        std::uint64_t seedState = options_.seed;
        for (std::size_t i = 0; i < n; ++i) {
            Island island{Archive(options_.archiveCap),
                          util::Rng(i == 0 ? options_.seed : util::splitmix64(seedState))};
            if (!options_.islandStrategies.empty())
                island.strategy = options_.islandStrategies[i % options_.islandStrategies.size()];
            islands.push_back(std::move(island));
        }

        util::ThreadPool& pool =
            options_.pool != nullptr ? *options_.pool : util::ThreadPool::global();

        // Seeding runs island-parallel too: each island only touches its
        // own state, and its random draws come from its own stream.
        pool.parallelFor(
            n, [&](std::size_t i) { seedIsland(islands[i], seeded); }, options_.threads);

        return runEpochs(islands, 0);
    }

    /// Continues a search from a checkpoint written by a previous run with
    /// the SAME result-affecting options (thread count may differ).  The
    /// returned Result is bit-identical to what the uninterrupted run
    /// would have produced — a checkpoint captures every bit of search
    /// state (archives in entry order, RNG streams, counters, anneal
    /// walks) at an epoch boundary the uninterrupted run also crossed.
    /// Throws durable::CheckpointError when the file is missing, corrupt,
    /// or was produced by a different configuration.
    Result resume(const std::string& path) const
        requires CheckpointableProblem<P>
    {
        auto loaded = durable::loadCheckpoint(path);
        if (!loaded) throw durable::CheckpointError(path + ": missing checkpoint");
        return resumeLoaded(path, *loaded);
    }

    /// Resume from `Options::checkpointPath` when a checkpoint is there,
    /// start fresh otherwise — the idiom for restartable campaigns.  A
    /// present-but-invalid checkpoint still throws: silently discarding
    /// possibly-hours of state is worse than a loud stop.
    Result runOrResume(std::span<const Entry> seeded = {}) const
        requires CheckpointableProblem<P>
    {
        if (!options_.checkpointPath.empty())
            if (auto loaded = durable::loadCheckpoint(options_.checkpointPath))
                return resumeLoaded(options_.checkpointPath, *loaded);
        return run(seeded);
    }

    /// The digest stamped into (and demanded of) this search's checkpoint
    /// headers: every result-affecting option folded with the caller's
    /// problemDigest.  Exposed so tools can audit a checkpoint against a
    /// known configuration without constructing the problem.
    std::uint64_t checkpointDigest() const {
        std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a offset basis
        const auto mix = [&h](std::uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xFF;
                h *= 0x100000001B3ull;
            }
        };
        const auto mixDouble = [&](double v) {
            std::uint64_t bits;
            std::memcpy(&bits, &v, sizeof bits);
            mix(bits);
        };
        mix(static_cast<std::uint64_t>(options_.islands));
        mix(static_cast<std::uint64_t>(options_.generations));
        mix(static_cast<std::uint64_t>(options_.batch));
        mix(static_cast<std::uint64_t>(options_.seedsPerIsland));
        mix(static_cast<std::uint64_t>(options_.migrationInterval));
        mix(static_cast<std::uint64_t>(options_.migrants));
        mix(options_.archiveCap);
        // The constants below stand where removed options were mixed (the
        // epsilon-dominance knob, the single-strategy field, the anneal
        // schedule), at the values every run used, so snapshots written
        // while those were options still resume.
        mixDouble(0.0);
        mix(options_.seed);
        mix(static_cast<std::uint64_t>(Strategy::HillClimb));
        mix(options_.islandStrategies.size());
        for (Strategy s : options_.islandStrategies) mix(static_cast<std::uint64_t>(s));
        mixDouble(kAnnealStartTemp);
        mixDouble(kAnnealEndTemp);
        mix(options_.problemDigest);
        return h;
    }

private:
    struct Island {
        Archive archive;
        util::Rng rng;
        Strategy strategy = Strategy::HillClimb;
        std::size_t evaluations = 0;
        // Annealing walk state (optional: genomes need not be
        // default-constructible).
        std::optional<Genome> current;
        Objectives currentObjectives;
        // Reused draft buffers (no per-generation allocation).
        std::vector<Genome> draft;
        std::vector<Objectives> estimates;
    };

    /// Lockstep epochs with serial ring migration between them, starting
    /// from `done` generations already completed (0 for a fresh run, the
    /// snapshot's counter for a resume — resume re-enters this loop with
    /// islands restored to exactly the state a fresh run had here).
    Result runEpochs(std::vector<Island>& islands, int done) const {
        const std::size_t n = islands.size();
        util::ThreadPool& pool =
            options_.pool != nullptr ? *options_.pool : util::ThreadPool::global();
        const int interval =
            options_.migrationInterval > 0 ? options_.migrationInterval : options_.generations;
        int epoch = interval > 0 ? done / interval : 0;
        // A token already tripped before the first epoch: snapshot the
        // boundary state and stop before burning an epoch of work.
        checkCancelled(islands, done);
        while (done < options_.generations) {
            obs::Span epochSpan("search_epoch");
            obs::ScopedTimer epochTimer(detail::searchMetrics().epochSeconds);
            const int step = std::min(interval, options_.generations - done);
            // The epoch parallelFor deliberately takes NO token: an epoch
            // is the cancellation atom, so a snapshot always captures a
            // state the uninterrupted run also passes through.
            pool.parallelFor(
                n,
                [&](std::size_t i) {
                    for (int g = 0; g < step; ++g) generation(islands[i], done + g);
                },
                options_.threads);
            done += step;
            if (n > 1 && done < options_.generations) migrate(islands);
            ++epoch;
            detail::searchMetrics().epochs.add();
            detail::searchMetrics().generations.add(static_cast<std::uint64_t>(step) * n);
            if (obs::metricsEnabled()) {
                std::size_t resident = 0;
                for (const Island& island : islands) resident += island.archive.entries().size();
                detail::searchMetrics().archiveSize.set(static_cast<double>(resident));
            }
            // Post-migration IS the boundary state: what gets snapshotted
            // is what the next epoch starts from.  The final (complete)
            // snapshot is always written so runOrResume can fast-forward.
            if (epoch % options_.checkpointInterval == 0 || done >= options_.generations)
                writeSnapshot(islands, done);
            if (options_.onEpoch) options_.onEpoch(done);
            checkCancelled(islands, done);
        }

        Result result;
        result.archive = Archive(options_.archiveCap);
        result.islandEvaluations.reserve(n);
        result.islandRngs.reserve(n);
        for (Island& island : islands) {
            result.archive.merge(island.archive);
            result.evaluations += island.evaluations;
            result.islandEvaluations.push_back(island.evaluations);
            result.islandRngs.push_back(std::move(island.rng));
        }
        return result;
    }

    /// Epoch-boundary cancellation: flush a final snapshot (even off the
    /// checkpointInterval cadence — the whole point is not losing work),
    /// then report via the distinct exception type.
    void checkCancelled(std::vector<Island>& islands, int done) const {
        if (options_.cancel == nullptr || !options_.cancel->stopRequested()) return;
        writeSnapshot(islands, done);
        throw util::OperationCancelled("IslandSearch cancelled at generation " +
                                       std::to_string(done));
    }

    void writeSnapshot(const std::vector<Island>& islands, int done) const {
        if constexpr (CheckpointableProblem<P>) {
            if (options_.checkpointPath.empty()) return;
            durable::writeCheckpoint(options_.checkpointPath, checkpointDigest(),
                                     serializeState(islands, done));
        }
    }

    static void writeObjectives(util::ByteWriter& out, const Objectives& objectives) {
        out.u8(static_cast<std::uint8_t>(objectives.size()));
        for (std::size_t o = 0; o < objectives.size(); ++o) out.f64(objectives[o]);
    }

    static bool readObjectives(util::ByteReader& in, Objectives& objectives) {
        std::uint8_t size = 0;
        if (!in.u8(size) || size > Objectives::kMaxObjectives) return false;
        std::array<double, Objectives::kMaxObjectives> values{};
        for (std::uint8_t o = 0; o < size; ++o)
            if (!in.f64(values[o])) return false;
        objectives = Objectives(std::span<const double>(values.data(), size));
        return true;
    }

    /// Payload layout (container framing, versioning and checksumming live
    /// in durable::): generation counter, then per island its strategy
    /// tag, evaluation counter, RNG stream, anneal walk state, and the
    /// archive entries in residence order.  The draft/estimate buffers are
    /// transient (cleared at each generation start) and excluded.
    std::vector<std::uint8_t> serializeState(const std::vector<Island>& islands, int done) const
        requires CheckpointableProblem<P>
    {
        util::ByteWriter out;
        out.u32(static_cast<std::uint32_t>(done));
        out.u32(static_cast<std::uint32_t>(islands.size()));
        for (const Island& island : islands) {
            out.u8(static_cast<std::uint8_t>(island.strategy));
            out.u64(island.evaluations);
            island.rng.serialize(out);
            out.boolean(island.current.has_value());
            if (island.current.has_value()) {
                problem_.serializeGenome(*island.current, out);
                writeObjectives(out, island.currentObjectives);
            }
            const auto& entries = island.archive.entries();
            out.u32(static_cast<std::uint32_t>(entries.size()));
            for (const Entry& e : entries) {
                problem_.serializeGenome(e.genome, out);
                writeObjectives(out, e.objectives);
            }
        }
        return out.take();
    }

    struct RestoredState {
        std::vector<Island> islands;
        int done = 0;
    };

    std::optional<RestoredState> deserializeState(std::span<const std::uint8_t> payload) const
        requires CheckpointableProblem<P>
    {
        util::ByteReader in(payload);
        std::uint32_t done = 0, islandCount = 0;
        if (!in.u32(done) || !in.u32(islandCount)) return std::nullopt;
        if (islandCount != static_cast<std::uint32_t>(options_.islands)) return std::nullopt;
        if (done > static_cast<std::uint32_t>(options_.generations)) return std::nullopt;
        RestoredState state;
        state.done = static_cast<int>(done);
        state.islands.reserve(islandCount);
        for (std::uint32_t i = 0; i < islandCount; ++i) {
            Island island{Archive(options_.archiveCap), util::Rng(0)};
            std::uint8_t strategy = 0;
            bool hasCurrent = false;
            if (!in.u8(strategy) || strategy > static_cast<std::uint8_t>(Strategy::Genetic))
                return std::nullopt;
            island.strategy = static_cast<Strategy>(strategy);
            if (!in.u64(island.evaluations)) return std::nullopt;
            if (!util::Rng::deserialize(in, island.rng)) return std::nullopt;
            if (!in.boolean(hasCurrent)) return std::nullopt;
            if (hasCurrent) {
                auto genome = problem_.deserializeGenome(in);
                if (!genome.has_value()) return std::nullopt;
                island.current = std::move(*genome);
                if (!readObjectives(in, island.currentObjectives)) return std::nullopt;
            }
            std::uint32_t entryCount = 0;
            if (!in.u32(entryCount)) return std::nullopt;
            std::vector<Entry> entries;
            entries.reserve(entryCount);
            for (std::uint32_t k = 0; k < entryCount; ++k) {
                auto genome = problem_.deserializeGenome(in);
                Objectives objectives;
                if (!genome.has_value() || !readObjectives(in, objectives)) return std::nullopt;
                entries.push_back(Entry{std::move(*genome), objectives});
            }
            island.archive.restoreEntries(std::move(entries));
            state.islands.push_back(std::move(island));
        }
        if (!in.ok() || in.remaining() != 0) return std::nullopt;
        return state;
    }

    Result resumeLoaded(const std::string& path, const durable::LoadedCheckpoint& loaded) const
        requires CheckpointableProblem<P>
    {
        if (loaded.digest != checkpointDigest())
            throw durable::CheckpointError(
                path + ": problem digest mismatch (checkpoint belongs to a different "
                       "search configuration)");
        auto state = deserializeState(std::span<const std::uint8_t>(loaded.payload));
        if (!state.has_value())
            throw durable::CheckpointError(path + ": malformed checkpoint payload");
        return runEpochs(state->islands, state->done);
    }

    /// Drafted candidates -> one batched estimate -> ordered inserts.
    void evaluateDraft(Island& island) const {
        island.estimates.assign(island.draft.size(), Objectives{});
        problem_.evaluate(std::span<const Genome>(island.draft),
                          std::span<Objectives>(island.estimates));
        island.evaluations += island.draft.size();
    }

    void seedIsland(Island& island, std::span<const Entry> seeded) const {
        island.draft.clear();
        for (int s = 0; s < options_.seedsPerIsland; ++s)
            island.draft.push_back(problem_.random(island.rng));
        // Every strategy needs a parent: an island left empty (no random
        // seeds, no shared knowledge) still gets one random genome.
        if (island.draft.empty() && seeded.empty())
            island.draft.push_back(problem_.random(island.rng));
        if (!island.draft.empty()) {
            evaluateDraft(island);
            for (std::size_t k = 0; k < island.draft.size(); ++k)
                island.archive.insert(std::move(island.draft[k]), island.estimates[k]);
        }
        for (const Entry& e : seeded) island.archive.insert(e.genome, e.objectives);
    }

    void generation(Island& island, int gen) const {
        island.draft.clear();
        const auto& entries = island.archive.entries();
        switch (island.strategy) {
            case Strategy::HillClimb:
                // batch == 1 is exactly the legacy serial pattern: one
                // parent draw, one mutation, one insert per step.
                for (int k = 0; k < options_.batch; ++k) {
                    const Genome& parent = entries[island.rng.index(entries.size())].genome;
                    island.draft.push_back(problem_.mutate(parent, island.rng));
                }
                break;
            case Strategy::Anneal:
                if (!island.current.has_value()) {
                    const Entry& start = entries[island.rng.index(entries.size())];
                    island.current = start.genome;
                    island.currentObjectives = start.objectives;
                }
                for (int k = 0; k < options_.batch; ++k)
                    island.draft.push_back(problem_.mutate(*island.current, island.rng));
                break;
            case Strategy::Genetic:
                for (int k = 0; k < options_.batch; ++k) {
                    const Genome& a = entries[island.rng.index(entries.size())].genome;
                    const Genome& b = entries[island.rng.index(entries.size())].genome;
                    island.draft.push_back(
                        problem_.mutate(problem_.crossover(a, b, island.rng), island.rng));
                }
                break;
        }
        evaluateDraft(island);

        if (island.strategy == Strategy::Anneal) {
            const double t = temperature(gen);
            for (std::size_t k = 0; k < island.draft.size(); ++k) {
                // Scale-free acceptance: the worst relative worsening over
                // the objectives is the "energy" delta.  d == 0 (nowhere
                // worse) always moves; otherwise Metropolis at the epoch
                // temperature.  The walk only steers exploration — every
                // candidate still offers itself to the archive below.
                double d = 0.0;
                for (std::size_t o = 0; o < island.estimates[k].size(); ++o) {
                    const double cur = island.currentObjectives[o];
                    const double rel = (island.estimates[k][o] - cur) /
                                       (std::abs(cur) + 1e-12);
                    d = std::max(d, rel);
                }
                if (d <= 0.0 || island.rng.uniformReal(0.0, 1.0) < std::exp(-d / t)) {
                    island.current = island.draft[k];
                    island.currentObjectives = island.estimates[k];
                }
            }
        }
        for (std::size_t k = 0; k < island.draft.size(); ++k)
            island.archive.insert(std::move(island.draft[k]), island.estimates[k]);
    }

    double temperature(int gen) const {
        if (options_.generations <= 1) return kAnnealEndTemp;
        const double f = static_cast<double>(gen) / static_cast<double>(options_.generations - 1);
        return kAnnealStartTemp * std::pow(kAnnealEndTemp / kAnnealStartTemp, f);
    }

    /// Ring migration on pre-epoch snapshots: island i receives up to
    /// `migrants` entries from island i-1, spread along the archive's
    /// cost-like axis (sort + endpoint-exact thinning, so the donor's
    /// extremes always travel).  Runs serially in island order; inserts
    /// consume no RNG, so migration never perturbs the island streams.
    void migrate(std::vector<Island>& islands) const {
        if (options_.migrants <= 0) return;  // migration disabled
        const std::size_t n = islands.size();
        // Select by index first — genomes own heap storage, so only the
        // <= `migrants` picked entries are copied, never a whole archive.  The (value, index) sort key makes tie
        // order fully specified.
        std::vector<std::vector<Entry>> outbound(n);
        std::vector<std::pair<double, std::size_t>> order;
        for (std::size_t i = 0; i < n; ++i) {
            const std::vector<Entry>& entries = islands[i].archive.entries();
            if (entries.empty()) continue;
            const std::size_t axis = entries.front().objectives.size() - 1;
            order.clear();
            order.reserve(entries.size());
            for (std::size_t k = 0; k < entries.size(); ++k)
                order.emplace_back(entries[k].objectives[axis], k);
            std::sort(order.begin(), order.end());
            util::thinUniform(order, static_cast<std::size_t>(options_.migrants));
            outbound[i].reserve(order.size());
            for (const auto& [value, k] : order) outbound[i].push_back(entries[k]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            detail::searchMetrics().migrants.add(outbound[(i + n - 1) % n].size());
            for (const Entry& e : outbound[(i + n - 1) % n])
                islands[i].archive.insert(e.genome, e.objectives);
        }
    }

    const P& problem_;
    Options options_;
};

}  // namespace axf::search
