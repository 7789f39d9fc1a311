// axf-perfbench: one benchmark process (a "child" of perfbench/run.py).
//
//   axf-perfbench --workload NAME --seed N --budget SECONDS --trace 0|1 --out DIR
//
// Sets the workload up, runs one untimed warm-up pass, prints "READY"
// (run.py times set-up from process start to that line), then runs timed
// passes until the budget is spent.  With --trace 1 it also runs one traced
// pass (benchmark spans + the program's own trace and metrics) and replays
// each layer's calls one by one for per-call latencies.  The last stdout
// line is one JSON object; run.py turns it into the benchmark's metrics.
//
// The workloads call only the public APIs of the axf library; nothing here
// changes what the program computes.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/src/digest.hpp"
#include "perfbench/src/spans.hpp"
#include "src/autoax/accelerator.hpp"
#include "src/autoax/dse.hpp"
#include "src/autoax/eval_engine.hpp"
#include "src/autoax/sobel.hpp"
#include "src/cache/characterization_cache.hpp"
#include "src/core/fidelity.hpp"
#include "src/core/flow.hpp"
#include "src/core/pareto.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/library.hpp"
#include "src/img/image.hpp"
#include "src/img/ssim.hpp"
#include "src/ml/registry.hpp"
#include "src/ml/tuning.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/synth/asic.hpp"
#include "src/synth/fpga.hpp"

using namespace axf;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

// --- small helpers -----------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Independent sub-seed of the workload seed for one consumer (`tag`).
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag) {
    return splitmix(splitmix(seed) ^ tag);
}

/// The ci-scale library of the figure harnesses (bench_common.hpp), with
/// their fixed generator seed.  The libraries are the workloads' fixed
/// corpus; the workload seed drives the flows and DSEs that explore them.
/// (With per-seed libraries, one flow run's exploration speedup spread by
/// 10-24% of its median over blocks of ten seeds, which no bound absorbs.)
gen::LibraryConfig ciLibrary(circuit::ArithOp op, int width) {
    gen::LibraryConfig cfg;
    cfg.op = op;
    cfg.width = width;
    cfg.seed = 0xA90F5 + static_cast<std::uint64_t>(width) * 7 +
               (op == circuit::ArithOp::Multiplier ? 1 : 0);
    cfg.medBudgets = {0.001, 0.01};
    cfg.cgpGenerations = 60;
    if (width >= 12) {
        cfg.errorConfig.exhaustiveLimit = 1u << 16;
        cfg.errorConfig.sampleCount = 1u << 15;
    }
    return cfg;
}

void require(bool ok, const std::string& what) {
    if (!ok) throw std::runtime_error("check failed: " + what);
}

bool sameFpga(const synth::FpgaReport& a, const synth::FpgaReport& b) {
    Digest x, y;
    mixFpga(x, a);
    mixFpga(y, b);
    return x.value() == y.value();
}

/// Sanity invariants of one ApproxFPGAs run (beyond determinism).
void checkFlow(const core::FlowResult& r) {
    const std::size_t n = r.dataset.size();
    require(n > 0, "library is not empty");
    require(r.leaderboard.size() == 18, "leaderboard holds the 18 Table-I models");
    require(r.targets.size() == core::kAllFpgaParams.size(), "one target per FPGA parameter");
    for (const core::TargetOutcome& t : r.targets) {
        require(!t.finalParetoIndices.empty(), "final front is not empty");
        for (std::size_t idx : t.finalParetoIndices)
            require(idx < n && r.dataset.circuits()[idx].fpgaMeasured,
                    "final front holds measured circuits only");
        require(t.coverageOfTrueFront > 0.0 && t.coverageOfTrueFront <= 1.0,
                "coverage is in (0, 1]");
    }
    for (const core::CharacterizedCircuit& cc : r.dataset.circuits())
        if (cc.fpgaMeasured)
            require(std::isfinite(cc.fpga.latencyNs) && cc.fpga.lutCount > 0.0,
                    "FPGA reports are finite");
    require(r.circuitsSynthesized < n && r.speedup() > 1.0,
            "the flow synthesizes fewer circuits than exhaustive exploration");
}

/// The flow's cache-served FPGA report of one circuit must equal a direct
/// `FpgaFlow::implement` of the same netlist.
void spotCheckImplement(const core::FlowResult& r, std::uint64_t pick) {
    std::vector<std::size_t> measured;
    for (std::size_t i = 0; i < r.dataset.size(); ++i)
        if (r.dataset.circuits()[i].fpgaMeasured) measured.push_back(i);
    const core::CharacterizedCircuit& cc = r.dataset.circuits()[measured[pick % measured.size()]];
    require(sameFpga(synth::FpgaFlow().implement(cc.circuit.netlist), cc.fpga),
            "flow FPGA report equals a direct implement of " + cc.circuit.name);
}

/// Model configurations one flow run fits: every Table-I model (or, when
/// tuning, every grid variant) per FPGA parameter, plus the top-k refits.
double modelFits(const core::ApproxFpgasFlow::Config& cfg) {
    const ml::AsicColumns columns = core::CircuitDataset::asicColumns();
    double perParam = 0.0;
    for (const ml::ModelSpec& spec : ml::tableOneModels(columns))
        perParam += cfg.tuneHyperparameters
                        ? static_cast<double>(ml::hyperparameterGrid(spec.id, columns).size())
                        : 1.0;
    return static_cast<double>(core::kAllFpgaParams.size()) * (perParam + cfg.topModels);
}

gen::AcLibrary libraryOf(const core::FlowResult& r) {
    gen::AcLibrary lib;
    lib.reserve(r.dataset.size());
    for (const core::CharacterizedCircuit& cc : r.dataset.circuits()) lib.push_back(cc.circuit);
    return lib;
}

/// Minimal JSON object writer (numbers with full precision).
class Json {
public:
    void num(const std::string& key, double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        field(key) << buf;
    }
    void str(const std::string& key, const std::string& v) {
        field(key) << '"';
        for (char c : v) {
            if (c == '"' || c == '\\') os_ << '\\';
            os_ << (c == '\n' ? ' ' : c);
        }
        os_ << '"';
    }
    void raw(const std::string& key, const std::string& json) { field(key) << json; }
    std::string done() const { return "{" + os_.str() + "}"; }

private:
    std::ostringstream& field(const std::string& key) {
        if (!first_) os_ << ',';
        first_ = false;
        os_ << '"' << key << "\":";
        return os_;
    }
    std::ostringstream os_;
    bool first_ = true;
};

// --- workloads ----------------------------------------------------------------

/// What one pass produced, for run.py's end-to-end metrics.
struct PassOutcome {
    double wallS = 0.0;
    std::string digest;
    double circuits = 0.0;         ///< library circuits carried through
    double configs = 0.0;          ///< ML models fitted / configurations simulated
    double frontCoverage = 0.0;
    double explorationSpeedup = 0.0;
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Untimed set-up (inputs, menus, on-disk caches).
    virtual void setup() {}
    /// One pass; `log` is null for untimed and timed passes, set for the
    /// traced pass.  Throws on a failed correctness check.
    virtual PassOutcome pass(SpanLog* log) = 0;
    /// Per-call replays of the layer calls the last pass made (traced run
    /// only), plus layer counts written into `counts`.
    virtual void replay(SpanLog& log, Json& counts) = 0;
};

void writeCacheCounts(Json& counts, const cache::CacheStats& s) {
    counts.num("cache.hits", static_cast<double>(s.hits));
    counts.num("cache.misses", static_cast<double>(s.misses));
    counts.num("cache.stores", static_cast<double>(s.stores));
    counts.num("cache.corrupt_dropped", static_cast<double>(s.corruptEntriesDropped));
}

/// Writes the entries of `from` into a fresh on-disk store under `dir` and
/// flushes it: the cache's write path (serialize, CRC, fsync, rename).
void persistCache(SpanLog& log, cache::CharacterizationCache& from, const fs::path& dir) {
    fs::remove_all(dir);
    cache::CharacterizationCache::Options options;
    options.directory = dir.string();
    cache::CharacterizationCache to(options);
    from.forEachEntry([&to](const cache::CacheKey& key, const std::vector<std::uint8_t>& bytes) {
        to.putBytes(key, bytes);
    });
    Span span(&log, "cache.flush");
    to.flush();
}

/// Layer replays shared by the flow workloads: the ML zoo on the run's
/// measured circuits, and Pareto peeling on the run's estimate vectors.
void replayMl(SpanLog& log, const core::FlowResult& r, bool tune, double& predictRows) {
    const std::size_t n = r.dataset.size();
    std::vector<std::size_t> measured, all(n);
    for (std::size_t i = 0; i < n; ++i) {
        all[i] = i;
        if (r.dataset.circuits()[i].fpgaMeasured) measured.push_back(i);
    }
    const ml::AsicColumns columns = core::CircuitDataset::asicColumns();
    const std::vector<ml::ModelSpec> specs = ml::tableOneModels(columns);
    const ml::Matrix x = r.dataset.featureMatrix(measured);
    const ml::Matrix xAll = r.dataset.featureMatrix(all);
    for (const ml::ModelSpec& spec : specs)
        for (core::FpgaParam param : core::kAllFpgaParams) {
            ml::RegressorPtr model = spec.make();
            {
                Span span(&log, "ml.fit");
                model->fit(x, r.dataset.measuredTargets(measured, param));
            }
            Span span(&log, "ml.predict");
            model->predictAll(xAll);
            predictRows += static_cast<double>(n);
        }
    for (const core::TargetOutcome& t : r.targets)
        for (const std::string& id : t.selectedModels) {
            ml::RegressorPtr model = ml::findModel(specs, id).make();
            model->fit(x, r.dataset.measuredTargets(measured, t.param));
            const ml::Vector estimates = model->predictAll(xAll);
            std::vector<core::ParetoPoint> points(n);
            for (std::size_t i = 0; i < n; ++i)
                points[i] = core::ParetoPoint{
                    core::ApproxFpgasFlow::qualityOf(r.dataset.circuits()[i]), estimates[i], i};
            Span span(&log, "core.pareto_peel");
            core::successiveParetoFronts(points, core::ApproxFpgasFlow::Config{}.paretoFronts);
        }
    if (!tune) return;
    // The flow's tuning loop on a 20% validation split of the measured set.
    const std::size_t valCount = std::max<std::size_t>(2, measured.size() / 5);
    const std::vector<std::size_t> val(measured.begin(), measured.begin() + valCount);
    const std::vector<std::size_t> train(measured.begin() + valCount, measured.end());
    const ml::Matrix xTrain = r.dataset.featureMatrix(train);
    const ml::Matrix xVal = r.dataset.featureMatrix(val);
    const auto score = [](const ml::Vector& m, const ml::Vector& e) { return core::fidelity(m, e); };
    Span span(&log, "ml.tune");
    for (const ml::ModelSpec& spec : specs)
        for (core::FpgaParam param : core::kAllFpgaParams)
            ml::tuneModel(spec.id, columns, xTrain, r.dataset.measuredTargets(train, param), xVal,
                          r.dataset.measuredTargets(val, param), score);
}

/// End-to-end figures of a pass that ran the flow once per entry of
/// `results`: circuits and model fits add up, coverage and speedup average.
PassOutcome flowOutcome(double wallS, const std::vector<core::FlowResult>& results,
                        double fitsPerRun) {
    PassOutcome out;
    out.wallS = wallS;
    Digest d;
    const double runs = static_cast<double>(results.size());
    for (const core::FlowResult& r : results) {
        checkFlow(r);
        mixFlow(d, r);
        out.circuits += static_cast<double>(r.dataset.size());
        out.configs += fitsPerRun;
        out.frontCoverage += r.meanCoverage() / runs;
        out.explorationSpeedup += r.speedup() / runs;
    }
    out.digest = d.hex();
    return out;
}

/// flow_cold_mul16: library build into a fresh in-memory cache, then the
/// full ApproxFPGAs flow with ground-truth coverage.  The first run
/// FPGA-implements every circuit once; the flow then runs from four more
/// seeds over the same library, served from the cache, because one run's
/// exploration speedup varies with its seed by about 10% of its median.
class FlowColdMul16 final : public Workload {
public:
    FlowColdMul16(std::uint64_t seed, fs::path out) : seed_(seed), out_(std::move(out)) {}

    PassOutcome pass(SpanLog* log) override {
        Span root(log, "pass");
        std::unique_ptr<cache::CharacterizationCache> cache;
        {
            Span span(log, "cache.open");
            cache = std::make_unique<cache::CharacterizationCache>();
        }
        gen::LibraryConfig libCfg = libCfg_;
        libCfg.cache = cache.get();
        gen::AcLibrary library;
        {
            Span span(log, "gen.build_library");
            library = gen::buildLibrary(libCfg);
        }
        std::vector<core::FlowResult> results;
        for (std::uint64_t k = 0; k < kFlowSeeds; ++k) {
            Span span(log, "core.flow_run");
            results.push_back(core::ApproxFpgasFlow(flowConfig(k, cache.get())).run(library));
        }
        PassOutcome out = flowOutcome(root.seconds(), results, modelFits(flowConfig(0, nullptr)));
        spotCheckImplement(results.front(), seed_ + passes_++);
        last_ = std::move(results.front());
        cache_ = std::move(cache);
        return out;
    }

    void replay(SpanLog& log, Json& counts) override {
        Span root(&log, "replay");
        const core::FlowResult& r = *last_;
        writeCacheCounts(counts, cache_->stats());
        counts.num("gen.circuits", static_cast<double>(r.dataset.size()));
        for (const core::CharacterizedCircuit& cc : r.dataset.circuits()) {
            Span span(&log, "error.analyze");
            error::analyzeError(cc.circuit.netlist, cc.circuit.signature, libCfg_.errorConfig);
        }
        const synth::AsicFlow asic;
        for (const core::CharacterizedCircuit& cc : r.dataset.circuits()) {
            Span span(&log, "synth.asic");
            asic.synthesize(cc.circuit.netlist);
        }
        const synth::FpgaFlow fpga;
        for (const core::CharacterizedCircuit& cc : r.dataset.circuits()) {
            synth::FpgaReport report;
            {
                Span span(&log, "synth.fpga_implement");
                report = fpga.implement(cc.circuit.netlist);
            }
            if (cc.fpgaMeasured)
                require(sameFpga(report, cc.fpga), "replayed implement equals the flow's report");
        }
        double luts = 0.0;
        for (const core::CharacterizedCircuit& cc : r.dataset.circuits()) {
            Span span(&log, "synth.lutmap");
            luts += static_cast<double>(fpga.technologyMap(cc.circuit.netlist).lutCount());
        }
        counts.num("synth.luts_mapped", luts);
        {
            cache::CharacterizationCache fresh;
            gen::AcLibrary lib = libraryOf(r);
            Span span(&log, "core.characterize");
            core::CircuitDataset::characterize(std::move(lib), synth::AsicFlow(), &fresh);
        }
        double predictRows = 0.0;
        replayMl(log, r, false, predictRows);
        counts.num("ml.predict_rows", predictRows);
        persistCache(log, *cache_, out_ / "persist");
    }

private:
    static constexpr std::uint64_t kFlowSeeds = 5;

    core::ApproxFpgasFlow::Config flowConfig(std::uint64_t k,
                                             cache::CharacterizationCache* cache) const {
        core::ApproxFpgasFlow::Config cfg;
        cfg.seed = deriveSeed(seed_, 0xF10 + k);
        cfg.evaluateCoverage = true;
        cfg.cache = cache;
        return cfg;
    }

    std::uint64_t seed_;
    fs::path out_;
    gen::LibraryConfig libCfg_ = ciLibrary(circuit::ArithOp::Multiplier, 16);
    std::uint64_t passes_ = 0;
    std::optional<core::FlowResult> last_;
    std::unique_ptr<cache::CharacterizationCache> cache_;
};

/// flow_warm_zoo: add16 + mul8 libraries served from a populated on-disk
/// cache, each run through the tuned flow at two train fractions.
class FlowWarmZoo final : public Workload {
public:
    FlowWarmZoo(std::uint64_t seed, fs::path out)
        : out_(std::move(out)), flowSeed_(deriveSeed(seed, 0xF10)) {}

    void setup() override {
        fs::remove_all(out_ / "cache");
        fs::create_directories(out_ / "cache");
        // Cold population: the same computation as a pass, so its digest is
        // the reference every warm pass must reproduce from cache hits.
        cache::CharacterizationCache cache(options());
        std::vector<core::FlowResult> results;
        for (const gen::LibraryConfig& lib : libs_) runLibrary(nullptr, lib, &cache, results);
        cache.flush();
        reference_ = flowOutcome(0.0, results, 0.0).digest;
    }

    PassOutcome pass(SpanLog* log) override {
        Span root(log, "pass");
        std::unique_ptr<cache::CharacterizationCache> cache;
        {
            Span span(log, "cache.open");
            cache = std::make_unique<cache::CharacterizationCache>(options());
        }
        std::vector<core::FlowResult> results;
        for (const gen::LibraryConfig& lib : libs_) runLibrary(log, lib, cache.get(), results);
        PassOutcome out = flowOutcome(root.seconds(), results, modelFits(flowConfig(0.0, nullptr)));
        require(out.digest == reference_, "warm-cache results equal the cold population run");
        last_ = std::move(results);
        cache_ = std::move(cache);
        return out;
    }

    void replay(SpanLog& log, Json& counts) override {
        Span root(&log, "replay");
        writeCacheCounts(counts, cache_->stats());
        double circuits = 0.0, predictRows = 0.0;
        for (std::size_t i = 0; i < last_.size(); ++i) {
            const core::FlowResult& r = last_[i];
            if (i % kTrainFractions.size() == 0) {
                circuits += static_cast<double>(r.dataset.size());
                gen::AcLibrary lib = libraryOf(r);
                Span span(&log, "core.characterize");
                core::CircuitDataset::characterize(std::move(lib), synth::AsicFlow(), cache_.get());
            }
            replayMl(log, r, true, predictRows);
        }
        counts.num("gen.circuits", circuits);
        counts.num("ml.predict_rows", predictRows);
        persistCache(log, *cache_, out_ / "persist");
    }

private:
    static constexpr std::array<double, 2> kTrainFractions = {0.1, 0.3};

    cache::CharacterizationCache::Options options() const {
        cache::CharacterizationCache::Options o;
        o.directory = (out_ / "cache").string();
        return o;
    }

    void runLibrary(SpanLog* log, gen::LibraryConfig lib, cache::CharacterizationCache* cache,
                    std::vector<core::FlowResult>& results) const {
        lib.cache = cache;
        gen::AcLibrary library;
        {
            Span span(log, "gen.build_library");
            library = gen::buildLibrary(lib);
        }
        for (double fraction : kTrainFractions) {
            Span span(log, "core.flow_run");
            results.push_back(core::ApproxFpgasFlow(flowConfig(fraction, cache)).run(library));
        }
    }

    core::ApproxFpgasFlow::Config flowConfig(double trainFraction,
                                             cache::CharacterizationCache* cache) const {
        core::ApproxFpgasFlow::Config cfg;
        cfg.seed = flowSeed_;
        cfg.trainFraction = trainFraction;
        cfg.tuneHyperparameters = true;
        cfg.evaluateCoverage = true;
        cfg.cache = cache;
        return cfg;
    }

    fs::path out_;
    std::uint64_t flowSeed_;
    std::vector<gen::LibraryConfig> libs_ = {ciLibrary(circuit::ArithOp::Adder, 16),
                                             ciLibrary(circuit::ArithOp::Multiplier, 8)};
    std::string reference_;
    std::vector<core::FlowResult> last_;
    std::unique_ptr<cache::CharacterizationCache> cache_;
};

/// dse_gaussian: AutoAx-FPGA on the Gaussian accelerator, then a
/// resilience-aware Sobel DSE whose stuck-at campaigns run uncached.
class DseGaussian final : public Workload {
public:
    explicit DseGaussian(std::uint64_t seed) : seed_(seed) {}

    void setup() override {
        // Component menus as fig9 builds them: two ApproxFPGAs runs over
        // the ci-scale libraries.  The menus are the accelerator's fixed
        // platform; the workload seed drives the explorations.
        cache::CharacterizationCache cache;
        core::ApproxFpgasFlow::Config flowCfg;
        flowCfg.evaluateCoverage = false;
        flowCfg.cache = &cache;
        const auto menuFlow = [&](circuit::ArithOp op, int width) {
            gen::LibraryConfig lib = ciLibrary(op, width);
            lib.cache = &cache;
            return core::ApproxFpgasFlow(flowCfg).run(gen::buildLibrary(lib));
        };
        const core::FlowResult mulFlow = menuFlow(circuit::ArithOp::Multiplier, 8);
        const core::FlowResult addFlow = menuFlow(circuit::ArithOp::Adder, 16);
        std::vector<autoax::Component> adders =
            autoax::componentsFromFlow(addFlow, core::FpgaParam::Area, 8);
        gaussian_ = std::make_unique<autoax::GaussianAccelerator>(
            autoax::componentsFromFlow(mulFlow, core::FpgaParam::Area, 9), adders);
        sobel_ = std::make_unique<autoax::SobelAccelerator>(std::move(adders));
        menuCircuits_ = static_cast<double>(gaussian_->multiplierMenu().size() +
                                            gaussian_->adderMenu().size() +
                                            sobel_->adderMenu().size());

        for (std::uint64_t k = 0; k < kSubSeeds; ++k) {
            autoax::AutoAxFpgaFlow::Config gaussian;
            gaussian.seed = deriveSeed(seed_, 0xD5E0 + k);
            gaussian.islands = 4;
            gaussian.searchBatch = 8;
            gaussian.migrationInterval = 8;
            gaussian.trainConfigs = kGaussianTrain;
            gaussian.hillIterations = kGaussianIterations;
            gaussian.imageSize = kImageSize;
            gaussian.sceneCount = kScenes;
            gaussian.archiveCap = kArchiveCap;
            runs_.push_back({"autoax.dse_gaussian", gaussian, gaussian_.get()});

            autoax::AutoAxFpgaFlow::Config sobel;
            sobel.seed = deriveSeed(seed_, 0x50B0 + k);
            sobel.islands = 3;
            sobel.searchBatch = 4;
            sobel.islandStrategies = {search::Strategy::HillClimb, search::Strategy::Anneal,
                                      search::Strategy::Genetic};
            sobel.trainConfigs = kSobelTrain;
            sobel.hillIterations = kSobelIterations;
            sobel.imageSize = kImageSize;
            sobel.sceneCount = kScenes;
            sobel.archiveCap = kArchiveCap;
            sobel.resilienceObjective = true;
            sobel.faultCampaign.analysis.sampleCount = kFaultVectors;
            sobel.cache = nullptr;
            runs_.push_back({"autoax.dse_sobel_resilience", sobel, sobel_.get()});
        }
    }

    PassOutcome pass(SpanLog* log) override {
        Span root(log, "pass");
        std::vector<autoax::AutoAxFpgaFlow::Result> results;
        for (const DseRun& run : runs_) {
            Span span(log, run.span);
            results.push_back(autoax::AutoAxFpgaFlow(run.config).run(*run.model));
        }
        PassOutcome out;
        out.wallS = root.seconds();
        Digest d;
        double queries = 0.0, coverage = 0.0, scenarios = 0.0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            mixDse(d, results[i]);
            checkDse(results[i], *runs_[i].model);
            out.configs += static_cast<double>(results[i].totalRealEvaluations);
            for (const auto& s : results[i].scenarios) {
                queries += static_cast<double>(s.estimatorQueries);
                coverage += searchShareOfFront(s);
                scenarios += 1.0;
            }
        }
        out.digest = d.hex();
        out.circuits = menuCircuits_;
        out.frontCoverage = coverage / scenarios;
        out.explorationSpeedup = queries / out.configs;
        last_ = std::move(results);
        return out;
    }

    void replay(SpanLog& log, Json& counts) override {
        Span root(&log, "replay");
        double realEvaluations = 0.0, queries = 0.0;
        for (const autoax::AutoAxFpgaFlow::Result& result : last_) {
            realEvaluations += static_cast<double>(result.totalRealEvaluations);
            for (const auto& s : result.scenarios) queries += static_cast<double>(s.estimatorQueries);
        }
        counts.num("autoax.real_evaluations", realEvaluations);
        counts.num("autoax.estimator_queries", queries);

        // The first Gaussian DSE's training configurations and scenes (as
        // AutoAxFpgaFlow::run builds them).
        const autoax::AutoAxFpgaFlow::Result& r = last_.front();
        const std::uint64_t sceneSeed = runs_.front().config.seed;
        std::vector<img::Image> scenes;
        for (int s = 0; s < kScenes; ++s)
            scenes.push_back(img::syntheticScene(kImageSize, kImageSize,
                                                 sceneSeed + static_cast<std::uint64_t>(s)));
        std::vector<autoax::AcceleratorConfig> configs;
        for (const autoax::EvaluatedConfig& e : r.trainingSet) configs.push_back(e.config);
        autoax::EvalEngine engine(*gaussian_, scenes, {.memoize = false});
        std::vector<autoax::EvaluatedConfig> evaluated;
        {
            Span span(&log, "autoax.eval_batch");
            evaluated = engine.evaluateBatch(configs);
        }
        counts.num("autoax.eval_batch_configs", static_cast<double>(configs.size()));
        for (std::size_t i = 0; i < evaluated.size(); ++i)
            require(evaluated[i].ssim == r.trainingSet[i].ssim,
                    "unmemoized re-evaluation reproduces the training SSIM");

        std::vector<img::SsimReference> refs;
        for (const img::Image& exact : engine.exactReferences()) refs.emplace_back(exact);
        std::unique_ptr<autoax::AcceleratorModel::Workspace> ws = gaussian_->makeWorkspace();
        const std::size_t sample = std::min<std::size_t>(configs.size(), kFilterReplays);
        for (std::size_t i = 0; i < sample; ++i)
            for (std::size_t s = 0; s < scenes.size(); ++s) {
                img::Image filtered;
                {
                    Span span(&log, "autoax.filter");
                    filtered = gaussian_->filter(scenes[s], configs[i], *ws);
                }
                Span span(&log, "img.ssim");
                refs[s].compare(filtered);
            }
    }

private:
    /// Each pass runs both DSEs from this many seeds derived from the
    /// workload seed: how many designs a DSE really evaluates varies with
    /// its seed, and the sum over several varies less.
    static constexpr std::uint64_t kSubSeeds = 3;
    /// Search archives thin to this many designs, so each scenario really
    /// evaluates about as many designs whatever its seed.
    static constexpr std::size_t kArchiveCap = 32;
    // Scaled from fig9's ci configuration toward its default so that one
    // pass is long enough to time steadily.
    static constexpr int kGaussianTrain = 220;
    static constexpr int kGaussianIterations = 4000;
    static constexpr int kSobelTrain = 80;
    static constexpr int kSobelIterations = 1200;
    static constexpr int kImageSize = 96;
    static constexpr int kScenes = 2;
    static constexpr unsigned kFaultVectors = 1u << 12;
    static constexpr std::size_t kFilterReplays = 64;

    static void checkDse(const autoax::AutoAxFpgaFlow::Result& r,
                         const autoax::AcceleratorModel& model) {
        require(r.totalRealEvaluations > 0, "the DSE really evaluated configurations");
        require(r.scenarios.size() == core::kAllFpgaParams.size(), "one scenario per parameter");
        for (const auto& s : r.scenarios) {
            require(!s.autoax.empty(), "the search found a front");
            for (const autoax::EvaluatedConfig& e : s.autoax) {
                require(e.ssim <= 1.0 && e.ssim > -1.0, "SSIM is in (-1, 1]");
                const autoax::AcceleratorCost c = model.cost(e.config);
                require(c.lutCount == e.cost.lutCount && c.powerMw == e.cost.powerMw &&
                            c.latencyNs == e.cost.latencyNs,
                        "reported cost equals the model's composed cost");
            }
        }
    }

    /// Share of the best known real front (search archive + equal-budget
    /// random baseline) that the estimator-guided search found.
    static double searchShareOfFront(const autoax::AutoAxFpgaFlow::ScenarioResult& s) {
        std::vector<autoax::EvaluatedConfig> pooled = s.autoax;
        pooled.insert(pooled.end(), s.random.begin(), s.random.end());
        const std::vector<std::size_t> front = autoax::qualityCostFront(pooled, s.param);
        double fromSearch = 0.0;
        for (std::size_t pos : front)
            if (pos < s.autoax.size()) fromSearch += 1.0;
        return front.empty() ? 0.0 : fromSearch / static_cast<double>(front.size());
    }

    std::uint64_t seed_;
    std::unique_ptr<autoax::GaussianAccelerator> gaussian_;
    std::unique_ptr<autoax::SobelAccelerator> sobel_;
    double menuCircuits_ = 0.0;
    struct DseRun {
        const char* span;
        autoax::AutoAxFpgaFlow::Config config;
        const autoax::AcceleratorModel* model;
    };
    std::vector<DseRun> runs_;
    std::vector<autoax::AutoAxFpgaFlow::Result> last_;
};

// --- process entry ------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double budget = 1.0;
    bool trace = false;
    fs::path out;
};

Args parseArgs(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") a.workload = value;
        else if (key == "--seed") a.seed = std::stoull(value);
        else if (key == "--budget") a.budget = std::stod(value);
        else if (key == "--trace") a.trace = value == "1";
        else if (key == "--out") a.out = value;
        else throw std::invalid_argument("unknown argument " + key);
    }
    if (a.workload.empty() || a.out.empty())
        throw std::invalid_argument("--workload and --out are required");
    return a;
}

std::unique_ptr<Workload> makeWorkload(const Args& a) {
    if (a.workload == "flow_cold_mul16") return std::make_unique<FlowColdMul16>(a.seed, a.out);
    if (a.workload == "flow_warm_zoo") return std::make_unique<FlowWarmZoo>(a.seed, a.out);
    if (a.workload == "dse_gaussian") return std::make_unique<DseGaussian>(a.seed);
    throw std::invalid_argument("unknown workload " + a.workload);
}

std::string passJson(const PassOutcome& p, const char* kind, const std::string& error) {
    Json j;
    j.str("kind", kind);
    j.num("wall_s", p.wallS);
    j.str("digest", p.digest);
    j.num("circuits", p.circuits);
    j.num("configs", p.configs);
    j.num("front_coverage", p.frontCoverage);
    j.num("exploration_speedup", p.explorationSpeedup);
    if (!error.empty()) j.str("error", error);
    return j.done();
}

std::uint64_t counterValue(const obs::MetricsSnapshot& snap, const char* name) {
    const obs::Metric* m = snap.find(name);
    return m == nullptr ? 0 : m->counter;
}

int run(const Args& args) {
    fs::create_directories(args.out);
    std::unique_ptr<Workload> workload = makeWorkload(args);
    std::vector<std::string> passes;
    // Records one pass; returns whether it completed its checks.
    const auto runPass = [&](SpanLog* log, const char* kind) {
        PassOutcome p;
        std::string error;
        try {
            p = workload->pass(log);
        } catch (const std::exception& e) {
            error = e.what();
        }
        passes.push_back(passJson(p, kind, error));
        return error.empty();
    };

    workload->setup();
    runPass(nullptr, "warmup");
    std::printf("READY\n");
    std::fflush(stdout);

    const std::uint64_t deadline = nowNs() + static_cast<std::uint64_t>(args.budget * 1e9);
    do runPass(nullptr, "timed");
    while (nowNs() < deadline);

    Json counts;
    if (args.trace) {
        // The traced pass: benchmark spans around each layer call, the
        // program's own trace (AXF_TRACE equivalent) and metrics deltas.
        SpanLog log;
        const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
        obs::startTracing((args.out / "program_trace.json").string());
        const bool traced = runPass(&log, "traced");
        obs::stopTracing();
        obs::writeMetricsFile((args.out / "metrics.json").string());
        const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
        for (const char* name : {"search.epochs", "threadpool.tasks_run", "fault.sites_total",
                                 "fault.sites_static_skipped"})
            counts.num(name, static_cast<double>(counterValue(after, name) -
                                                 counterValue(before, name)));
        // Replays read the traced pass's results, so they need it whole.
        std::string error = traced ? "" : "skipped: the traced pass failed";
        try {
            if (traced) workload->replay(log, counts);
        } catch (const std::exception& e) {
            error = e.what();
        }
        if (!log.write((args.out / "bench_spans.json").string()) && error.empty())
            error = "cannot write bench_spans.json";
        passes.push_back(passJson(PassOutcome{}, "replay", error));
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    Json result;
    result.str("workload", args.workload);
    result.num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    std::string list = "[";
    for (std::size_t i = 0; i < passes.size(); ++i) list += (i ? "," : "") + passes[i];
    result.raw("passes", list + "]");
    result.raw("counts", counts.done());
    std::printf("%s\n", result.done().c_str());
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "axf-perfbench: %s\n", e.what());
        return 1;
    }
}
