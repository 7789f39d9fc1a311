#include "src/autoax/dse.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <optional>
#include <unordered_set>

#include "src/autoax/search_problem.hpp"
#include "src/cache/characterization_cache.hpp"
#include "src/core/pareto.hpp"
#include "src/ml/registry.hpp"
#include "src/obs/trace.hpp"
#include "src/util/rng.hpp"

namespace axf::autoax {

double costParamOf(const AcceleratorCost& cost, core::FpgaParam param) {
    switch (param) {
        case core::FpgaParam::Latency: return cost.latencyNs;
        case core::FpgaParam::Power: return cost.powerMw;
        case core::FpgaParam::Area: return cost.lutCount;
    }
    return 0.0;
}

AcceleratorEstimators AcceleratorEstimators::train(const AcceleratorModel& model,
                                                   const std::vector<EvaluatedConfig>& samples) {
    std::vector<ml::Vector> rows;
    ml::Vector ssim;
    std::array<ml::Vector, core::kAllFpgaParams.size()> cost;
    for (const EvaluatedConfig& s : samples) {
        rows.push_back(model.features(s.config));
        ssim.push_back(s.ssim);
        for (core::FpgaParam param : core::kAllFpgaParams)
            cost[static_cast<std::size_t>(param)].push_back(costParamOf(s.cost, param));
    }
    const ml::Matrix x = ml::Matrix::fromRows(rows);

    // QoR is strongly non-linear in the error mass -> forest (ML5); the
    // cost metrics are near-additive -> Bayesian ridge (ML11).  The paper
    // reuses its best library-level estimators here, as Table-I defaults.
    const std::vector<ml::ModelSpec> table = ml::tableOneModels({});
    AcceleratorEstimators est;
    est.qor_ = ml::findModel(table, "ML5").make();
    est.qor_->fit(x, ssim);
    for (std::size_t p = 0; p < cost.size(); ++p) {
        est.cost_[p] = ml::findModel(table, "ML11").make();
        est.cost_[p]->fit(x, cost[p]);
    }
    return est;
}

double AcceleratorEstimators::estimateSsim(const AcceleratorModel& model,
                                           const AcceleratorConfig& c) const {
    return qor_->predict(model.features(c));
}

double AcceleratorEstimators::estimateCost(const AcceleratorModel& model,
                                           const AcceleratorConfig& c,
                                           core::FpgaParam param) const {
    return cost_[static_cast<std::size_t>(param)]->predict(model.features(c));
}

std::vector<std::size_t> qualityCostFront(const std::vector<EvaluatedConfig>& points,
                                          core::FpgaParam param) {
    std::vector<core::ParetoPoint> pp(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        pp[i] = core::ParetoPoint{1.0 - points[i].ssim, costParamOf(points[i].cost, param), i};
    return core::paretoFront(pp);
}

namespace {

/// Equal-budget random baseline: exactly `count` configurations, drawn so
/// the batch pays the same number of FRESH simulations as the archive
/// re-evaluation it is compared against.  Budget invariant: a draw the
/// engine would serve from its memo — or one repeating an earlier draw of
/// this batch — costs nothing fresh, so it consumes one of the
/// `64 * count + 1024` bounded attempts instead of budget; once attempts
/// are exhausted (a small, nearly-memoized design space), plain draws pad
/// the result, so the returned batch always holds `count` configs and
/// never pays more than `count` fresh simulations.
std::vector<AcceleratorConfig> drawEqualBudgetBaseline(const ConfigSpace& space,
                                                       const EvalEngine& engine,
                                                       util::Rng& rng, std::size_t count) {
    std::vector<AcceleratorConfig> configs;
    configs.reserve(count);
    std::unordered_set<std::uint64_t> drawn;
    std::size_t attempts = 0;
    const std::size_t maxAttempts = 64 * count + 1024;
    while (configs.size() < count) {
        AcceleratorConfig c = space.randomConfig(rng);
        if (attempts++ < maxAttempts &&
            (engine.isMemoized(c) || !drawn.insert(c.hash()).second))
            continue;
        configs.push_back(std::move(c));
    }
    return configs;
}

/// File-name slug of a scenario's checkpoint inside `checkpointDirectory`.
const char* paramSlug(core::FpgaParam param) {
    switch (param) {
        case core::FpgaParam::Latency: return "latency";
        case core::FpgaParam::Power: return "power";
        case core::FpgaParam::Area: return "area";
    }
    return "param";
}

}  // namespace

AutoAxFpgaFlow::Result AutoAxFpgaFlow::run(const AcceleratorModel& model) const {
    obs::Span flowSpan("dse_flow");
    util::Rng rng(config_.seed);
    const ConfigSpace& space = model.configSpace();
    Result result;
    result.designSpaceSize = space.designSpaceSize();

    // Scenes and their exact references are built exactly once and shared
    // by the training sample, all three scenarios and the baselines.
    std::vector<img::Image> scenes;
    for (int s = 0; s < config_.sceneCount; ++s)
        scenes.push_back(img::syntheticScene(config_.imageSize, config_.imageSize,
                                             config_.seed + static_cast<std::uint64_t>(s)));
    EvalEngine engine(model, std::move(scenes),
                      {.threads = config_.threads, .pool = config_.pool,
                       .cancel = config_.cancel});
    if (!config_.checkpointDirectory.empty())
        std::filesystem::create_directories(config_.checkpointDirectory);

    // --- training sample (random approximation assignments) ---------------
    // The distinct-sample target is capped at the design-space size (a
    // small workload — e.g. a Sobel accelerator over a short menu — holds
    // fewer distinct configs than the default trainConfigs), and rejection
    // sampling is attempt-bounded so near-exhausted spaces terminate too.
    std::optional<obs::Span> phaseSpan;
    phaseSpan.emplace("train_estimators");
    std::size_t trainTarget = static_cast<std::size_t>(config_.trainConfigs);
    if (space.designSpaceSize() < static_cast<double>(trainTarget))
        trainTarget = static_cast<std::size_t>(space.designSpaceSize());
    std::unordered_set<std::uint64_t> seen;
    std::vector<AcceleratorConfig> trainConfigs;
    std::size_t attempts = 0;
    const std::size_t maxAttempts = 64 * trainTarget + 1024;
    while (trainConfigs.size() < trainTarget && attempts++ < maxAttempts) {
        AcceleratorConfig c = space.randomConfig(rng);
        if (!seen.insert(c.hash()).second) continue;
        trainConfigs.push_back(std::move(c));
    }
    // Anchor the estimators (and the search archives below) with the two
    // known corners: all-most-accurate (menus are MED-sorted, index 0) and
    // all-cheapest.  Random assignments almost never hit these extremes.
    for (AcceleratorConfig corner : {space.accurateCorner(), space.cheapCorner()})
        if (seen.insert(corner.hash()).second) trainConfigs.push_back(std::move(corner));
    result.trainingSet = engine.evaluateBatch(trainConfigs);
    const AcceleratorEstimators estimators =
        AcceleratorEstimators::train(model, result.trainingSet);
    phaseSpan.reset();

    // --- per-component resilience characterization -------------------------
    // Slot-major [slot][choice] table of mean error-under-fault: each menu
    // entry is campaigned exactly once per group (content-addressed in the
    // characterization cache when one is provided), then the group's MED
    // column is shared by all of its slots.
    std::vector<std::vector<double>> resilienceTable;
    if (config_.resilienceObjective) {
        obs::Span resilienceSpan("resilience_table");
        fault::CampaignConfig faultCampaign = config_.faultCampaign;
        if (faultCampaign.analysis.cancel == nullptr)
            faultCampaign.analysis.cancel = config_.cancel;
        for (std::size_t g = 0; g < space.groups.size(); ++g) {
            std::vector<double> med(static_cast<std::size_t>(space.groups[g].menuSize), 0.0);
            if (const std::vector<Component>* menu = model.componentMenu(g))
                for (std::size_t c = 0; c < menu->size() && c < med.size(); ++c) {
                    const Component& comp = (*menu)[c];
                    med[c] = cache::analyzeResilienceCached(
                                 config_.cache, comp.netlist.structuralHash(), comp.netlist,
                                 comp.signature, faultCampaign)
                                 .meanMedUnderFault;
                }
            for (int s = 0; s < space.groups[g].slots; ++s) resilienceTable.push_back(med);
        }
    }

    // --- per-scenario estimator-guided island search -----------------------
    // The search itself runs on the `search::IslandSearch` engine: N
    // islands (1 = the legacy serial archive hill-climb, bit-for-bit)
    // over the `AcceleratorSearchProblem` adapter, ring migration, and a
    // block-ordered merge — deterministic at any thread count.
    using Search = search::IslandSearch<AcceleratorSearchProblem>;
    for (core::FpgaParam param : core::kAllFpgaParams) {
        obs::Span scenarioSpan("scenario_search");
        ScenarioResult scenario;
        scenario.param = param;
        // One draw per scenario (the legacy `rng.fork()`): island 0 keeps
        // this seed, so the flow RNG stream and the single-island search
        // stream both match the pre-engine code exactly.
        const std::uint64_t searchSeed = rng.uniformInt(0, UINT64_MAX);

        AcceleratorSearchProblem problem(model, estimators, param);
        if (config_.resilienceObjective) problem.setResilienceObjective(resilienceTable);
        Search::Options searchOptions;
        searchOptions.islands = config_.islands;
        searchOptions.batch = config_.searchBatch;
        // hillIterations stays the TOTAL estimator-guided move budget: it
        // is split across islands and speculative batches (rounded up).
        const int perGeneration = std::max(1, config_.islands * config_.searchBatch);
        searchOptions.generations =
            (config_.hillIterations + perGeneration - 1) / perGeneration;
        searchOptions.seedsPerIsland = config_.archiveSeed;
        searchOptions.migrationInterval = config_.migrationInterval;
        searchOptions.migrants = config_.migrants;
        searchOptions.archiveCap = config_.archiveCap;
        searchOptions.seed = searchSeed;
        searchOptions.islandStrategies = config_.islandStrategies;
        searchOptions.threads = config_.threads;
        searchOptions.pool = config_.pool;

        // Durability: each scenario snapshots to its own file, identified
        // by a digest folding the search options (incl. the per-scenario
        // seed) with the scenario parameter, so resuming a latency
        // checkpoint into a power scenario is rejected loudly.
        if (!config_.checkpointDirectory.empty())
            searchOptions.checkpointPath = config_.checkpointDirectory + "/scenario_" +
                                           paramSlug(param) + ".axfk";
        searchOptions.checkpointInterval = config_.checkpointInterval;
        searchOptions.problemDigest =
            0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(param) + 1) +
            (config_.resilienceObjective ? 0xF00Dull : 0);
        searchOptions.cancel = config_.cancel;
        if (config_.onSearchEpoch)
            searchOptions.onEpoch = [hook = config_.onSearchEpoch, param](int done) {
                hook(param, done);
            };

        // The training sample is free knowledge: every island archive is
        // seeded with it (after its private random seeds), real SSIM and
        // cost standing in for estimates exactly as before.
        std::vector<Search::Entry> seeded;
        seeded.reserve(result.trainingSet.size());
        for (const EvaluatedConfig& t : result.trainingSet)
            seeded.push_back({t.config, problem.objectives(
                                            t.ssim, costParamOf(t.cost, param), t.config)});
        const Search search(problem, searchOptions);
        // With checkpointing on, resume whatever the last run left behind
        // (a completed scenario fast-forwards off its final snapshot);
        // fresh runs and checkpoint-less runs are the plain path.
        Search::Result searched = searchOptions.checkpointPath.empty()
                                      ? search.run(seeded)
                                      : search.runOrResume(seeded);
        scenario.estimatorQueries = searched.evaluations;

        // Re-evaluate the discovered pseudo-Pareto configurations for real
        // — in one batch, and paying only for configs not measured before
        // (the engine memo spans training set and earlier scenarios).
        std::vector<AcceleratorConfig> archiveConfigs;
        archiveConfigs.reserve(searched.archive.size());
        for (const Search::Entry& e : searched.archive.entries())
            archiveConfigs.push_back(e.genome);
        const std::size_t freshBefore = engine.freshEvaluations();
        scenario.autoax = engine.evaluateBatch(archiveConfigs);
        scenario.realEvaluations = engine.freshEvaluations() - freshBefore;

        // The baseline continues island 0's RNG stream — with one island
        // that is exactly where the legacy serial search left it.
        util::Rng baselineRng = std::move(searched.islandRngs.front());
        scenario.random = engine.evaluateBatch(drawEqualBudgetBaseline(
            space, engine, baselineRng, scenario.realEvaluations));

        result.scenarios.push_back(std::move(scenario));
    }
    result.totalRealEvaluations = engine.freshEvaluations();
    return result;
}

}  // namespace axf::autoax
