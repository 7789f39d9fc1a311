// src/search subsystem: ParetoArchive property tests (2 and 3 objectives,
// cap thinning), IslandSearch determinism (bit-equal at any thread count,
// every strategy), and the serial-equivalence test pinning `islands = 1`
// to the pre-refactor AutoAx archive algorithm.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "src/autoax/accelerator.hpp"
#include "src/autoax/dse.hpp"
#include "src/autoax/search_problem.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/multipliers.hpp"
#include "src/img/image.hpp"
#include "src/search/island_search.hpp"
#include "src/search/pareto_archive.hpp"
#include "src/search/toy_problem.hpp"
#include "src/synth/fpga.hpp"
#include "src/util/select.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::search {
namespace {

// --- ParetoArchive -----------------------------------------------------

using IntArchive = ParetoArchive<int>;

TEST(ParetoArchive, TwoObjectiveInsertAndDominate) {
    IntArchive archive;
    EXPECT_TRUE(archive.insert(1, {1.0, 5.0}));
    EXPECT_FALSE(archive.insert(1, {0.0, 0.0}));   // duplicate genome
    EXPECT_FALSE(archive.insert(2, {2.0, 6.0}));   // dominated
    EXPECT_TRUE(archive.insert(3, {1.0, 5.0}));    // equal objectives coexist (legacy)
    EXPECT_TRUE(archive.insert(4, {2.0, 4.0}));    // trade-off coexists
    EXPECT_EQ(archive.size(), 3u);
    EXPECT_TRUE(archive.insert(5, {0.5, 3.0}));    // dominates all three -> erases them
    ASSERT_EQ(archive.size(), 1u);
    EXPECT_EQ(archive[0].genome, 5);
}

TEST(ParetoArchive, ThreeObjectiveInvariantUnderRandomInserts) {
    util::Rng rng(0x3D);
    IntArchive archive(/*cap=*/0);
    for (int i = 0; i < 400; ++i)
        archive.insert(i, {rng.uniformReal(0, 1), rng.uniformReal(0, 1),
                           rng.uniformReal(0, 1)});
    ASSERT_FALSE(archive.empty());
    // Mutual non-domination is the archive invariant.
    for (const auto& a : archive.entries())
        for (const auto& b : archive.entries()) {
            if (a.genome == b.genome) continue;
            EXPECT_FALSE(dominates(a.objectives, b.objectives))
                << a.genome << " dominates " << b.genome;
        }
}

TEST(ParetoArchive, CapThinningKeepsExtremesAlongLastAxis) {
    IntArchive archive(/*cap=*/4);
    // A clean 2-objective staircase front: no erasures, cap does the work.
    for (int i = 0; i < 16; ++i)
        archive.insert(i, {static_cast<double>(16 - i), static_cast<double>(i)});
    EXPECT_EQ(archive.size(), 4u);
    double lo = 1e30, hi = -1e30;
    for (const auto& e : archive.entries()) {
        lo = std::min(lo, e.objectives[1]);
        hi = std::max(hi, e.objectives[1]);
    }
    EXPECT_EQ(lo, 0.0);   // cheapest extreme survives
    EXPECT_EQ(hi, 15.0);  // most expensive (highest quality) extreme survives
}

// --- IslandSearch over a cheap synthetic problem -----------------------

/// The shared reference Problem (6 slots over a 0..9 menu): objective 0
/// is distance to the all-nines target, objective 1 the element sum —
/// the true front is the staircase between all-zeros and all-nines.
using TestToyProblem = ToyProblem<6, 10>;
using ToySearch = IslandSearch<TestToyProblem>;

ToySearch::Options toyOptions() {
    ToySearch::Options o;
    o.islands = 4;
    o.generations = 40;
    o.batch = 3;
    o.seedsPerIsland = 5;
    o.migrationInterval = 8;
    o.migrants = 3;
    o.archiveCap = 32;
    o.seed = 0x15A;
    o.islandStrategies = {Strategy::HillClimb, Strategy::Anneal, Strategy::Genetic};
    return o;
}

void expectSameResult(const ToySearch::Result& a, const ToySearch::Result& b) {
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.islandEvaluations, b.islandEvaluations);
    ASSERT_EQ(a.archive.size(), b.archive.size());
    for (std::size_t i = 0; i < a.archive.size(); ++i) {
        EXPECT_EQ(a.archive[i].genome, b.archive[i].genome) << "entry " << i;
        EXPECT_EQ(a.archive[i].objectives, b.archive[i].objectives) << "entry " << i;
    }
}

TEST(IslandSearch, BitIdenticalAtAnyThreadCount) {
    const TestToyProblem problem;
    ToySearch::Options serial = toyOptions();
    serial.threads = 1;
    const ToySearch::Result serialResult = IslandSearch(problem, serial).run();

    util::ThreadPool workers(3);
    ToySearch::Options pooled = toyOptions();
    pooled.pool = &workers;
    const ToySearch::Result pooledResult = IslandSearch(problem, pooled).run();
    expectSameResult(serialResult, pooledResult);

    util::ThreadPool many(7);
    ToySearch::Options wide = toyOptions();
    wide.pool = &many;
    expectSameResult(serialResult, IslandSearch(problem, wide).run());
}

TEST(IslandSearch, EveryStrategyProducesNonDominatedArchive) {
    const TestToyProblem problem;
    for (Strategy strategy : {Strategy::HillClimb, Strategy::Anneal, Strategy::Genetic}) {
        ToySearch::Options o = toyOptions();
        o.islandStrategies = {strategy};
        const ToySearch::Result result = IslandSearch(problem, o).run();
        ASSERT_FALSE(result.archive.empty()) << strategyName(strategy);
        for (const auto& a : result.archive.entries())
            for (const auto& b : result.archive.entries())
                if (!(a.genome == b.genome))
                    EXPECT_FALSE(dominates(a.objectives, b.objectives)) << strategyName(strategy);
        // The extremes are easy to reach on this toy: the search must find
        // the all-zeros cost extreme or something near it.
        double cheapest = 1e30;
        for (const auto& e : result.archive.entries())
            cheapest = std::min(cheapest, e.objectives[1]);
        EXPECT_LE(cheapest, 9.0) << strategyName(strategy);
    }
}

TEST(IslandSearch, EvaluationAccountingIsExact) {
    const TestToyProblem problem;
    ToySearch::Options o = toyOptions();
    o.islandStrategies.clear();
    const ToySearch::Result result = IslandSearch(problem, o).run();
    // Per island: seedsPerIsland + generations * batch.
    const std::size_t perIsland =
        static_cast<std::size_t>(o.seedsPerIsland + o.generations * o.batch);
    EXPECT_EQ(result.islandEvaluations.size(), static_cast<std::size_t>(o.islands));
    for (std::size_t e : result.islandEvaluations) EXPECT_EQ(e, perIsland);
    EXPECT_EQ(result.evaluations, perIsland * static_cast<std::size_t>(o.islands));
}

TEST(IslandSearch, SeededEntriesReachEveryIsland) {
    const TestToyProblem problem;
    ToySearch::Options o = toyOptions();
    o.generations = 0;
    o.seedsPerIsland = 0;
    // One unbeatable seed entry: with no search generations the merged
    // archive must still surface it (it entered every island).
    std::vector<ToySearch::Entry> seeded;
    seeded.push_back({std::vector<int>(TestToyProblem::kLen, 9), Objectives{0.0, 54.0}});
    const ToySearch::Result result = IslandSearch(problem, o).run(seeded);
    ASSERT_EQ(result.archive.size(), 1u);
    EXPECT_EQ(result.archive[0].genome, std::vector<int>(TestToyProblem::kLen, 9));
}

}  // namespace
}  // namespace axf::search

// --- serial equivalence: islands=1 == the pre-refactor DSE -------------

namespace axf::autoax {
namespace {

Component makeComponent(circuit::Netlist netlist, circuit::ArithSignature sig) {
    Component c;
    c.name = netlist.name();
    c.signature = sig;
    c.error = error::analyzeError(netlist, sig);
    c.fpga = synth::FpgaFlow().implement(netlist);
    c.netlist = std::move(netlist);
    return c;
}

const GaussianAccelerator& accelerator() {
    static const GaussianAccelerator kAccel = [] {
        std::vector<Component> mults;
        mults.push_back(makeComponent(gen::wallaceMultiplier(8), gen::multiplierSignature(8)));
        for (int t : {4, 6})
            mults.push_back(
                makeComponent(gen::truncatedMultiplier(8, t), gen::multiplierSignature(8)));
        std::vector<Component> adds;
        adds.push_back(makeComponent(gen::rippleCarryAdder(16), gen::adderSignature(16)));
        adds.push_back(makeComponent(gen::loaAdder(16, 6), gen::adderSignature(16)));
        return GaussianAccelerator(std::move(mults), std::move(adds));
    }();
    return kAccel;
}

/// VERBATIM copy of the pre-refactor (PR 3/4) archive machinery: the
/// legacy reference `AutoAxFpgaFlow::run` below is pinned against the
/// engine-backed flow, so any drift in the `islands = 1` path shows up as
/// a bit-level diff here.
struct LegacyArchiveEntry {
    AcceleratorConfig config;
    double estSsim = 0.0;
    double estCost = 0.0;
};

AcceleratorConfig legacyMutate(const ConfigSpace& space, AcceleratorConfig c, util::Rng& rng) {
    const int moves = 1 + static_cast<int>(rng.index(2));
    for (int i = 0; i < moves; ++i) {
        const std::size_t slot = rng.index(c.choice.size());
        c.choice[slot] =
            static_cast<int>(rng.index(static_cast<std::size_t>(space.menuSizeOf(slot))));
    }
    return c;
}

bool legacyArchiveInsert(std::vector<LegacyArchiveEntry>& archive, LegacyArchiveEntry entry,
                         std::size_t cap) {
    for (const LegacyArchiveEntry& e : archive) {
        if (e.config == entry.config) return false;
        if (e.estSsim >= entry.estSsim && e.estCost <= entry.estCost &&
            (e.estSsim > entry.estSsim || e.estCost < entry.estCost))
            return false;
    }
    std::erase_if(archive, [&](const LegacyArchiveEntry& e) {
        return entry.estSsim >= e.estSsim && entry.estCost <= e.estCost &&
               (entry.estSsim > e.estSsim || entry.estCost < e.estCost);
    });
    archive.push_back(std::move(entry));
    if (archive.size() > cap && cap > 0) {
        std::sort(archive.begin(), archive.end(),
                  [](const LegacyArchiveEntry& a, const LegacyArchiveEntry& b) {
                      return a.estCost < b.estCost;
                  });
        util::thinUniform(archive, cap);
    }
    return true;
}

AutoAxFpgaFlow::Result legacyRun(const AcceleratorModel& model,
                                 const AutoAxFpgaFlow::Config& config) {
    util::Rng rng(config.seed);
    const ConfigSpace& space = model.configSpace();
    AutoAxFpgaFlow::Result result;
    result.designSpaceSize = space.designSpaceSize();

    std::vector<img::Image> scenes;
    for (int s = 0; s < config.sceneCount; ++s)
        scenes.push_back(img::syntheticScene(config.imageSize, config.imageSize,
                                             config.seed + static_cast<std::uint64_t>(s)));
    EvalEngine engine(model, std::move(scenes), {.threads = config.threads});

    std::size_t trainTarget = static_cast<std::size_t>(config.trainConfigs);
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
    for (AcceleratorConfig corner : {space.accurateCorner(), space.cheapCorner()})
        if (seen.insert(corner.hash()).second) trainConfigs.push_back(std::move(corner));
    result.trainingSet = engine.evaluateBatch(trainConfigs);
    const AcceleratorEstimators estimators =
        AcceleratorEstimators::train(model, result.trainingSet);

    for (core::FpgaParam param : core::kAllFpgaParams) {
        AutoAxFpgaFlow::ScenarioResult scenario;
        scenario.param = param;
        util::Rng searchRng = rng.fork();

        std::vector<LegacyArchiveEntry> archive;
        const auto estimated = [&](AcceleratorConfig c) {
            ++scenario.estimatorQueries;
            LegacyArchiveEntry e;
            e.estSsim = estimators.estimateSsim(model, c);
            e.estCost = estimators.estimateCost(model, c, param);
            e.config = std::move(c);
            return e;
        };
        for (int i = 0; i < config.archiveSeed; ++i)
            legacyArchiveInsert(archive, estimated(space.randomConfig(searchRng)),
                                config.archiveCap);
        for (const EvaluatedConfig& t : result.trainingSet)
            legacyArchiveInsert(archive,
                                LegacyArchiveEntry{t.config, t.ssim, costParamOf(t.cost, param)},
                                config.archiveCap);

        for (int it = 0; it < config.hillIterations; ++it) {
            const LegacyArchiveEntry& parent = archive[searchRng.index(archive.size())];
            legacyArchiveInsert(archive, estimated(legacyMutate(space, parent.config, searchRng)),
                                config.archiveCap);
        }

        std::vector<AcceleratorConfig> archiveConfigs;
        archiveConfigs.reserve(archive.size());
        for (const LegacyArchiveEntry& e : archive) archiveConfigs.push_back(e.config);
        const std::size_t freshBefore = engine.freshEvaluations();
        scenario.autoax = engine.evaluateBatch(archiveConfigs);
        scenario.realEvaluations = engine.freshEvaluations() - freshBefore;

        std::vector<AcceleratorConfig> randomConfigs;
        std::unordered_set<std::uint64_t> drawn;
        std::size_t drawAttempts = 0;
        const std::size_t maxDrawAttempts = 64 * scenario.realEvaluations + 1024;
        while (randomConfigs.size() < scenario.realEvaluations &&
               drawAttempts++ < maxDrawAttempts) {
            AcceleratorConfig c = space.randomConfig(searchRng);
            if (engine.isMemoized(c) || !drawn.insert(c.hash()).second) continue;
            randomConfigs.push_back(std::move(c));
        }
        while (randomConfigs.size() < scenario.realEvaluations)
            randomConfigs.push_back(space.randomConfig(searchRng));
        scenario.random = engine.evaluateBatch(randomConfigs);

        result.scenarios.push_back(std::move(scenario));
    }
    result.totalRealEvaluations = engine.freshEvaluations();
    return result;
}

void expectSameFlowResult(const AutoAxFpgaFlow::Result& a, const AutoAxFpgaFlow::Result& b) {
    ASSERT_EQ(a.trainingSet.size(), b.trainingSet.size());
    for (std::size_t i = 0; i < a.trainingSet.size(); ++i) {
        EXPECT_EQ(a.trainingSet[i].config, b.trainingSet[i].config);
        EXPECT_EQ(a.trainingSet[i].ssim, b.trainingSet[i].ssim);
    }
    EXPECT_EQ(a.totalRealEvaluations, b.totalRealEvaluations);
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
    for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
        const auto& x = a.scenarios[s];
        const auto& y = b.scenarios[s];
        EXPECT_EQ(x.estimatorQueries, y.estimatorQueries) << "scenario " << s;
        EXPECT_EQ(x.realEvaluations, y.realEvaluations) << "scenario " << s;
        ASSERT_EQ(x.autoax.size(), y.autoax.size()) << "scenario " << s;
        for (std::size_t i = 0; i < x.autoax.size(); ++i) {
            EXPECT_EQ(x.autoax[i].config, y.autoax[i].config) << s << "/" << i;
            EXPECT_EQ(x.autoax[i].ssim, y.autoax[i].ssim) << s << "/" << i;
            EXPECT_EQ(x.autoax[i].cost.lutCount, y.autoax[i].cost.lutCount);
            EXPECT_EQ(x.autoax[i].cost.powerMw, y.autoax[i].cost.powerMw);
            EXPECT_EQ(x.autoax[i].cost.latencyNs, y.autoax[i].cost.latencyNs);
        }
        ASSERT_EQ(x.random.size(), y.random.size()) << "scenario " << s;
        for (std::size_t i = 0; i < x.random.size(); ++i) {
            EXPECT_EQ(x.random[i].config, y.random[i].config) << s << "/" << i;
            EXPECT_EQ(x.random[i].ssim, y.random[i].ssim) << s << "/" << i;
        }
    }
}

AutoAxFpgaFlow::Config smallFlowConfig() {
    AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 12;
    cfg.hillIterations = 80;
    cfg.archiveSeed = 6;
    cfg.archiveCap = 30;
    cfg.imageSize = 48;
    cfg.sceneCount = 2;
    return cfg;
}

TEST(IslandDse, SingleIslandPinsPreRefactorArchive) {
    AutoAxFpgaFlow::Config cfg = smallFlowConfig();
    cfg.threads = 1;
    // Defaults: islands = 1, searchBatch = 1, HillClimb — the legacy path.
    const AutoAxFpgaFlow::Result engine = AutoAxFpgaFlow(cfg).run(accelerator());
    const AutoAxFpgaFlow::Result legacy = legacyRun(accelerator(), cfg);
    expectSameFlowResult(legacy, engine);
}

TEST(IslandDse, MultiIslandResultBitIdenticalAtAnyThreadCount) {
    AutoAxFpgaFlow::Config cfg = smallFlowConfig();
    cfg.islands = 3;
    cfg.searchBatch = 4;
    cfg.migrationInterval = 4;
    cfg.islandStrategies = {search::Strategy::HillClimb, search::Strategy::Anneal,
                            search::Strategy::Genetic};

    AutoAxFpgaFlow::Config serialCfg = cfg;
    serialCfg.threads = 1;
    const AutoAxFpgaFlow::Result serial = AutoAxFpgaFlow(serialCfg).run(accelerator());

    util::ThreadPool workers(3);
    AutoAxFpgaFlow::Config pooledCfg = cfg;
    pooledCfg.pool = &workers;
    const AutoAxFpgaFlow::Result pooled = AutoAxFpgaFlow(pooledCfg).run(accelerator());

    expectSameFlowResult(serial, pooled);
}

TEST(IslandDse, IslandCountChangesSearchButStaysValid) {
    // 1 island vs 4 islands legitimately explore differently, but both
    // must satisfy the flow invariants (the equal-budget baseline above
    // all) — and the 4-island run must not degenerate.
    AutoAxFpgaFlow::Config cfg = smallFlowConfig();
    cfg.islands = 4;
    cfg.searchBatch = 2;
    const AutoAxFpgaFlow::Result result = AutoAxFpgaFlow(cfg).run(accelerator());
    ASSERT_EQ(result.scenarios.size(), 3u);
    for (const auto& s : result.scenarios) {
        EXPECT_FALSE(s.autoax.empty());
        EXPECT_LE(s.autoax.size(), cfg.archiveCap);
        EXPECT_EQ(s.random.size(), s.realEvaluations);
        EXPECT_GT(s.estimatorQueries, static_cast<std::size_t>(cfg.hillIterations));
    }
}

}  // namespace
}  // namespace axf::autoax
