#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "src/autoax/eval_engine.hpp"
#include "src/autoax/model.hpp"
#include "src/fault/fault.hpp"
#include "src/ml/regressor.hpp"
#include "src/search/island_search.hpp"

namespace axf::util {
class ThreadPool;
}

namespace axf::cache {
class CharacterizationCache;
}

namespace axf::autoax {

/// QoR and per-parameter hardware-cost estimators trained on a random
/// sample of really-evaluated configurations (the AutoAx recipe).  Feature
/// extraction is delegated to the model (`AcceleratorModel::features`), so
/// the estimators work for any workload.
class AcceleratorEstimators {
public:
    static AcceleratorEstimators train(const AcceleratorModel& model,
                                       const std::vector<EvaluatedConfig>& samples);

    double estimateSsim(const AcceleratorModel& model, const AcceleratorConfig& c) const;
    double estimateCost(const AcceleratorModel& model, const AcceleratorConfig& c,
                        core::FpgaParam param) const;

private:
    ml::RegressorPtr qor_;
    std::array<ml::RegressorPtr, core::kAllFpgaParams.size()> cost_;  ///< by FpgaParam
};

/// AutoAx-FPGA: the AutoAx design-space exploration retargeted at FPGA
/// parameters — random training sample, estimator construction, archive
/// hill-climbing per (FPGA parameter, SSIM) scenario, and re-evaluation of
/// the discovered pseudo-Pareto configurations.  Runs polymorphically over
/// any `AcceleratorModel`; every real evaluation is routed through one
/// batched `EvalEngine` (scenes and exact references built once, results
/// memoized by config hash, thread-parallel yet bit-identical to serial).
class AutoAxFpgaFlow {
public:
    struct Config {
        int trainConfigs = 220;      ///< random configs for estimator training
        int hillIterations = 4000;   ///< estimator-guided search moves
        int archiveSeed = 24;        ///< initial random archive size
        std::size_t archiveCap = 400;
        int imageSize = 96;
        int sceneCount = 2;
        std::uint64_t seed = 0x40A7;
        /// Worker cap for the evaluation engine AND the island search
        /// (0 = whole pool, 1 = serial); results are identical either way.
        std::size_t threads = 0;
        /// Thread pool override (nullptr = the process-global pool).
        util::ThreadPool* pool = nullptr;

        // --- island-model search (src/search) --------------------------
        /// Search islands per scenario.  1 reproduces the legacy serial
        /// archive hill-climb bit-for-bit (with searchBatch = 1 and the
        /// HillClimb strategy); N > 1 splits hillIterations across N
        /// independently seeded islands that exchange migrants on a ring.
        int islands = 1;
        /// Speculative candidates drafted per island generation (one
        /// estimator batch per generation).  1 = legacy move-by-move.
        int searchBatch = 1;
        /// Generations between ring migrations (0 = never migrate).
        int migrationInterval = 16;
        /// Archive entries offered per migration (0 = none).
        int migrants = 4;
        /// Per-island strategies, cycled (empty = HillClimb everywhere),
        /// e.g. {HillClimb, Anneal, Genetic} for a mixed fleet.
        std::vector<search::Strategy> islandStrategies;

        // --- resilience objective (src/fault) --------------------------
        /// Adds mean error-under-fault as a third archive objective
        /// (quality x cost x resilience fronts).  Each menu component is
        /// characterized once by a stuck-at campaign — cached when
        /// `cache` is set — and a configuration scores the slot-mean of
        /// its chosen components' fault MEDs.
        bool resilienceObjective = false;
        fault::CampaignConfig faultCampaign;
        cache::CharacterizationCache* cache = nullptr;

        // --- durability & cancellation (src/durable) -------------------
        /// Directory for scenario search checkpoints (empty = none).
        /// Each scenario search snapshots to `scenario_<param>.axfk` at
        /// epoch boundaries; a rerun of the flow resumes whatever is on
        /// disk (fast-forwarding completed scenarios — their final
        /// snapshot is always written) and produces a Result bit-identical
        /// to an uninterrupted run.  The deterministic phases (training,
        /// estimators, resilience table) re-run and land in the same
        /// state; with a warm `cache` they are cheap.
        std::string checkpointDirectory;
        int checkpointInterval = 1;  ///< epochs between scenario snapshots
        /// Cooperative cancellation: checked at search epoch boundaries
        /// (final checkpoint flushed first) and inside the evaluation /
        /// characterization fan-outs.  A cancelled run throws
        /// util::OperationCancelled.
        const util::CancellationToken* cancel = nullptr;
        /// Observability hook: (scenario param, generations done) after
        /// every search epoch boundary.  Tests throw from here to
        /// simulate a kill; tools pulse watchdogs / throttle epochs.
        std::function<void(core::FpgaParam, int)> onSearchEpoch;
    };

    struct ScenarioResult {
        core::FpgaParam param = core::FpgaParam::Latency;
        std::vector<EvaluatedConfig> autoax;  ///< re-evaluated archive front
        std::vector<EvaluatedConfig> random;  ///< equal-budget random baseline
        std::size_t estimatorQueries = 0;
        /// Configurations actually simulated for this scenario's archive
        /// (configs already measured — training corners, reused training
        /// entries, earlier scenarios — are deduplicated by
        /// `AcceleratorConfig::hash` and not paid for again).
        std::size_t realEvaluations = 0;
    };

    struct Result {
        double designSpaceSize = 0.0;
        std::vector<EvaluatedConfig> trainingSet;
        std::vector<ScenarioResult> scenarios;  ///< latency-, power-, area-SSIM
        /// Total configurations simulated across training, scenario
        /// re-evaluation and the random baselines (memo hits excluded).
        std::size_t totalRealEvaluations = 0;
    };

    explicit AutoAxFpgaFlow(Config config) : config_(config) {}

    Result run(const AcceleratorModel& model) const;

private:
    Config config_;
};

/// Pareto front of evaluated configs (maximize SSIM, minimize the chosen
/// FPGA parameter); returns indices into `points`.
std::vector<std::size_t> qualityCostFront(const std::vector<EvaluatedConfig>& points,
                                          core::FpgaParam param);

double costParamOf(const AcceleratorCost& cost, core::FpgaParam param);

}  // namespace axf::autoax
