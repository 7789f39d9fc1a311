#include "src/core/flow.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <span>
#include <unordered_set>

#include "src/core/fidelity.hpp"
#include "src/ml/tuning.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/synth/synth_time.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::core {

double FlowResult::meanCoverage() const {
    if (targets.empty()) return 0.0;
    double acc = 0.0;
    for (const TargetOutcome& t : targets) acc += t.coverageOfTrueFront;
    return acc / static_cast<double>(targets.size());
}

namespace {

/// FPGA-measures the not-yet-measured circuits among `indices` as one
/// batch, and charges each new measurement's Vivado-equivalent cost to
/// `secondsAccount` in `indices` order.  A characterization-cache hit
/// still charges the modeled seconds: the cache accelerates the simulation
/// infrastructure, not the methodology.  Returns the newly measured
/// indices (`indices` holds no duplicates).
std::vector<std::size_t> measureCircuits(std::vector<CharacterizedCircuit>& circuits,
                                         const std::vector<std::size_t>& indices,
                                         const synth::FpgaFlow& flow,
                                         cache::CharacterizationCache* cache,
                                         double& secondsAccount) {
    std::vector<std::size_t> fresh;
    std::vector<const circuit::Netlist*> netlists;
    for (std::size_t idx : indices) {
        if (circuits[idx].fpgaMeasured) continue;
        fresh.push_back(idx);
        netlists.push_back(&circuits[idx].circuit.netlist);
    }
    const std::vector<synth::FpgaReport> reports =
        cache::implementCachedBatch(cache, flow, netlists);
    for (std::size_t j = 0; j < fresh.size(); ++j) {
        CharacterizedCircuit& cc = circuits[fresh[j]];
        cc.fpga = reports[j];
        cc.fpgaMeasured = true;
        secondsAccount += cc.fpga.synthSeconds;
    }
    return fresh;
}

/// The Table-I models the flow scores: all of them, or those whose id is
/// in `modelIds` (in Table-I order).
std::vector<ml::ModelSpec> zooOf(const std::vector<std::string>& modelIds) {
    std::vector<ml::ModelSpec> specs = ml::tableOneModels(CircuitDataset::asicColumns());
    if (modelIds.empty()) return specs;
    std::vector<ml::ModelSpec> filtered;
    for (const ml::ModelSpec& spec : specs)
        if (std::find(modelIds.begin(), modelIds.end(), spec.id) != modelIds.end())
            filtered.push_back(spec);
    return filtered;
}

/// The variant each (model, parameter) cell chose: `[m][param]`.
using ChosenVariants = std::vector<std::array<ml::TunedModel, kAllFpgaParams.size()>>;

/// Step 3, the fidelity leaderboard.  Every (model, parameter) cell scores
/// the model's variants on the validation subset and keeps the best: the
/// whole grid when tuning, else just the Table-I default.  The cells'
/// variant fits are independent, so they run as one flattened pool-wide
/// loop, each writing its own score slot; a serial fold in grid order
/// then picks each cell's variant, so the result is the serial one bit
/// for bit.  Appends one `ModelScore` per spec to `leaderboard` and
/// returns the chosen variants that step 4 refits.
ChosenVariants fitLeaderboard(
    const std::vector<ml::ModelSpec>& specs, bool tune, const CircuitDataset& dataset,
    const std::vector<std::size_t>& training, const std::vector<std::size_t>& validation,
    std::vector<ModelScore>& leaderboard) {
    obs::Span span("leaderboard");
    static obs::Counter& fits = obs::Registry::global().counter("ml.fits");
    const ml::Matrix xTrain = dataset.featureMatrix(training);
    const ml::Matrix xVal = dataset.featureMatrix(validation);
    std::array<ml::Vector, kAllFpgaParams.size()> yTrain, yVal;
    for (FpgaParam param : kAllFpgaParams) {
        yTrain[static_cast<std::size_t>(param)] = dataset.measuredTargets(training, param);
        yVal[static_cast<std::size_t>(param)] = dataset.measuredTargets(validation, param);
    }

    struct Cell {
        std::size_t model;
        FpgaParam param;
        std::size_t variant;
    };
    std::vector<std::span<const ml::ModelVariant>> variants(specs.size());
    std::vector<Cell> cells;
    for (std::size_t m = 0; m < specs.size(); ++m) {
        const ml::ModelSpec& spec = specs[m];
        variants[m] = tune ? std::span<const ml::ModelVariant>(spec.grid)
                           : std::span<const ml::ModelVariant>(&spec.grid[spec.defaultVariant], 1);
        for (FpgaParam param : kAllFpgaParams)
            for (std::size_t v = 0; v < variants[m].size(); ++v) cells.push_back({m, param, v});
    }

    const auto fidelityScore = [](const ml::Vector& measured, const ml::Vector& estimated) {
        return fidelity(measured, estimated);
    };
    std::vector<double> scores(cells.size());
    util::ThreadPool::global().parallelFor(cells.size(), [&](std::size_t i) {
        const Cell& cell = cells[i];
        const ml::ModelVariant& variant = variants[cell.model][cell.variant];
        const auto p = static_cast<std::size_t>(cell.param);
        obs::Span fitSpan("ml_fit", specs[cell.model].id + " " + fpgaParamName(cell.param) +
                                        " " + variant.description);
        fits.add();
        scores[i] = ml::scoreVariant(variant, xTrain, yTrain[p], xVal, yVal[p], fidelityScore);
    });

    ChosenVariants chosen(specs.size());
    const std::span<const double> allScores(scores);
    std::size_t next = 0;  // first cell of the current (model, parameter)
    for (std::size_t m = 0; m < specs.size(); ++m) {
        ModelScore score;
        score.id = specs[m].id;
        score.name = specs[m].name;
        for (FpgaParam param : kAllFpgaParams) {
            ml::TunedModel& best = chosen[m][static_cast<std::size_t>(param)];
            best = ml::bestVariant(variants[m], allScores.subspan(next, variants[m].size()));
            next += variants[m].size();
            score.fidelityByParam[param] = best.validationScore;
            score.variantByParam[param] = tune ? best.variantDescription : "default";
        }
        leaderboard.push_back(std::move(score));
    }
    return chosen;
}

}  // namespace

FlowResult ApproxFpgasFlow::run(gen::AcLibrary library) const {
    FlowResult result;
    result.dataset =
        CircuitDataset::characterize(std::move(library), config_.asicFlow, config_.cache);
    std::vector<CharacterizedCircuit>& circuits = result.dataset.circuits();
    const std::size_t n = circuits.size();
    util::Rng rng(config_.seed);

    // Exhaustive-exploration cost baseline (Fig. 3 comparison).
    for (const CharacterizedCircuit& cc : circuits)
        result.exhaustiveSynthSeconds += synth::vivadoEquivalentSeconds(cc.circuit.netlist);

    // --- step 1: synthesize the random training subset --------------------
    const std::size_t subsetSize =
        std::max<std::size_t>(8, static_cast<std::size_t>(config_.trainFraction *
                                                          static_cast<double>(n)));
    std::vector<std::size_t> subset = rng.sampleIndices(n, std::min(subsetSize, n));
    measureCircuits(circuits, subset, config_.fpgaFlow, config_.cache, result.flowSynthSeconds);

    // --- step 2: train/validation split -----------------------------------
    const std::size_t valCount = std::max<std::size_t>(
        2, static_cast<std::size_t>(config_.validationShare *
                                    static_cast<double>(subset.size())));
    std::vector<std::size_t> validation(subset.begin(),
                                        subset.begin() + static_cast<std::ptrdiff_t>(
                                                             std::min(valCount, subset.size())));
    std::vector<std::size_t> training(subset.begin() + static_cast<std::ptrdiff_t>(
                                                           std::min(valCount, subset.size())),
                                      subset.end());
    if (training.empty()) training = validation;

    // --- step 3: fidelity leaderboard over the Table-I zoo ----------------
    const ChosenVariants chosen =
        fitLeaderboard(zooOf(config_.modelIds), config_.tuneHyperparameters, result.dataset,
                       training, validation, result.leaderboard);

    // --- step 4..6: per-parameter estimation, pseudo-fronts, re-synthesis --
    std::vector<std::size_t> allIndices(n);
    for (std::size_t i = 0; i < n; ++i) allIndices[i] = i;
    const ml::Matrix xAll = result.dataset.featureMatrix(allIndices);
    const ml::Matrix xSubset = result.dataset.featureMatrix(subset);

    for (FpgaParam param : kAllFpgaParams) {
        TargetOutcome outcome;
        outcome.param = param;

        // Top-k models by validation fidelity for this parameter.
        std::vector<std::size_t> ranked(result.leaderboard.size());
        std::iota(ranked.begin(), ranked.end(), std::size_t{0});
        std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
            return result.leaderboard[a].fidelityByParam.at(param) >
                   result.leaderboard[b].fidelityByParam.at(param);
        });
        const int k = std::min<int>(config_.topModels, static_cast<int>(ranked.size()));

        std::unordered_set<std::size_t> unionOfFronts;
        for (int r = 0; r < k; ++r) {
            const std::size_t m = ranked[static_cast<std::size_t>(r)];
            outcome.selectedModels.push_back(result.leaderboard[m].id);

            // Re-train on the full synthesized subset, estimate everything.
            ml::RegressorPtr model = chosen[m][static_cast<std::size_t>(param)].make();
            model->fit(xSubset, result.dataset.measuredTargets(subset, param));
            const ml::Vector estimates = model->predictAll(xAll);

            // Peel successive pseudo-Pareto fronts in (MED, estimate).
            std::vector<ParetoPoint> points(n);
            for (std::size_t i = 0; i < n; ++i)
                points[i] = ParetoPoint{qualityOf(circuits[i]), estimates[i], i};
            for (const std::vector<std::size_t>& front :
                 successiveParetoFronts(points, config_.paretoFronts))
                for (std::size_t pos : front) unionOfFronts.insert(points[pos].index);
        }

        outcome.pseudoParetoIndices.assign(unionOfFronts.begin(), unionOfFronts.end());
        std::sort(outcome.pseudoParetoIndices.begin(), outcome.pseudoParetoIndices.end());

        // Re-synthesize the pseudo-Pareto circuits to get true numbers.
        outcome.resynthesized = measureCircuits(circuits, outcome.pseudoParetoIndices,
                                                config_.fpgaFlow, config_.cache,
                                                result.flowSynthSeconds);

        result.targets.push_back(std::move(outcome));
    }

    result.circuitsSynthesized = 0;
    for (const CharacterizedCircuit& cc : circuits)
        if (cc.fpgaMeasured) ++result.circuitsSynthesized;

    // --- step 7: final Pareto fronts over measured circuits ---------------
    for (TargetOutcome& outcome : result.targets) {
        std::vector<ParetoPoint> measured;
        for (std::size_t i = 0; i < n; ++i) {
            if (!circuits[i].fpgaMeasured) continue;
            measured.push_back(
                ParetoPoint{qualityOf(circuits[i]), fpgaParamOf(circuits[i].fpga, outcome.param), i});
        }
        for (std::size_t pos : paretoFront(measured))
            outcome.finalParetoIndices.push_back(measured[pos].index);
        std::sort(outcome.finalParetoIndices.begin(), outcome.finalParetoIndices.end());
    }

    // --- evaluation only: coverage against the exhaustive ground truth ----
    if (config_.evaluateCoverage) {
        // Ground-truth measurements (not charged to the flow's time).
        std::vector<synth::FpgaReport> truth(n);
        std::vector<std::size_t> unmeasured;
        std::vector<const circuit::Netlist*> netlists;
        for (std::size_t i = 0; i < n; ++i) {
            if (circuits[i].fpgaMeasured) {
                truth[i] = circuits[i].fpga;
            } else {
                unmeasured.push_back(i);
                netlists.push_back(&circuits[i].circuit.netlist);
            }
        }
        std::vector<synth::FpgaReport> measured =
            cache::implementCachedBatch(config_.cache, config_.fpgaFlow, netlists);
        for (std::size_t j = 0; j < unmeasured.size(); ++j)
            truth[unmeasured[j]] = std::move(measured[j]);
        for (TargetOutcome& outcome : result.targets) {
            std::vector<ParetoPoint> all(n);
            for (std::size_t i = 0; i < n; ++i)
                all[i] = ParetoPoint{qualityOf(circuits[i]), fpgaParamOf(truth[i], outcome.param), i};
            std::vector<ParetoPoint> trueFront;
            for (std::size_t pos : paretoFront(all)) trueFront.push_back(all[pos]);
            std::vector<ParetoPoint> found;
            for (std::size_t idx : outcome.finalParetoIndices)
                found.push_back(ParetoPoint{0.0, 0.0, idx});
            outcome.coverageOfTrueFront = paretoCoverage(found, trueFront);
        }
    }
    return result;
}

}  // namespace axf::core
