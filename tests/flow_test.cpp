#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "src/core/flow.hpp"
#include "src/core/release.hpp"
#include "src/ml/registry.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::core {
namespace {

/// Small but real library shared by the flow tests (structural only; no
/// evolution, so this stays fast and deterministic).
gen::AcLibrary smallLibrary() {
    gen::LibraryConfig cfg;
    cfg.op = circuit::ArithOp::Multiplier;
    cfg.width = 8;  // ~90 structural designs: big enough that the flow
    cfg.structuralOnly = true;  // must not synthesize the whole library
    return gen::buildLibrary(cfg);
}

/// One shared flow run reused by the read-only assertions below.
const FlowResult& sharedResult() {
    static const FlowResult kResult = [] {
        ApproxFpgasFlow::Config cfg;
        cfg.trainFraction = 0.15;  // small library: keep the subset meaningful
        return ApproxFpgasFlow(cfg).run(smallLibrary());
    }();
    return kResult;
}

class FlowTest : public ::testing::Test {
protected:
    static const FlowResult& result() { return sharedResult(); }
};

TEST_F(FlowTest, LeaderboardCoversAllModelsAndParams) {
    EXPECT_EQ(result().leaderboard.size(), 18u);
    for (const ModelScore& s : result().leaderboard) {
        ASSERT_EQ(s.fidelityByParam.size(), 3u);
        for (const auto& [param, fidelity] : s.fidelityByParam) {
            EXPECT_GE(fidelity, 0.0);
            EXPECT_LE(fidelity, 1.0);
        }
    }
}

TEST_F(FlowTest, AccountingIsConsistent) {
    const FlowResult& r = result();
    EXPECT_GT(r.exhaustiveSynthSeconds, r.flowSynthSeconds);
    EXPECT_GT(r.speedup(), 1.0);
    std::size_t measured = 0;
    for (const CharacterizedCircuit& cc : r.dataset.circuits())
        if (cc.fpgaMeasured) ++measured;
    EXPECT_EQ(measured, r.circuitsSynthesized);
    EXPECT_LT(measured, r.dataset.size());  // flow must not synthesize everything
}

TEST_F(FlowTest, TargetsCoverAllThreeParams) {
    const FlowResult& r = result();
    ASSERT_EQ(r.targets.size(), 3u);
    std::set<FpgaParam> params;
    for (const TargetOutcome& t : r.targets) params.insert(t.param);
    EXPECT_EQ(params.size(), 3u);
}

TEST_F(FlowTest, PseudoParetoCircuitsWereSynthesized) {
    const FlowResult& r = result();
    for (const TargetOutcome& t : r.targets) {
        EXPECT_EQ(t.selectedModels.size(), 3u);
        EXPECT_FALSE(t.pseudoParetoIndices.empty());
        for (std::size_t idx : t.pseudoParetoIndices)
            EXPECT_TRUE(r.dataset.circuits()[idx].fpgaMeasured);
        // Re-synthesized circuits are a subset of the pseudo-Pareto set.
        for (std::size_t idx : t.resynthesized) {
            EXPECT_TRUE(std::binary_search(t.pseudoParetoIndices.begin(),
                                           t.pseudoParetoIndices.end(), idx));
        }
    }
}

TEST_F(FlowTest, FinalFrontIsNonDominatedAmongMeasured) {
    const FlowResult& r = result();
    for (const TargetOutcome& t : r.targets) {
        ASSERT_FALSE(t.finalParetoIndices.empty());
        for (std::size_t a : t.finalParetoIndices) {
            const CharacterizedCircuit& ca = r.dataset.circuits()[a];
            EXPECT_TRUE(ca.fpgaMeasured);
            for (std::size_t b = 0; b < r.dataset.size(); ++b) {
                const CharacterizedCircuit& cb = r.dataset.circuits()[b];
                if (!cb.fpgaMeasured || a == b) continue;
                const double qa = ca.circuit.error.med, qb = cb.circuit.error.med;
                const double pa = fpgaParamOf(ca.fpga, t.param), pb = fpgaParamOf(cb.fpga, t.param);
                EXPECT_FALSE(qb <= qa && pb <= pa && (qb < qa || pb < pa))
                    << "front member " << a << " dominated by " << b;
            }
        }
    }
}

TEST_F(FlowTest, CoverageBounded) {
    for (const TargetOutcome& t : result().targets) {
        EXPECT_GE(t.coverageOfTrueFront, 0.0);
        EXPECT_LE(t.coverageOfTrueFront, 1.0);
        // The methodology exists to find most of the true front.
        EXPECT_GT(t.coverageOfTrueFront, 0.3);
    }
    EXPECT_GT(result().meanCoverage(), 0.4);
}

TEST_F(FlowTest, DeterministicAcrossRuns) {
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    const FlowResult again = ApproxFpgasFlow(cfg).run(smallLibrary());
    EXPECT_EQ(again.circuitsSynthesized, result().circuitsSynthesized);
    for (std::size_t t = 0; t < again.targets.size(); ++t) {
        EXPECT_EQ(again.targets[t].finalParetoIndices, result().targets[t].finalParetoIndices);
        EXPECT_EQ(again.targets[t].selectedModels, result().targets[t].selectedModels);
    }
}

TEST(FlowConfig, ModelFilterRestrictsLeaderboard) {
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    cfg.modelIds = {"ML11", "ML4", "ML14"};
    cfg.topModels = 2;
    cfg.evaluateCoverage = false;
    const FlowResult r = ApproxFpgasFlow(cfg).run(smallLibrary());
    EXPECT_EQ(r.leaderboard.size(), 3u);
    for (const TargetOutcome& t : r.targets) EXPECT_EQ(t.selectedModels.size(), 2u);
}

TEST(Dataset, CharacterizeFillsFeaturesAndAsic) {
    const CircuitDataset ds = CircuitDataset::characterize(smallLibrary());
    ASSERT_GT(ds.size(), 0u);
    const ml::AsicColumns cols = CircuitDataset::asicColumns();
    for (const CharacterizedCircuit& cc : ds.circuits()) {
        ASSERT_EQ(cc.features.size(), CircuitDataset::featureDimension());
        EXPECT_DOUBLE_EQ(cc.features[cols.area], cc.asic.areaUm2);
        EXPECT_DOUBLE_EQ(cc.features[cols.delay], cc.asic.delayNs);
        EXPECT_DOUBLE_EQ(cc.features[cols.power], cc.asic.powerMw);
        EXPECT_FALSE(cc.fpgaMeasured);
    }
}

TEST(Dataset, MeasuredTargetsThrowsOnUnmeasured) {
    const CircuitDataset ds = CircuitDataset::characterize(smallLibrary());
    EXPECT_THROW(ds.measuredTargets({0}, FpgaParam::Area), std::logic_error);
}

TEST(FlowConfig, HyperparameterTuningRecordsVariants) {
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    cfg.modelIds = {"ML14", "ML16"};  // small grids keep this test fast
    cfg.topModels = 2;
    cfg.tuneHyperparameters = true;
    cfg.evaluateCoverage = false;
    const FlowResult r = ApproxFpgasFlow(cfg).run(smallLibrary());
    ASSERT_EQ(r.leaderboard.size(), 2u);
    for (const ModelScore& s : r.leaderboard) {
        for (FpgaParam param : kAllFpgaParams) {
            ASSERT_TRUE(s.variantByParam.count(param));
            EXPECT_NE(s.variantByParam.at(param), "");
            EXPECT_NE(s.variantByParam.at(param), "default");  // a grid choice was made
        }
    }
}

/// The whole zoo, every grid variant, coverage included.
FlowResult tunedFlow() {
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    cfg.tuneHyperparameters = true;
    return ApproxFpgasFlow(cfg).run(smallLibrary());
}

std::uint64_t bitsOf(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(FlowThreads, SerialRunMatchesPooledRunBitForBit) {
    const FlowResult pooled = tunedFlow();
    // On a pool worker every nested parallelFor runs inline, so this run
    // fits each leaderboard cell (and builds and measures the library)
    // one after another on one thread.
    std::optional<FlowResult> serial;
    util::ThreadPool one(1);
    one.submit([&serial] { serial = tunedFlow(); });
    one.wait();
    ASSERT_TRUE(serial.has_value());

    ASSERT_EQ(serial->leaderboard.size(), pooled.leaderboard.size());
    for (std::size_t m = 0; m < pooled.leaderboard.size(); ++m) {
        const ModelScore& a = pooled.leaderboard[m];
        const ModelScore& b = serial->leaderboard[m];
        ASSERT_EQ(a.id, b.id);
        for (FpgaParam param : kAllFpgaParams) {
            EXPECT_EQ(bitsOf(a.fidelityByParam.at(param)), bitsOf(b.fidelityByParam.at(param)))
                << a.id << " " << fpgaParamName(param);
            EXPECT_EQ(a.variantByParam.at(param), b.variantByParam.at(param))
                << a.id << " " << fpgaParamName(param);
        }
    }
    ASSERT_EQ(serial->targets.size(), pooled.targets.size());
    for (std::size_t t = 0; t < pooled.targets.size(); ++t) {
        const TargetOutcome& a = pooled.targets[t];
        const TargetOutcome& b = serial->targets[t];
        EXPECT_EQ(a.selectedModels, b.selectedModels);
        EXPECT_EQ(a.pseudoParetoIndices, b.pseudoParetoIndices);
        EXPECT_EQ(a.finalParetoIndices, b.finalParetoIndices);
        EXPECT_EQ(bitsOf(a.coverageOfTrueFront), bitsOf(b.coverageOfTrueFront));
    }
}

TEST(FlowMetrics, FitsCounterCountsOneFitPerLeaderboardCell) {
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    const obs::Counter& fits = obs::Registry::global().counter("ml.fits");
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    cfg.evaluateCoverage = false;

    std::uint64_t before = fits.value();
    ApproxFpgasFlow(cfg).run(smallLibrary());
    EXPECT_EQ(fits.value() - before, 18u * kAllFpgaParams.size());

    std::size_t gridSizes = 0;
    for (const ml::ModelSpec& spec : ml::tableOneModels(CircuitDataset::asicColumns()))
        gridSizes += spec.grid.size();
    cfg.tuneHyperparameters = true;
    before = fits.value();
    ApproxFpgasFlow(cfg).run(smallLibrary());
    EXPECT_EQ(fits.value() - before, gridSizes * kAllFpgaParams.size());
    obs::setMetricsEnabled(wasEnabled);
}

TEST(Release, WritesVerilogCAndIndex) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "axf_release_test";
    std::filesystem::remove_all(dir);
    const std::size_t released = releaseLibrary(sharedResult(), dir);
    EXPECT_GT(released, 0u);
    ASSERT_TRUE(std::filesystem::exists(dir / "index.csv"));

    // Every index row has a matching .v and .c artifact with sane content.
    std::ifstream csv(dir / "index.csv");
    std::string header, firstRow;
    std::getline(csv, header);
    ASSERT_TRUE(static_cast<bool>(std::getline(csv, firstRow)));
    const std::string name = firstRow.substr(0, firstRow.find(','));
    ASSERT_TRUE(std::filesystem::exists(dir / (name + ".v")));
    ASSERT_TRUE(std::filesystem::exists(dir / (name + ".c")));

    std::stringstream v, c;
    v << std::ifstream(dir / (name + ".v")).rdbuf();
    c << std::ifstream(dir / (name + ".c")).rdbuf();
    EXPECT_NE(v.str().find("module " + name), std::string::npos);
    EXPECT_NE(v.str().find("endmodule"), std::string::npos);
    EXPECT_NE(c.str().find("uint64_t " + name + "(uint64_t a, uint64_t b)"), std::string::npos);
    EXPECT_NE(c.str().find("return out;"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Dataset, ParamHelpers) {
    synth::FpgaReport report;
    report.latencyNs = 1.0;
    report.powerMw = 2.0;
    report.lutCount = 3.0;
    EXPECT_DOUBLE_EQ(fpgaParamOf(report, FpgaParam::Latency), 1.0);
    EXPECT_DOUBLE_EQ(fpgaParamOf(report, FpgaParam::Power), 2.0);
    EXPECT_DOUBLE_EQ(fpgaParamOf(report, FpgaParam::Area), 3.0);
    EXPECT_STREQ(fpgaParamName(FpgaParam::Power), "power");
}

}  // namespace
}  // namespace axf::core
