// Cross-commit result pins: exact bit patterns of representative reports,
// recorded once and compared on every build.  The in-process differential
// tests (backends, threads) prove that two execution shapes of the SAME
// commit agree; these pins prove that a refactor of the engine (block
// shape, kernel tables, accumulation plumbing) did not move a single bit
// relative to the commit that recorded them.  Doubles are pinned as their
// IEEE-754 bit patterns in hex; whole reports as an FNV-1a digest of their
// serialized bytes.  A pin must never be re-recorded to make a change pass:
// a moved pin means a result changed.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/autoax/accelerator.hpp"
#include "src/autoax/dse.hpp"
#include "src/core/flow.hpp"
#include "src/error/error_metrics.hpp"
#include "src/fault/fault.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/library.hpp"
#include "src/gen/multipliers.hpp"
#include "src/ml/tuning.hpp"
#include "src/synth/fpga.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"

namespace axf {
namespace {

std::string hex(std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::string bits(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }

std::string fnv1a(const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return hex(h);
}

std::string fnv1a(const std::string& text) {
    return fnv1a(std::vector<std::uint8_t>(text.begin(), text.end()));
}

template <typename Report>
std::string digest(const Report& report) {
    util::ByteWriter out;
    report.serialize(out);
    return fnv1a(out.take());
}

/// Every field of an ErrorReport, doubles as bit patterns.
struct ErrorPins {
    std::string med, mae, wce, mre, ep, mse;
    std::uint64_t vectors;
    bool exhaustive;
};

void expectPins(const error::ErrorReport& r, const ErrorPins& pin) {
    EXPECT_EQ(bits(r.med), pin.med);
    EXPECT_EQ(bits(r.meanAbsoluteError), pin.mae);
    EXPECT_EQ(bits(r.worstCaseError), pin.wce);
    EXPECT_EQ(bits(r.meanRelativeError), pin.mre);
    EXPECT_EQ(bits(r.errorProbability), pin.ep);
    EXPECT_EQ(bits(r.meanSquaredError), pin.mse);
    EXPECT_EQ(r.vectorsEvaluated, pin.vectors);
    EXPECT_EQ(r.exhaustive, pin.exhaustive);
}

TEST(ResultPin, ExhaustiveMultiplier8x8ErrorReport) {
    const error::ErrorReport r =
        error::analyzeError(gen::drumMultiplier(8, 4), gen::multiplierSignature(8));
    expectPins(r, {"0x3f8d2912bc660fb9", "0x408ceeddc0000000", "0x40bd010000000000",
                   "0x3fade7c4e94474f5", "0x3fef450000000000", "0x4140401da2e00000", 65536,
                   true});
}

TEST(ResultPin, SampledMultiplier16x16ErrorReport) {
    // 20,000 draws: two full 8192-vector chunks plus a partial one whose
    // last block is a partial block.
    error::ErrorAnalysisConfig cfg;
    cfg.sampleCount = 20000;
    const error::ErrorReport r =
        error::analyzeError(gen::truncatedMultiplier(16, 8), gen::multiplierSignature(16), cfg);
    expectPins(r, {"0x3e7c181b4fa49031", "0x407c17e31f8a0903", "0x409a040000000000",
                   "0x3eda3e114b9f5dea", "0x3fef652bd3c36113", "0x41102387fff2e48f", 20000,
                   false});
}

TEST(ResultPin, SampledAdder16ResilienceReport) {
    fault::CampaignConfig cfg;
    cfg.analysis.sampleCount = 1000;  // 15 full 64-lane batches and a partial one
    const fault::ResilienceReport r =
        fault::analyzeResilience(gen::loaAdder(16, 6), gen::adderSignature(16), cfg);
    EXPECT_FALSE(r.exhaustive);
    EXPECT_EQ(r.faults.size(), 118u);
    EXPECT_EQ(bits(r.nominal.med), "0x3f17d2866a13b9f3");
    EXPECT_EQ(bits(r.meanMedUnderFault), "0x3f95be80ee17f61b");
    EXPECT_EQ(bits(r.worstMedUnderFault), "0x3fd021892fdf33f8");
    EXPECT_EQ(bits(r.faultCoverage), "0x3ff0000000000000");
    EXPECT_EQ(digest(r), "0x3e2f3b2405dc64f2");
}

TEST(ResultPin, ExhaustiveAdder8ResilienceReport) {
    const fault::ResilienceReport r =
        fault::analyzeResilience(gen::acaAdder(8, 4), gen::adderSignature(8), {});
    EXPECT_TRUE(r.exhaustive);
    EXPECT_EQ(r.faults.size(), 184u);
    EXPECT_EQ(bits(r.nominal.med), "0x3f8e1e1e1e1e1e1e");
    EXPECT_EQ(bits(r.meanMedUnderFault), "0x3fa6a7e94d79ff8d");
    EXPECT_EQ(bits(r.worstMedUnderFault), "0x3fd0666666666666");
    EXPECT_EQ(bits(r.faultCoverage), "0x3fee9bd37a6f4dea");
    EXPECT_EQ(digest(r), "0x462c6fa4ec56ddba");
}

TEST(ResultPin, ExhaustiveMultiplier8x8ResilienceReport) {
    const fault::ResilienceReport r =
        fault::analyzeResilience(gen::drumMultiplier(8, 4), gen::multiplierSignature(8), {});
    EXPECT_TRUE(r.exhaustive);
    EXPECT_EQ(r.faults.size(), 466u);
    EXPECT_EQ(bits(r.meanMedUnderFault), "0x3fa6bc061d8dfd55");
    EXPECT_EQ(digest(r), "0x850d864084715747");
}

autoax::Component makeComponent(circuit::Netlist netlist, circuit::ArithSignature sig) {
    autoax::Component c;
    c.name = netlist.name();
    c.signature = sig;
    c.error = error::analyzeError(netlist, sig);
    c.fpga = synth::FpgaFlow().implement(netlist);
    c.netlist = std::move(netlist);
    return c;
}

void writeEvaluated(util::ByteWriter& out, const autoax::EvaluatedConfig& e) {
    out.u32(static_cast<std::uint32_t>(e.config.choice.size()));
    for (const int c : e.config.choice) out.u32(static_cast<std::uint32_t>(c));
    out.f64(e.ssim);
    out.f64(e.cost.lutCount);
    out.f64(e.cost.powerMw);
    out.f64(e.cost.latencyNs);
    out.f64(e.cost.synthSeconds);
}

/// True when this build fuses `a * b + c` into one rounding.  GCC does so
/// by default in C++ when the target has FMA and it optimizes at -O2 or
/// above, so the -march=native Release build on an FMA host and the
/// AXF_NATIVE=OFF (or Debug, or -ffp-contract=off) builds reach different,
/// each deterministic, bits in the flow's floating-point stages (power
/// estimation, the QoR/cost estimators).  This file is compiled with the
/// library's flags, so the probe answers for the library too.
[[gnu::noinline]] double mulAdd(double a, double b, double c) { return a * b + c; }

bool buildFusesMultiplyAdd() {
    volatile double one = 1.0;  // keeps the probe out of constant folding
    const double e = std::ldexp(static_cast<double>(one), -30);
    // (1 + e)(1 - e) - 1 is exactly -2^-60 when fused and 0 when the
    // product is rounded first.
    return mulAdd(one + e, one - e, -one) != 0.0;
}

/// The value recorded for this build shape.  The ML fits shift with where
/// GCC contracts `a * b + c`, which follows inlining as well as the FMA
/// probe above: the instrumented RelWithDebInfo ASan+UBSan build that CI
/// runs inlines differently from the -march=native Release build, so it
/// has its own values.  A sanitizer build without FMA has none recorded.
template <typename T>
T forThisBuild(T fused, T unfused, T sanitized) {
#if defined(__SANITIZE_ADDRESS__)
    (void)fused;
    (void)unfused;
    return sanitized;
#else
    (void)sanitized;
    return buildFusesMultiplyAdd() ? fused : unfused;
#endif
}

TEST(ResultPin, SmallGaussianAutoAxFlowResult) {
    // The Gaussian accelerator and flow configuration of eval_engine_test.
    std::vector<autoax::Component> mults;
    mults.push_back(makeComponent(gen::wallaceMultiplier(8), gen::multiplierSignature(8)));
    for (int t : {4, 6})
        mults.push_back(
            makeComponent(gen::truncatedMultiplier(8, t), gen::multiplierSignature(8)));
    std::vector<autoax::Component> adds;
    adds.push_back(makeComponent(gen::rippleCarryAdder(16), gen::adderSignature(16)));
    adds.push_back(makeComponent(gen::loaAdder(16, 6), gen::adderSignature(16)));
    const autoax::GaussianAccelerator accelerator(std::move(mults), std::move(adds));

    autoax::AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 12;
    cfg.hillIterations = 80;
    cfg.archiveSeed = 6;
    cfg.archiveCap = 30;
    cfg.imageSize = 48;
    cfg.sceneCount = 2;
    cfg.threads = 1;
    const autoax::AutoAxFpgaFlow::Result r = autoax::AutoAxFpgaFlow(cfg).run(accelerator);

    util::ByteWriter out;
    out.f64(r.designSpaceSize);
    out.u64(r.totalRealEvaluations);
    out.u32(static_cast<std::uint32_t>(r.trainingSet.size()));
    for (const auto& e : r.trainingSet) writeEvaluated(out, e);
    out.u32(static_cast<std::uint32_t>(r.scenarios.size()));
    for (const auto& s : r.scenarios) {
        out.u32(static_cast<std::uint32_t>(s.param));
        out.u64(s.estimatorQueries);
        out.u64(s.realEvaluations);
        out.u32(static_cast<std::uint32_t>(s.autoax.size()));
        for (const auto& e : s.autoax) writeEvaluated(out, e);
        out.u32(static_cast<std::uint32_t>(s.random.size()));
        for (const auto& e : s.random) writeEvaluated(out, e);
    }
    // Both build shapes are pinned exactly; the probe picks which applies.
    const bool fused = buildFusesMultiplyAdd();
    EXPECT_EQ(r.totalRealEvaluations, fused ? 124u : 120u);
    ASSERT_FALSE(r.trainingSet.empty());
    EXPECT_EQ(bits(r.trainingSet.front().ssim), "0x3fef90c9f39d011a");
    EXPECT_EQ(fnv1a(out.take()), fused ? "0x428a3160117cd449" : "0x8989a72ccb7a4ccb");
}

/// One small ApproxFPGAs run over the 47 structural 8-bit multipliers.
core::FlowResult smallApproxFpgasFlow(bool tune) {
    gen::LibraryConfig lib;
    lib.op = circuit::ArithOp::Multiplier;
    lib.width = 8;
    lib.structuralOnly = true;
    core::ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.5;     // 23 measured circuits,
    cfg.validationShare = 0.35;  // 8 of them validate: 64 fidelity pairs
    cfg.tuneHyperparameters = tune;
    cfg.evaluateCoverage = false;
    return core::ApproxFpgasFlow(cfg).run(gen::buildLibrary(lib));
}

/// Readable renderings of a flow result; each is pinned as a digest and
/// printed whole when its digest moves.
struct FlowText {
    std::string fidelity;  ///< "ML4 latency 0x..." per (model, parameter)
    std::string variants;  ///< "ML4 latency components=4" per (model, parameter)
    std::string outcomes;  ///< selected models and both fronts per parameter
};

FlowText renderFlow(const core::FlowResult& r) {
    FlowText t;
    for (const core::ModelScore& s : r.leaderboard)
        for (core::FpgaParam param : core::kAllFpgaParams) {
            const std::string key = s.id + " " + core::fpgaParamName(param) + " ";
            t.fidelity += key + bits(s.fidelityByParam.at(param)) + "\n";
            t.variants += key + s.variantByParam.at(param) + "\n";
        }
    for (const core::TargetOutcome& o : r.targets) {
        t.outcomes += std::string(core::fpgaParamName(o.param)) + " selected";
        for (const std::string& id : o.selectedModels) t.outcomes += " " + id;
        t.outcomes += " pseudo";
        for (std::size_t i : o.pseudoParetoIndices) t.outcomes += " " + std::to_string(i);
        t.outcomes += " final";
        for (std::size_t i : o.finalParetoIndices) t.outcomes += " " + std::to_string(i);
        t.outcomes += "\n";
    }
    return t;
}

struct FlowPins {
    const char* fidelity;
    const char* variants;
    const char* outcomes;
};

void expectFlowPins(const core::FlowResult& r, const FlowPins& pin) {
    ASSERT_EQ(r.leaderboard.size(), 18u);
    const FlowText t = renderFlow(r);
    EXPECT_EQ(fnv1a(t.fidelity), pin.fidelity) << t.fidelity;
    EXPECT_EQ(fnv1a(t.variants), pin.variants) << t.variants;
    EXPECT_EQ(fnv1a(t.outcomes), pin.outcomes) << t.outcomes;
}

TEST(ResultPin, SmallApproxFpgasFlowLeaderboard) {
    // Untuned: every variant string is "default" in every build shape.
    expectFlowPins(smallApproxFpgasFlow(false),
                   forThisBuild<FlowPins>(
                       {"0x3cefeb7dd0eb27b8", "0x9b0c9126bc3a4207", "0x903046f9a3d215a5"},
                       {"0x0f4046c15db1678e", "0x9b0c9126bc3a4207", "0xf68d463f7cd07d79"},
                       {"0x5b6168a132b79753", "0x9b0c9126bc3a4207", "0x903046f9a3d215a5"}));
}

TEST(ResultPin, SmallTunedApproxFpgasFlowLeaderboard) {
    expectFlowPins(smallApproxFpgasFlow(true),
                   forThisBuild<FlowPins>(
                       {"0x15dc7452ad5763b3", "0x16b61ba052bce030", "0x1b3e4afc125c41be"},
                       {"0xb4448d03c0dd4764", "0x61c6a196aff15f69", "0x3e8c4a847ea22a5e"},
                       {"0x05d17fcab4e5f244", "0x7b77e97279e0ba4b", "0xb32799180eb483b4"}));
}

TEST(ResultPin, TableOneVariantPredictions) {
    // A fixed nonlinear task whose columns 3..5 play the ASIC metrics.
    // Predictions are pinned on held-out rows: on a training row KNN finds
    // an exact match and returns its target for every k.
    util::Rng rng(0x91A);
    const std::size_t trainRows = 90, testRows = 30, dims = 6;
    ml::Matrix xTrain(trainRows, dims), xTest(testRows, dims);
    ml::Vector yTrain(trainRows);
    for (std::size_t r = 0; r < trainRows + testRows; ++r) {
        ml::Matrix& x = r < trainRows ? xTrain : xTest;
        const std::size_t row = r < trainRows ? r : r - trainRows;
        for (std::size_t c = 0; c < 3; ++c) x.at(row, c) = rng.uniformReal(0.0, 10.0);
        const double t = 3.0 * x.at(row, 0) + 0.4 * x.at(row, 1) * x.at(row, 1) +
                         2.0 * std::sqrt(x.at(row, 2) + 1.0) + rng.gaussian(0.0, 0.8);
        x.at(row, 3) = 0.8 * t + rng.gaussian(0.0, 2.0);
        x.at(row, 4) = 0.5 * t + rng.gaussian(0.0, 4.0);
        x.at(row, 5) = 1.2 * t + rng.gaussian(0.0, 1.0);
        if (r < trainRows) yTrain[row] = t;
    }
    const ml::AsicColumns asic{3, 4, 5};

    // The grid variant each Table-I default equals.
    const std::map<std::string, std::string> defaults = {
        {"ML1", "default"},        {"ML2", "default"},           {"ML3", "default"},
        {"ML4", "components=4"},   {"ML5", "trees=40"},          {"ML6", "lr=0.080000"},
        {"ML7", "depth=4"},        {"ML8", "noise=0.050000"},    {"ML9", "generations=28"},
        {"ML10", "alpha=0.080000"}, {"ML11", "iterations=30"},   {"ML12", "alpha=0.010000"},
        {"ML13", "maxActive=0"},   {"ML14", "alpha=1.000000"},   {"ML15", "eta0=0.020000"},
        {"ML16", "k=5"},           {"ML17", "hidden=16"},        {"ML18", "depth=10"}};

    const auto predictionBits = [&](ml::RegressorPtr model) {
        model->fit(xTrain, yTrain);
        std::vector<std::uint64_t> out;
        for (const double p : model->predictAll(xTest))
            out.push_back(std::bit_cast<std::uint64_t>(p));
        return out;
    };

    std::string digests;
    for (const ml::ModelSpec& spec : ml::tableOneModels(asic)) {
        const std::vector<std::uint64_t> defaultBits = predictionBits(spec.make());
        util::ByteWriter out;
        bool sawDefault = false;
        for (const ml::ModelVariant& variant : ml::hyperparameterGrid(spec.id, asic)) {
            const std::vector<std::uint64_t> variantBits = predictionBits(variant.make());
            out.raw(variant.description.data(), variant.description.size());
            for (const std::uint64_t b : variantBits) out.u64(b);
            if (variant.description == defaults.at(spec.id)) {
                sawDefault = true;
                EXPECT_EQ(variantBits, defaultBits) << spec.id << " " << variant.description;
            }
        }
        EXPECT_TRUE(sawDefault) << spec.id;
        digests += spec.id + " " + fnv1a(out.take()) + "\n";
    }
    EXPECT_EQ(fnv1a(digests), forThisBuild<std::string>("0x5fd2e85f5306fbb2",
                                                        "0x8f266c4702bbe2f7",
                                                        "0xe59735610fca6471"))
        << digests;
}

}  // namespace
}  // namespace axf
