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
#include <string>
#include <vector>

#include "src/autoax/accelerator.hpp"
#include "src/autoax/dse.hpp"
#include "src/error/error_metrics.hpp"
#include "src/fault/fault.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/multipliers.hpp"
#include "src/synth/fpga.hpp"
#include "src/util/bytes.hpp"

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

}  // namespace
}  // namespace axf
