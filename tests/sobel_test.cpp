// Sobel accelerator workload: exact-config fidelity, approximation
// behaviour, cost composition, and an end-to-end AutoAx DSE smoke test
// through the same engine as the Gaussian case study.

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/autoax/dse.hpp"
#include "src/autoax/sobel.hpp"
#include "src/circuit/simulator.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/adders.hpp"
#include "src/synth/fpga.hpp"

namespace axf::autoax {
namespace {

Component makeAdder(circuit::Netlist netlist) {
    Component c;
    c.name = netlist.name();
    c.signature = gen::adderSignature(16);
    c.error = error::analyzeError(netlist, c.signature);
    c.fpga = synth::FpgaFlow().implement(netlist);
    c.netlist = std::move(netlist);
    return c;
}

const SobelAccelerator& sobel() {
    static const SobelAccelerator kSobel = [] {
        std::vector<Component> menu;
        menu.push_back(makeAdder(gen::rippleCarryAdder(16)));
        menu.push_back(makeAdder(gen::loaAdder(16, 5)));
        menu.push_back(makeAdder(gen::loaAdder(16, 9)));
        return SobelAccelerator(std::move(menu));
    }();
    return kSobel;
}

TEST(SobelAccelerator, RejectsBadMenus) {
    EXPECT_THROW(SobelAccelerator({}), std::invalid_argument);
    std::vector<Component> wrongWidth;
    wrongWidth.push_back([] {
        Component c;
        c.signature = gen::adderSignature(8);
        c.netlist = gen::rippleCarryAdder(8);
        return c;
    }());
    EXPECT_THROW(SobelAccelerator(std::move(wrongWidth)), std::invalid_argument);
}

TEST(SobelAccelerator, ConfigSpaceIsThreeAdderSlots) {
    const ConfigSpace& space = sobel().configSpace();
    ASSERT_EQ(space.groups.size(), 1u);
    EXPECT_EQ(space.groups[0].name, "adder");
    EXPECT_EQ(space.groups[0].slots, 3);
    EXPECT_DOUBLE_EQ(sobel().designSpaceSize(), 27.0);
}

TEST(SobelAccelerator, ExactConfigMatchesReference) {
    // With exact adders in every slot the behavioural pipeline (bias,
    // two's-complement subtraction, 16-bit truncation) must collapse to
    // the plain Sobel arithmetic.
    const img::Image scene = img::syntheticScene(48, 48, 0x5E);
    const AcceleratorConfig exact = sobel().configSpace().accurateCorner();
    EXPECT_EQ(sobel().filter(scene, exact).pixels(), sobel().filterExact(scene).pixels());
    EXPECT_DOUBLE_EQ(sobel().quality(exact, {scene}), 1.0);
}

TEST(SobelAccelerator, ApproximateConfigsMatchScalarOracle) {
    // Every pixel of random approximate configurations recomputed with one
    // scalar simulation per adder, operands masked to the 16-bit interface
    // at each adder: gx and gy as biased two's-complement subtractions,
    // then |gx| + |gy|.  97x53 = 5 full blocks plus a 21-lane tail.
    std::vector<Component> menu;
    for (circuit::Netlist net :
         {gen::rippleCarryAdder(16), gen::loaAdder(16, 5), gen::truncatedAdder(16, 4),
          gen::etaAdder(16, 6), gen::acaAdder(16, 5), gen::gearAdder(16, 4, 4),
          gen::approxCellAdder(16, 5, gen::ApproxFaKind::XorNoCarry)}) {
        Component c;
        c.name = net.name();
        c.signature = gen::adderSignature(16);
        c.netlist = std::move(net);
        menu.push_back(std::move(c));
    }
    const SobelAccelerator accel(std::move(menu));
    std::vector<circuit::Simulator> sims;
    for (const Component& c : accel.adderMenu()) sims.emplace_back(c.netlist);

    constexpr int kBias = 1 << 12;  // keeps both gradient operands non-negative
    const img::Image scene = img::syntheticScene(97, 53, 0x50B);
    util::Rng rng(0x50B);
    std::unique_ptr<AcceleratorModel::Workspace> ws = accel.makeWorkspace();
    for (int trial = 0; trial < 60; ++trial) {
        const AcceleratorConfig config = accel.configSpace().randomConfig(rng);
        const auto add = [&](std::size_t slot, std::uint32_t a, std::uint32_t b) {
            circuit::Simulator& sim = sims[static_cast<std::size_t>(config.choice[slot])];
            return static_cast<std::uint32_t>(sim.evaluateScalar(
                (a & 0xFFFFu) | (static_cast<std::uint64_t>(b & 0xFFFFu) << 16)));
        };
        const img::Image out = accel.filter(scene, config, *ws);
        for (int y = 0; y < scene.height(); ++y) {
            for (int x = 0; x < scene.width(); ++x) {
                const auto p = [&](int dx, int dy) {
                    return static_cast<std::uint32_t>(scene.atClamped(x + dx, y + dy));
                };
                const std::uint32_t gx =
                    add(0, p(1, -1) + 2 * p(1, 0) + p(1, 1) + kBias,
                        0u - (p(-1, -1) + 2 * p(-1, 0) + p(-1, 1)));
                const std::uint32_t gy =
                    add(1, p(-1, 1) + 2 * p(0, 1) + p(1, 1) + kBias,
                        0u - (p(-1, -1) + 2 * p(0, -1) + p(1, -1)));
                const int dx = static_cast<int>(gx & 0xFFFFu) - kBias;
                const int dy = static_cast<int>(gy & 0xFFFFu) - kBias;
                const std::uint32_t mag = add(2, static_cast<std::uint32_t>(std::abs(dx)),
                                              static_cast<std::uint32_t>(std::abs(dy)));
                ASSERT_EQ(out.at(x, y), std::min<std::uint32_t>(255u, (mag & 0xFFFFu) / 4))
                    << "trial " << trial << " pixel (" << x << ", " << y << ")";
            }
        }
    }
}

TEST(SobelAccelerator, EdgesDetected) {
    // A vertical step edge must light up its column and stay dark in flat
    // regions.
    img::Image step(32, 32, 0);
    for (int y = 0; y < 32; ++y)
        for (int x = 16; x < 32; ++x) step.set(x, y, 200);
    const img::Image out = sobel().filterExact(step);
    EXPECT_GT(out.at(16, 16), 100);  // on the edge
    EXPECT_EQ(out.at(4, 16), 0);     // flat left region
    EXPECT_EQ(out.at(28, 16), 0);    // flat right region
}

TEST(SobelAccelerator, ApproximationDegradesQuality) {
    const std::vector<img::Image> scenes = {img::syntheticScene(48, 48, 0x5F)};
    const double exact = sobel().quality(sobel().configSpace().accurateCorner(), scenes);
    const double cheap = sobel().quality(sobel().configSpace().cheapCorner(), scenes);
    EXPECT_DOUBLE_EQ(exact, 1.0);
    EXPECT_LT(cheap, exact);
    EXPECT_GT(cheap, 0.0);  // still recognizably the same image
}

TEST(SobelAccelerator, CostComposesAndDiscriminates) {
    const AcceleratorCost accurate = sobel().cost(sobel().configSpace().accurateCorner());
    const AcceleratorCost cheap = sobel().cost(sobel().configSpace().cheapCorner());
    EXPECT_GT(accurate.lutCount, cheap.lutCount);
    EXPECT_GT(accurate.powerMw, cheap.powerMw);
    EXPECT_GT(cheap.lutCount, 0.0);
    // Deterministic per config.
    const AcceleratorCost again = sobel().cost(sobel().configSpace().accurateCorner());
    EXPECT_DOUBLE_EQ(accurate.lutCount, again.lutCount);
}

TEST(SobelAccelerator, FeatureVectorShape) {
    const std::vector<double> f = sobel().features(sobel().configSpace().accurateCorner());
    ASSERT_EQ(f.size(), 7u);
    EXPECT_DOUBLE_EQ(f[0], 0.0);  // MED mass of the exact corner
}

TEST(SobelAccelerator, OversizedTrainingBudgetTerminates) {
    // 27 distinct configs exist; a default-sized training request must cap
    // at the design-space size instead of spinning forever on rejection
    // sampling.
    AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 100;  // > designSpaceSize() == 27
    cfg.hillIterations = 20;
    cfg.archiveSeed = 4;
    cfg.archiveCap = 10;
    cfg.imageSize = 48;
    cfg.sceneCount = 1;
    const AutoAxFpgaFlow::Result result = AutoAxFpgaFlow(cfg).run(sobel());
    EXPECT_LE(result.trainingSet.size(), 27u);
    EXPECT_GE(result.trainingSet.size(), 20u);  // nearly the whole space found
}

TEST(SobelAccelerator, EndToEndDseSmoke) {
    // The full AutoAx flow over the Sobel workload: all three scenarios,
    // corners reachable, dedup accounting intact.  27 configs means the
    // memo carries most of the weight — realEvaluations must stay small.
    AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 10;
    cfg.hillIterations = 60;
    cfg.archiveSeed = 4;
    cfg.archiveCap = 20;
    cfg.imageSize = 48;
    cfg.sceneCount = 1;
    const AutoAxFpgaFlow::Result result = AutoAxFpgaFlow(cfg).run(sobel());
    ASSERT_EQ(result.scenarios.size(), 3u);
    // 27 distinct configs exist in total; the memo must cap total fresh
    // simulations at that.
    EXPECT_LE(result.totalRealEvaluations, 27u);
    for (const auto& s : result.scenarios) {
        EXPECT_FALSE(s.autoax.empty());
        EXPECT_EQ(s.random.size(), s.realEvaluations);
        double best = 0.0;
        for (const EvaluatedConfig& e : s.autoax) best = std::max(best, e.ssim);
        EXPECT_DOUBLE_EQ(best, 1.0);  // exact corner always offered
    }
}

}  // namespace
}  // namespace axf::autoax
