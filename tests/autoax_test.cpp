#include <gtest/gtest.h>

#include <array>
#include <set>

#include "src/autoax/accelerator.hpp"
#include "src/autoax/dse.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/kernels.hpp"
#include "src/circuit/simulator.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/multipliers.hpp"
#include "src/synth/fpga.hpp"

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

/// Fixed menus shared by the accelerator tests: index 0 is exact, later
/// indices are increasingly aggressive approximations (MED-sorted).
std::vector<Component> multiplierMenu() {
    std::vector<Component> menu;
    menu.push_back(makeComponent(gen::wallaceMultiplier(8), gen::multiplierSignature(8)));
    for (int t : {3, 5, 7})
        menu.push_back(makeComponent(gen::truncatedMultiplier(8, t), gen::multiplierSignature(8)));
    return menu;
}

std::vector<Component> adderMenu() {
    std::vector<Component> menu;
    menu.push_back(makeComponent(gen::rippleCarryAdder(16), gen::adderSignature(16)));
    for (int k : {4, 8})
        menu.push_back(makeComponent(gen::loaAdder(16, k), gen::adderSignature(16)));
    return menu;
}

const GaussianAccelerator& accelerator() {
    static const GaussianAccelerator kAccel(multiplierMenu(), adderMenu());
    return kAccel;
}

/// All-exact configuration of the shared accelerator.
AcceleratorConfig exactConfig() { return accelerator().configSpace().accurateCorner(); }

TEST(GaussianAccelerator, CachedMultiplierTablesReproduceBehaviour) {
    // Table builds are content-addressed: a second accelerator over the
    // same menus loads the exhaustive 8x8 tables from the cache and must
    // behave identically to the uncached construction.
    cache::CharacterizationCache cache;
    const GaussianAccelerator cold(multiplierMenu(), adderMenu(), &cache);
    EXPECT_GT(cache.stats().stores, 0u);
    const GaussianAccelerator warm(multiplierMenu(), adderMenu(), &cache);
    EXPECT_GT(cache.stats().hits, 0u);

    const img::Image scene = img::syntheticScene(40, 40, 0xAB);
    AcceleratorConfig mixed = exactConfig();
    for (int slot = 0; slot < GaussianAccelerator::kMultiplierSlots; ++slot)
        mixed.choice[GaussianAccelerator::multiplierSlot(slot)] =
            static_cast<int>(static_cast<std::size_t>(slot) % multiplierMenu().size());
    for (int node = 0; node < GaussianAccelerator::kAdderSlots; ++node)
        mixed.choice[GaussianAccelerator::adderSlot(node)] =
            static_cast<int>(static_cast<std::size_t>(node) % adderMenu().size());
    const img::Image reference = accelerator().filter(scene, mixed);
    EXPECT_EQ(cold.filter(scene, mixed).pixels(), reference.pixels());
    EXPECT_EQ(warm.filter(scene, mixed).pixels(), reference.pixels());
}

TEST(GaussianAccelerator, RejectsBadMenus) {
    EXPECT_THROW(GaussianAccelerator({}, adderMenu()), std::invalid_argument);
    // 8-bit adders in the adder menu are the wrong width.
    std::vector<Component> badAdders;
    badAdders.push_back(makeComponent(gen::rippleCarryAdder(8), gen::adderSignature(8)));
    EXPECT_THROW(GaussianAccelerator(multiplierMenu(), std::move(badAdders)),
                 std::invalid_argument);
}

TEST(GaussianAccelerator, ExactConfigMatchesReference) {
    const img::Image scene = img::syntheticScene(48, 48, 0xE);
    const img::Image hw = accelerator().filter(scene, exactConfig());
    const img::Image ref = accelerator().filterExact(scene);
    EXPECT_EQ(hw.pixels(), ref.pixels());
    EXPECT_DOUBLE_EQ(accelerator().quality(exactConfig(), {scene}), 1.0);
}

TEST(GaussianAccelerator, CarryOutputsTruncateLikeTheHardware) {
    // A degenerate multiplier whose table is all-65535 drives every
    // adder-tree level to a 17-bit result (carry-out set).  The behavioural
    // model must truncate operands to the adder's 16-bit interface when
    // feeding the next level — 2 * 65535 -> 131070, truncated to 65534 on
    // re-entry, etc. — ending at min(255, 131063 >> 4) = 255 everywhere.
    circuit::Netlist ones("mul8_allones");
    for (int i = 0; i < 16; ++i) ones.addInput();
    const circuit::NodeId one = ones.addConst(true);
    for (int i = 0; i < 16; ++i) ones.markOutput(one);
    std::vector<Component> mults;
    mults.push_back(makeComponent(std::move(ones), gen::multiplierSignature(8)));
    std::vector<Component> adds;
    adds.push_back(makeComponent(gen::rippleCarryAdder(16), gen::adderSignature(16)));
    const GaussianAccelerator accel(std::move(mults), std::move(adds));

    const img::Image scene = img::syntheticScene(40, 40, 0x21);
    const img::Image out = accel.filter(scene, accel.configSpace().accurateCorner());
    for (std::size_t i = 0; i < out.pixelCount(); ++i)
        ASSERT_EQ(out.pixels()[i], 255) << "pixel " << i;
}

TEST(GaussianAccelerator, ApproximationDegradesQualityMonotonically) {
    const std::vector<img::Image> scenes = {img::syntheticScene(48, 48, 0xF)};
    double previous = 1.1;
    for (int level = 0; level < 4; ++level) {
        AcceleratorConfig config = exactConfig();
        for (int slot = 0; slot < GaussianAccelerator::kMultiplierSlots; ++slot)
            config.choice[GaussianAccelerator::multiplierSlot(slot)] = level;
        const double q = accelerator().quality(config, scenes);
        EXPECT_LE(q, previous + 1e-9) << "level " << level;
        EXPECT_GE(q, 0.0);
        previous = q;
    }
}

TEST(GaussianAccelerator, FilterSmoothsImage) {
    // A Gaussian blur reduces local variance.
    const img::Image scene = img::syntheticScene(48, 48, 0x10);
    const img::Image blurred = accelerator().filterExact(scene);
    double varIn = 0, varOut = 0, meanIn = 0, meanOut = 0;
    for (std::size_t i = 0; i < scene.pixelCount(); ++i) {
        meanIn += scene.pixels()[i];
        meanOut += blurred.pixels()[i];
    }
    meanIn /= static_cast<double>(scene.pixelCount());
    meanOut /= static_cast<double>(scene.pixelCount());
    for (std::size_t i = 0; i < scene.pixelCount(); ++i) {
        varIn += (scene.pixels()[i] - meanIn) * (scene.pixels()[i] - meanIn);
        varOut += (blurred.pixels()[i] - meanOut) * (blurred.pixels()[i] - meanOut);
    }
    EXPECT_LT(varOut, varIn);
    EXPECT_NEAR(meanOut, meanIn, 6.0);  // blur preserves brightness
}

TEST(GaussianAccelerator, ConfigValidation) {
    const img::Image scene = img::syntheticScene(48, 48, 0x11);
    AcceleratorConfig bad = exactConfig();
    bad.choice[GaussianAccelerator::multiplierSlot(0)] = 99;
    EXPECT_THROW(accelerator().filter(scene, bad), std::out_of_range);
    AcceleratorConfig shortConfig;
    shortConfig.choice = {0, 0, 0};
    EXPECT_THROW(accelerator().cost(shortConfig), std::out_of_range);
}

TEST(BatchAdd16, MatchesScalarSimulation) {
    // 2,500 lanes: two full blocks plus a partial tail block.  Operands
    // carry a set bit 16 (a previous level's carry-out) on about half the
    // lanes; the adder sees only the 16-bit-masked values.
    const circuit::Netlist adder = gen::loaAdder(16, 6);
    const circuit::CompiledNetlist compiled = circuit::CompiledNetlist::compile(adder);
    circuit::BatchSimulator sim(compiled);
    circuit::Simulator scalarSim(adder);
    util::Rng rng(0x12);
    constexpr std::size_t kLanes = 2500;
    std::vector<std::uint32_t> a(kLanes), b(kLanes), out(kLanes);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        a[lane] = static_cast<std::uint32_t>(rng.uniformInt(0, 0x1FFFF));
        b[lane] = static_cast<std::uint32_t>(rng.uniformInt(0, 0x1FFFF));
    }
    std::vector<circuit::CompiledNetlist::Word> inWords(32 * circuit::kBlockWords);
    std::vector<circuit::CompiledNetlist::Word> outWords(compiled.outputCount() *
                                                         circuit::kBlockWords);
    batchAdd16Wide(sim, a.data(), b.data(), out.data(), kLanes, inWords, outWords);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const std::uint64_t packed = static_cast<std::uint64_t>(a[lane] & 0xFFFFu) |
                                     (static_cast<std::uint64_t>(b[lane] & 0xFFFFu) << 16);
        ASSERT_EQ(out[lane], scalarSim.evaluateScalar(packed)) << "lane " << lane;
    }
}

using Word = circuit::CompiledNetlist::Word;
constexpr std::size_t kWords = circuit::kBlockWords;

/// Per-bit reference for `toBitPlanes`: bit b of lane i lands at bit i % 64
/// of word b * kBlockWords + i / 64; higher lane bits are dropped.
std::vector<Word> naiveToBitPlanes(const std::vector<std::uint32_t>& lanes, std::size_t count) {
    std::vector<Word> planes(16 * kWords, 0);
    for (std::size_t lane = 0; lane < count; ++lane)
        for (std::size_t bit = 0; bit < 16; ++bit)
            if ((lanes[lane] >> bit) & 1u)
                planes[bit * kWords + lane / 64] |= Word{1} << (lane % 64);
    return planes;
}

constexpr std::size_t kLaneCounts[] = {0, 1, 63, 64, 65, 1023, 1024};

TEST(BitPlanes, ToBitPlanesMatchesPerBitReference) {
    static_assert(circuit::kBlockLanes == 1024);
    util::Rng rng(0x7B);
    for (std::size_t count : kLaneCounts) {
        // Full 32-bit lane values: bits 16..31 must not leak into planes.
        std::vector<std::uint32_t> lanes(count);
        for (std::uint32_t& v : lanes) v = static_cast<std::uint32_t>(rng.engine()());
        std::vector<Word> planes(16 * kWords, ~Word{0});  // stale contents get overwritten
        toBitPlanes(lanes.data(), count, planes.data());
        EXPECT_EQ(planes, naiveToBitPlanes(lanes, count)) << count << " lanes";
    }
}

TEST(BitPlanes, RoundTripThroughBackendDecoderKeepsSixteenBits) {
    // `toBitPlanes` followed by each backend's 32-bit decoder is the
    // transpose pair batchAdd16Wide and the Gaussian root run on.
    util::Rng rng(0x7D);
    for (const circuit::kernels::Backend* backend : circuit::kernels::availableBackends()) {
        for (std::size_t count : kLaneCounts) {
            std::vector<std::uint32_t> lanes(count);
            for (std::uint32_t& v : lanes) v = static_cast<std::uint32_t>(rng.engine()());
            std::vector<Word> planes(16 * kWords);
            toBitPlanes(lanes.data(), count, planes.data());
            std::vector<std::uint32_t> back(circuit::kBlockLanes);
            backend->wide.decode32(planes.data(), 16, back.data());
            for (std::size_t lane = 0; lane < circuit::kBlockLanes; ++lane)
                ASSERT_EQ(back[lane], lane < count ? lanes[lane] & 0xFFFFu : 0u)
                    << backend->name << ", " << count << " lanes, lane " << lane;
        }
    }
}

/// A menu entry carrying only what the behavioural model reads.
Component bareComponent(circuit::Netlist netlist, circuit::ArithSignature sig) {
    Component c;
    c.name = netlist.name();
    c.signature = sig;
    c.netlist = std::move(netlist);
    return c;
}

TEST(GaussianAccelerator, ApproximateConfigsMatchScalarOracle) {
    // Every pixel of random approximate configurations recomputed with one
    // scalar simulation per component: products from the multiplier
    // netlists, each adder-tree level fed the previous level's outputs
    // masked to the adders' 16-bit interface.  97x53 = 5 full blocks plus
    // a 21-lane tail.
    std::vector<Component> mults;
    const circuit::ArithSignature mulSig = gen::multiplierSignature(8);
    mults.push_back(bareComponent(gen::wallaceMultiplier(8), mulSig));
    mults.push_back(bareComponent(gen::truncatedMultiplier(8, 5), mulSig));
    mults.push_back(bareComponent(gen::brokenArrayMultiplier(8, 6, 2), mulSig));
    mults.push_back(bareComponent(gen::kulkarniMultiplier(8), mulSig));
    mults.push_back(bareComponent(gen::approxCompressorMultiplier(8, 6), mulSig));
    mults.push_back(bareComponent(gen::drumMultiplier(8, 4), mulSig));
    std::vector<Component> adds;
    const circuit::ArithSignature addSig = gen::adderSignature(16);
    adds.push_back(bareComponent(gen::rippleCarryAdder(16), addSig));
    adds.push_back(bareComponent(gen::loaAdder(16, 6), addSig));
    adds.push_back(bareComponent(gen::truncatedAdder(16, 5), addSig));
    adds.push_back(bareComponent(gen::etaAdder(16, 7), addSig));
    adds.push_back(bareComponent(gen::acaAdder(16, 4), addSig));
    adds.push_back(
        bareComponent(gen::approxCellAdder(16, 6, gen::ApproxFaKind::OrSum), addSig));
    const GaussianAccelerator accel(std::move(mults), std::move(adds));

    // Scalar products per (multiplier, coefficient, pixel), simulated once.
    const std::array<int, 9>& weights = GaussianAccelerator::kernelWeights();
    std::vector<std::array<std::array<std::uint32_t, 256>, 5>> product(
        accel.multiplierMenu().size());
    for (std::size_t m = 0; m < product.size(); ++m) {
        circuit::Simulator sim(accel.multiplierMenu()[m].netlist);
        for (int coeff : {1, 2, 4})
            for (std::uint32_t pix = 0; pix < 256; ++pix)
                product[m][static_cast<std::size_t>(coeff)][pix] = static_cast<std::uint32_t>(
                    sim.evaluateScalar(pix | (static_cast<std::uint64_t>(coeff) << 8)) & 0xFFFFu);
    }
    std::vector<circuit::Simulator> adderSims;
    for (const Component& c : accel.adderMenu()) adderSims.emplace_back(c.netlist);

    const img::Image scene = img::syntheticScene(97, 53, 0x0AC1E);
    util::Rng rng(0x0AC1E);
    std::unique_ptr<AcceleratorModel::Workspace> ws = accel.makeWorkspace();
    for (int trial = 0; trial < 60; ++trial) {
        const AcceleratorConfig config = accel.configSpace().randomConfig(rng);
        const auto add = [&](int node, std::uint32_t a, std::uint32_t b) {
            circuit::Simulator& sim = adderSims[static_cast<std::size_t>(
                config.choice[GaussianAccelerator::adderSlot(node)])];
            return static_cast<std::uint32_t>(sim.evaluateScalar(
                (a & 0xFFFFu) | (static_cast<std::uint64_t>(b & 0xFFFFu) << 16)));
        };
        const img::Image out = accel.filter(scene, config, *ws);
        for (int y = 0; y < scene.height(); ++y) {
            for (int x = 0; x < scene.width(); ++x) {
                std::array<std::uint32_t, 9> p{};
                for (int slot = 0; slot < 9; ++slot) {
                    const std::size_t s = static_cast<std::size_t>(slot);
                    const std::size_t m = static_cast<std::size_t>(
                        config.choice[GaussianAccelerator::multiplierSlot(slot)]);
                    p[s] = product[m][static_cast<std::size_t>(weights[s])]
                                  [scene.atClamped(x + slot % 3 - 1, y + slot / 3 - 1)];
                }
                const std::uint32_t l2a = add(4, add(0, p[0], p[1]), add(1, p[2], p[3]));
                const std::uint32_t l2b = add(5, add(2, p[4], p[5]), add(3, p[6], p[7]));
                const std::uint32_t sum = add(7, add(6, l2a, l2b), p[8]);
                ASSERT_EQ(out.at(x, y), std::min<std::uint32_t>(255u, sum >> 4))
                    << "trial " << trial << " pixel (" << x << ", " << y << ")";
            }
        }
    }
}

TEST(AcceleratorCost, AccurateCornerCostsMoreThanCheapCorner) {
    const AcceleratorCost a = accelerator().cost(accelerator().configSpace().accurateCorner());
    const AcceleratorCost c = accelerator().cost(accelerator().configSpace().cheapCorner());
    EXPECT_GT(a.lutCount, c.lutCount);
    EXPECT_GT(a.powerMw, c.powerMw);
    EXPECT_GT(a.synthSeconds, 0.0);
}

TEST(AcceleratorCost, DeterministicPerConfig) {
    AcceleratorConfig config = exactConfig();
    config.choice[GaussianAccelerator::multiplierSlot(3)] = 1;
    config.choice[GaussianAccelerator::adderSlot(5)] = 2;
    const AcceleratorCost a = accelerator().cost(config);
    const AcceleratorCost b = accelerator().cost(config);
    EXPECT_DOUBLE_EQ(a.lutCount, b.lutCount);
    EXPECT_DOUBLE_EQ(a.latencyNs, b.latencyNs);
}

TEST(AcceleratorConfig, HashDiscriminates) {
    AcceleratorConfig a = exactConfig();
    AcceleratorConfig b = exactConfig();
    b.choice[GaussianAccelerator::adderSlot(7)] = 1;
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_EQ(a.hash(), exactConfig().hash());
}

TEST(ConfigSpace, DescribesTheGaussianDatapath) {
    const ConfigSpace& space = accelerator().configSpace();
    ASSERT_EQ(space.groups.size(), 2u);
    EXPECT_EQ(space.groups[0].name, "multiplier");
    EXPECT_EQ(space.groups[0].slots, 9);
    EXPECT_EQ(space.groups[1].name, "adder");
    EXPECT_EQ(space.groups[1].slots, 8);
    EXPECT_EQ(space.slotCount(), 17u);
    EXPECT_EQ(space.menuSizeOf(0), static_cast<int>(accelerator().multiplierMenu().size()));
    EXPECT_EQ(space.menuSizeOf(16), static_cast<int>(accelerator().adderMenu().size()));
    const AcceleratorConfig cheap = space.cheapCorner();
    EXPECT_EQ(cheap.choice[0], static_cast<int>(accelerator().multiplierMenu().size()) - 1);
    EXPECT_EQ(cheap.choice[16], static_cast<int>(accelerator().adderMenu().size()) - 1);
}

TEST(ConfigFeatures, ExactConfigProfile) {
    const std::vector<double> f = accelerator().features(exactConfig());
    ASSERT_EQ(f.size(), 14u);
    EXPECT_DOUBLE_EQ(f[0], 0.0);   // mult MED mass
    EXPECT_DOUBLE_EQ(f[6], 9.0);   // exact multiplier count
    EXPECT_DOUBLE_EQ(f[13], 8.0);  // exact adder count
}

TEST(DesignSpace, SizeFormula) {
    const double size = accelerator().designSpaceSize();
    EXPECT_DOUBLE_EQ(size, std::pow(4.0, 9.0) * std::pow(3.0, 8.0));
}

TEST(QualityCostFront, MembersNonDominated) {
    std::vector<EvaluatedConfig> points(12);
    util::Rng rng(0x13);
    for (auto& p : points) {
        p.ssim = rng.uniformReal(0.3, 1.0);
        p.cost.lutCount = rng.uniformReal(100, 1000);
    }
    const std::vector<std::size_t> front = qualityCostFront(points, core::FpgaParam::Area);
    ASSERT_FALSE(front.empty());
    for (std::size_t a : front) {
        for (std::size_t b : front) {
            if (a == b) continue;
            EXPECT_FALSE(points[b].ssim >= points[a].ssim &&
                             points[b].cost.lutCount <= points[a].cost.lutCount &&
                             (points[b].ssim > points[a].ssim ||
                              points[b].cost.lutCount < points[a].cost.lutCount));
        }
    }
}

TEST(AutoAxFlow, SmallRunProducesAllScenarios) {
    AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 20;
    cfg.hillIterations = 150;
    cfg.archiveSeed = 8;
    cfg.archiveCap = 40;
    cfg.imageSize = 48;
    cfg.sceneCount = 1;
    const AutoAxFpgaFlow::Result result = AutoAxFpgaFlow(cfg).run(accelerator());

    EXPECT_EQ(result.trainingSet.size(), 22u);  // 20 random + 2 corner anchors
    ASSERT_EQ(result.scenarios.size(), 3u);
    EXPECT_GE(result.totalRealEvaluations, result.trainingSet.size());
    for (const auto& s : result.scenarios) {
        EXPECT_FALSE(s.autoax.empty());
        EXPECT_LE(s.autoax.size(), cfg.archiveCap);
        EXPECT_EQ(s.random.size(), s.realEvaluations);
        // Dedup accounting: the archive reuses training entries (at least
        // the two corners), so fresh evaluations stay below its size.
        EXPECT_LE(s.realEvaluations, s.autoax.size());
        EXPECT_GT(s.estimatorQueries, static_cast<std::size_t>(cfg.hillIterations));
        for (const EvaluatedConfig& e : s.autoax) {
            EXPECT_GE(e.ssim, -1.0);
            EXPECT_LE(e.ssim, 1.0);
            EXPECT_GT(e.cost.lutCount, 0.0);
        }
    }
}

TEST(AutoAxFlow, SearchBeatsNothingAtQualityExtreme) {
    // The archive is seeded with the all-accurate corner, so AutoAx must
    // always offer an SSIM = 1.0 design.
    AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 15;
    cfg.hillIterations = 100;
    cfg.imageSize = 48;
    cfg.sceneCount = 1;
    const AutoAxFpgaFlow::Result result = AutoAxFpgaFlow(cfg).run(accelerator());
    for (const auto& s : result.scenarios) {
        double best = 0.0;
        for (const EvaluatedConfig& e : s.autoax) best = std::max(best, e.ssim);
        EXPECT_DOUBLE_EQ(best, 1.0);
    }
}

}  // namespace
}  // namespace axf::autoax
