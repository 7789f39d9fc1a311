// Stuck-at fault-injection engine (src/fault): fault-injected runs vs the
// scalar mutate-the-netlist oracle across every gate kind and backend,
// site enumeration and equivalence collapsing, campaign determinism at any
// thread count and backend, cache integration (cold == warm), report
// serialization, and the resilience objective in the accelerator DSE.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <vector>

#include "src/autoax/dse.hpp"
#include "src/autoax/sobel.hpp"
#include "src/cache/characterization_cache.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/kernels.hpp"
#include "src/circuit/netlist.hpp"
#include "src/circuit/simulator.hpp"
#include "src/error/error_metrics.hpp"
#include "src/fault/fault.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/multipliers.hpp"
#include "src/synth/fpga.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"

namespace axf::fault {
namespace {

using circuit::CompiledNetlist;
using circuit::GateKind;
using circuit::Netlist;
using Word = CompiledNetlist::Word;
// Direct run/runWithFaults calls here use the engine's block width.
constexpr std::size_t kW = circuit::kBlockWords;

/// Aligned caller-owned workspace for direct CompiledNetlist::run /
/// runWithFaults calls (mirrors what BatchSimulator does internally).
struct Scratch {
    explicit Scratch(const CompiledNetlist& c) : storage(c.workspaceWords(kW) + 8, 0) {
        const std::size_t mis = reinterpret_cast<std::uintptr_t>(storage.data()) % 64;
        ws = storage.data() + (mis ? (64 - mis) / sizeof(Word) : 0);
        c.initWorkspace({ws, c.workspaceWords(kW)}, kW);
    }
    std::vector<Word> storage;
    Word* ws = nullptr;
};

/// A netlist exercising every GateKind plus the peephole-fusion triggers
/// (Xor3/And3/Or3 chains, the HalfAdd Xor+And pair, Mux, Maj, constants).
Netlist gateZoo() {
    Netlist net("gate_zoo");
    const auto a = net.addInput(), b = net.addInput(), c = net.addInput(), d = net.addInput();
    const auto k0 = net.addConst(false), k1 = net.addConst(true);
    const auto nNot = net.addGate(GateKind::Not, a);
    const auto nBuf = net.addGate(GateKind::Buf, b);
    const auto nAnd = net.addGate(GateKind::And, a, b);
    const auto nOr = net.addGate(GateKind::Or, c, d);
    const auto nXor = net.addGate(GateKind::Xor, a, c);
    const auto nNand = net.addGate(GateKind::Nand, b, c);
    const auto nNor = net.addGate(GateKind::Nor, a, d);
    const auto nXnor = net.addGate(GateKind::Xnor, b, d);
    const auto nAndNot = net.addGate(GateKind::AndNot, a, c);
    const auto nOrNot = net.addGate(GateKind::OrNot, b, c);
    const auto nMux = net.addGate(GateKind::Mux, nAnd, nOr, nXor);
    const auto nMaj = net.addGate(GateKind::Maj, a, b, c);
    // Fusion bait: single-consumer 2-gate chains and the half-adder pair.
    const auto x3 = net.addGate(GateKind::Xor, net.addGate(GateKind::Xor, a, b), c);
    const auto a3 = net.addGate(GateKind::And, net.addGate(GateKind::And, c, d), a);
    const auto o3 = net.addGate(GateKind::Or, net.addGate(GateKind::Or, a, b), d);
    const auto haS = net.addGate(GateKind::Xor, c, d);
    const auto haC = net.addGate(GateKind::And, c, d);
    const auto g = net.addGate(GateKind::And, nMaj, k1);
    const auto h = net.addGate(GateKind::Or, nMux, k0);
    for (const auto o : {nNot, nBuf, nNand, nNor, nXnor, nAndNot, nOrNot, x3, a3, o3, haS,
                         haC, g, h})
        net.markOutput(o);
    return net;
}

std::vector<Word> runPlain(const CompiledNetlist& c, const std::vector<Word>& in) {
    Scratch s(c);
    std::vector<Word> out(c.outputCount() * kW);
    c.run<kW>(in.data(), out.data(), s.ws);
    return out;
}

std::vector<Word> runFaulty(const CompiledNetlist& c, const std::vector<Word>& in,
                            std::span<const CompiledNetlist::InjectedFault> faults) {
    Scratch s(c);
    std::vector<Word> out(c.outputCount() * kW);
    c.runWithFaults<kW>(in.data(), out.data(), s.ws, faults);
    return out;
}

std::vector<Word> randomInputs(std::size_t inputs, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<Word> in(inputs * kW);
    for (Word& w : in) w = rng.uniformInt(0, ~std::uint64_t{0});
    return in;
}

std::vector<std::uint8_t> serialized(const ResilienceReport& report) {
    util::ByteWriter out;
    report.serialize(out);
    return out.take();
}

TEST(FaultInjection, RunWithFaultsMatchesMutatedNetlistOracleAllBackends) {
    // Every fault site, both polarities, full-block mask: the injected run
    // must be bit-identical to compiling a mutated netlist with the node
    // replaced by a constant — per backend, on the same random inputs.
    const std::vector<Netlist> circuits = {gateZoo(), gen::truncatedMultiplier(6, 2)};
    for (const circuit::kernels::Backend* backend : circuit::kernels::availableBackends()) {
        circuit::kernels::ScopedBackendOverride override(backend);
        for (const Netlist& net : circuits) {
            const CompiledNetlist compiled = CompiledNetlist::compile(net);
            const std::vector<Word> in = randomInputs(net.inputCount(), 0xFA017);
            const SiteEnumeration en = enumerateFaultSites(compiled, /*includeInputFaults=*/true,
                                                           /*collapseEquivalent=*/false);
            ASSERT_GT(en.sites.size(), 0u);
            for (const FaultSite& site : en.sites) {
                CompiledNetlist::InjectedFault fault;
                fault.afterInstr = site.afterInstr;
                fault.slot = site.slot;
                fault.stuckTo = site.stuckTo;
                fault.mask.fill(~Word{0});
                const std::vector<Word> got =
                    runFaulty(compiled, in, std::span(&fault, 1));
                const CompiledNetlist oracle =
                    CompiledNetlist::compile(stuckAtNetlist(net, site.node, site.stuckTo));
                const std::vector<Word> want = runPlain(oracle, in);
                ASSERT_EQ(got, want)
                    << net.name() << " node " << site.node << " sa" << site.stuckTo
                    << " backend " << backend->name;
            }
        }
    }
}

TEST(FaultInjection, LaneGroupMaskIsolatesFaultsPerWord) {
    // The sampled campaign's packing: inputs replicated across all four
    // words, three different faults masked to words 1..3, word 0 clean.
    // Each word of the output must match the corresponding oracle.
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    const SiteEnumeration en = enumerateFaultSites(compiled, true, false);
    ASSERT_GE(en.sites.size(), 3u);
    // Pick three sites spread over the enumeration (input + gate sites).
    const std::array<const FaultSite*, 3> picks = {
        &en.sites[0], &en.sites[en.sites.size() / 2], &en.sites[en.sites.size() - 1]};

    util::Rng rng(0x5EED);
    std::vector<Word> in(net.inputCount() * kW);
    for (std::size_t bit = 0; bit < net.inputCount(); ++bit) {
        const Word r = rng.uniformInt(0, ~std::uint64_t{0});
        for (std::size_t w = 0; w < kW; ++w) in[bit * kW + w] = r;  // replicated
    }

    std::vector<CompiledNetlist::InjectedFault> faults(3);
    for (std::size_t j = 0; j < 3; ++j) {
        faults[j].afterInstr = picks[j]->afterInstr;
        faults[j].slot = picks[j]->slot;
        faults[j].stuckTo = picks[j]->stuckTo;
        faults[j].mask = {};
        faults[j].mask[j + 1] = ~Word{0};
    }
    std::sort(faults.begin(), faults.end(), [](const auto& a, const auto& b) {
        const auto rank = [](std::uint32_t v) {
            return v == CompiledNetlist::kFaultAtInputs ? std::uint64_t{0}
                                                        : std::uint64_t{v} + 1;
        };
        return rank(a.afterInstr) < rank(b.afterInstr);
    });
    const std::vector<Word> packed = runFaulty(compiled, in, faults);
    const std::vector<Word> clean = runPlain(compiled, in);

    for (std::size_t o = 0; o < compiled.outputCount(); ++o)
        EXPECT_EQ(packed[o * kW + 0], clean[o * kW + 0]);  // reference word untouched
    for (std::size_t j = 0; j < 3; ++j) {
        // Map back from the sorted fault list to its word group.
        const std::size_t word = [&] {
            for (std::size_t w = 0; w < 3; ++w)
                if (faults[w].mask[j + 1] != 0) return j + 1;
            return j + 1;
        }();
        const CompiledNetlist::InjectedFault& f = faults[j];
        // Full-mask single-fault run: with replicated inputs every word
        // carries the faulted circuit, so word 0 is the oracle word.
        CompiledNetlist::InjectedFault solo = f;
        solo.mask.fill(~Word{0});
        const std::vector<Word> oracle = runFaulty(compiled, in, std::span(&solo, 1));
        const std::size_t faultWord = [&] {
            for (std::size_t w = 1; w < kW; ++w)
                if (f.mask[w] != 0) return w;
            return std::size_t{0};
        }();
        (void)word;
        for (std::size_t o = 0; o < compiled.outputCount(); ++o)
            EXPECT_EQ(packed[o * kW + faultWord], oracle[o * kW + 0])
                << "output " << o << " fault word " << faultWord;
    }
}

TEST(FaultSites, EnumerationOrderAndCollapsing) {
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    const SiteEnumeration full = enumerateFaultSites(compiled, true, false);
    const SiteEnumeration collapsed = enumerateFaultSites(compiled, true, true);

    // Collapsing merges equivalent sites but conserves the site mass.
    EXPECT_LE(collapsed.sites.size(), full.sites.size());
    EXPECT_EQ(collapsed.totalSites, full.totalSites);
    std::uint32_t mass = 0;
    for (const FaultSite& s : collapsed.sites) mass += s.collapsed;
    EXPECT_EQ(mass, collapsed.totalSites);
    std::uint32_t fullMass = 0;
    for (const FaultSite& s : full.sites) {
        EXPECT_EQ(s.collapsed, 1u);
        fullMass += s.collapsed;
    }
    EXPECT_EQ(fullMass, full.totalSites);

    // Order contract: input sites first, then ascending producing
    // instruction, stuck-at-0 before stuck-at-1 per plane.
    const auto rank = [](const FaultSite& s) {
        return s.isInput ? std::uint64_t{0} : std::uint64_t{s.afterInstr} + 1;
    };
    for (std::size_t i = 1; i < collapsed.sites.size(); ++i)
        EXPECT_LE(rank(collapsed.sites[i - 1]), rank(collapsed.sites[i])) << i;
    for (std::size_t i = 0; i + 1 < collapsed.sites.size(); i += 2) {
        EXPECT_EQ(collapsed.sites[i].slot, collapsed.sites[i + 1].slot);
        EXPECT_FALSE(collapsed.sites[i].stuckTo);
        EXPECT_TRUE(collapsed.sites[i + 1].stuckTo);
    }

    // Dropping input faults removes exactly the input sites.
    const SiteEnumeration noInputs = enumerateFaultSites(compiled, false, false);
    std::size_t inputSites = 0;
    for (const FaultSite& s : full.sites) inputSites += s.isInput;
    EXPECT_EQ(noInputs.sites.size(), full.sites.size() - inputSites);
    EXPECT_EQ(inputSites, 2u * net.inputCount());
}

TEST(FaultCampaign, ExhaustiveMatchesScalarSimulatorOracle) {
    // Brute-force oracle on a space small enough to sweep twice per site
    // with the scalar simulator: per-fault worst case, error count and
    // deviated-vector count must match exactly; FP means to the last ulp
    // are not required (the campaign's block-partial accumulation is its
    // own canonical order) but must agree to ~1e-12.
    const Netlist net = gen::wallaceMultiplier(4);
    const circuit::ArithSignature sig = gen::multiplierSignature(4);
    CampaignConfig config;
    config.collapseEquivalent = false;
    const ResilienceReport report = analyzeResilience(net, sig, config);
    ASSERT_TRUE(report.exhaustive);
    EXPECT_EQ(report.vectorsPerFault, 256u);

    circuit::Simulator cleanSim(net);
    for (const FaultImpact& impact : report.faults) {
        // Simulator keeps a reference to its netlist: the mutated copy must
        // outlive it (a temporary here is a use-after-scope).
        const Netlist faultyNet = stuckAtNetlist(net, impact.site.node, impact.site.stuckTo);
        circuit::Simulator faultySim(faultyNet);
        std::uint64_t deviated = 0, errs = 0, worst = 0;
        double absSum = 0.0;
        for (std::uint64_t x = 0; x < 256; ++x) {
            const std::uint64_t clean = cleanSim.evaluateScalar(x);
            const std::uint64_t faulty = faultySim.evaluateScalar(x);
            deviated += faulty != clean;
            const std::uint64_t exact = sig.exact(x & 0xF, x >> 4);
            const std::uint64_t diff = faulty > exact ? faulty - exact : exact - faulty;
            errs += diff != 0;
            worst = std::max(worst, diff);
            absSum += static_cast<double>(diff);
        }
        EXPECT_EQ(impact.deviatedVectors, deviated) << "node " << impact.site.node;
        EXPECT_EQ(impact.error.worstCaseError, static_cast<double>(worst));
        EXPECT_EQ(impact.error.errorProbability, static_cast<double>(errs) / 256.0);
        EXPECT_EQ(impact.error.vectorsEvaluated, 256u);
        EXPECT_NEAR(impact.error.meanAbsoluteError, absSum / 256.0,
                    1e-12 * (1.0 + absSum / 256.0));
        EXPECT_DOUBLE_EQ(impact.deviationProbability,
                         static_cast<double>(deviated) / 256.0);
    }
    // The fault-free reference profile of an exact multiplier is clean.
    EXPECT_EQ(report.nominal.errorProbability, 0.0);
    EXPECT_EQ(report.faultCoverage > 0.0, true);
}

TEST(FaultCampaign, CollapsingPreservesAggregateMetrics) {
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    CampaignConfig on, off;
    on.collapseEquivalent = true;
    off.collapseEquivalent = false;
    const ResilienceReport a = analyzeResilience(net, sig, on);
    const ResilienceReport b = analyzeResilience(net, sig, off);
    EXPECT_EQ(a.totalSites, b.totalSites);
    EXPECT_LE(a.faults.size(), b.faults.size());
    EXPECT_NEAR(a.meanMedUnderFault, b.meanMedUnderFault, 1e-12);
    EXPECT_NEAR(a.faultCoverage, b.faultCoverage, 1e-12);
    EXPECT_EQ(a.worstMedUnderFault, b.worstMedUnderFault);
}

TEST(FaultCampaign, ReportBitIdenticalAtAnyThreadCount) {
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    for (const bool exhaustive : {true, false}) {
        CampaignConfig config;
        if (!exhaustive) {
            config.analysis.exhaustiveLimit = 1;
            config.analysis.sampleCount = 1u << 10;
        }
        config.analysis.threads = 1;
        const std::vector<std::uint8_t> serial = serialized(analyzeResilience(net, sig, config));
        for (const int threads : {0, 2, 4}) {
            config.analysis.threads = threads;
            EXPECT_EQ(serialized(analyzeResilience(net, sig, config)), serial)
                << "threads=" << threads << " exhaustive=" << exhaustive;
        }
    }
}

TEST(FaultCampaign, ReportBitIdenticalAcrossBackends) {
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    for (const bool exhaustive : {true, false}) {
        CampaignConfig config;
        if (!exhaustive) {
            config.analysis.exhaustiveLimit = 1;
            config.analysis.sampleCount = 1u << 9;
        }
        const std::vector<std::uint8_t> reference = serialized(analyzeResilience(net, sig, config));
        for (const circuit::kernels::Backend* backend : circuit::kernels::availableBackends()) {
            circuit::kernels::ScopedBackendOverride override(backend);
            EXPECT_EQ(serialized(analyzeResilience(net, sig, config)), reference)
                << backend->name << " exhaustive=" << exhaustive;
        }
    }
}

TEST(FaultCampaign, ColdAndWarmCacheBitIdentical) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "axf_fault_cache_test").string();
    std::filesystem::remove_all(dir);
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    const CampaignConfig config;
    const std::vector<std::uint8_t> direct = serialized(analyzeResilience(net, sig, config));

    cache::CharacterizationCache::Options options;
    options.directory = dir;
    {
        cache::CharacterizationCache cold(options);
        EXPECT_EQ(serialized(cache::analyzeResilienceCached(
                      &cold, net.structuralHash(), net, sig, config)),
                  direct);
        EXPECT_EQ(cold.stats().stores, 1u);
        cold.flush();
    }
    cache::CharacterizationCache warm(options);  // fresh instance = new process
    EXPECT_EQ(serialized(cache::analyzeResilienceCached(&warm, net.structuralHash(), net, sig,
                                                        config)),
              direct);
    EXPECT_EQ(warm.stats().hits, 1u);
    EXPECT_EQ(warm.stats().stores, 0u);

    // Null cache degrades to the plain computation.
    EXPECT_EQ(serialized(cache::analyzeResilienceCached(nullptr, net.structuralHash(), net, sig,
                                                        config)),
              direct);
    std::filesystem::remove_all(dir);
}

TEST(FaultCampaign, CacheDigestCanonicalization) {
    using CC = cache::CharacterizationCache;
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    CampaignConfig a;
    CampaignConfig b = a;
    b.analysis.threads = 7;  // result-neutral
    EXPECT_EQ(CC::digestOf(a, sig), CC::digestOf(b, sig));
    CampaignConfig sampledKnobs = a;
    sampledKnobs.analysis.sampleCount = 1234;  // canonicalized away (exhaustive space)
    EXPECT_EQ(CC::digestOf(a, sig), CC::digestOf(sampledKnobs, sig));
    CampaignConfig sampled = a;
    sampled.analysis.exhaustiveLimit = 1;  // path change = different result
    EXPECT_NE(CC::digestOf(sampled, sig), CC::digestOf(a, sig));
    CampaignConfig noInputs = a;
    noInputs.includeInputFaults = false;  // result-affecting campaign knob
    EXPECT_NE(CC::digestOf(noInputs, sig), CC::digestOf(a, sig));
}

TEST(FaultReport, SerializationRoundTrips) {
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    const ResilienceReport report = analyzeResilience(net, sig, {});
    ASSERT_GT(report.faults.size(), 0u);
    EXPECT_FALSE(report.summary().empty());

    const std::vector<std::uint8_t> bytes = serialized(report);
    util::ByteReader in(bytes);
    ResilienceReport back;
    ASSERT_TRUE(ResilienceReport::deserialize(in, back));
    EXPECT_EQ(serialized(back), bytes);
    EXPECT_EQ(back.faults.size(), report.faults.size());
    EXPECT_EQ(back.totalSites, report.totalSites);
    EXPECT_EQ(back.meanMedUnderFault, report.meanMedUnderFault);
    EXPECT_EQ(back.criticalFaults, report.criticalFaults);

    util::ByteReader truncated(std::span<const std::uint8_t>(bytes.data(), bytes.size() / 2));
    ResilienceReport bad;
    EXPECT_FALSE(ResilienceReport::deserialize(truncated, bad));
}

TEST(FaultObjective, ResilienceAwareDseProducesThreeObjectiveFronts) {
    // End-to-end: component menus -> per-component campaigns -> 3-objective
    // island archives -> re-evaluated fronts, on the cheapest workload.
    std::vector<autoax::Component> adders;
    for (Netlist net : {gen::rippleCarryAdder(16), gen::loaAdder(16, 8)}) {
        autoax::Component c;
        c.name = net.name();
        c.signature = gen::adderSignature(16);
        c.error = error::analyzeError(net, c.signature);
        c.fpga = synth::FpgaFlow().implement(net);
        c.netlist = std::move(net);
        adders.push_back(std::move(c));
    }
    const autoax::SobelAccelerator model(std::move(adders));
    EXPECT_EQ(model.componentMenu(0), &model.adderMenu());
    EXPECT_EQ(model.componentMenu(1), nullptr);

    autoax::AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 6;
    cfg.hillIterations = 20;
    cfg.archiveSeed = 4;
    cfg.archiveCap = 12;
    cfg.imageSize = 32;
    cfg.sceneCount = 1;
    cfg.threads = 1;
    cfg.resilienceObjective = true;
    cfg.faultCampaign.analysis.exhaustiveLimit = 1;  // 16-bit adders: sampled
    cfg.faultCampaign.analysis.sampleCount = 256;
    const autoax::AutoAxFpgaFlow::Result result = autoax::AutoAxFpgaFlow(cfg).run(model);
    ASSERT_EQ(result.scenarios.size(), 3u);
    for (const auto& scenario : result.scenarios)
        EXPECT_GT(scenario.autoax.size(), 0u);

    // Same flow without the objective still works (2-objective archives).
    cfg.resilienceObjective = false;
    const autoax::AutoAxFpgaFlow::Result plain = autoax::AutoAxFpgaFlow(cfg).run(model);
    ASSERT_EQ(plain.scenarios.size(), 3u);
}

}  // namespace
}  // namespace axf::fault
