// Static verifier (src/verify): clean runs over generator netlists and
// their compiled programs across backends, mutation-based negative tests
// asserting every corruption class is rejected with its specific rule id,
// ternary abstract-interpretation soundness against the exhaustive fault
// engine, the AXF_VERIFY self-check hook, and cache verify-on-load.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/cache/characterization_cache.hpp"
#include "src/circuit/arith.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/kernels.hpp"
#include "src/circuit/netlist.hpp"
#include "src/circuit/transform.hpp"
#include "src/fault/fault.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/multipliers.hpp"
#include "src/util/bytes.hpp"
#include "src/verify/absint.hpp"
#include "src/verify/diagnostics.hpp"
#include "src/verify/verify.hpp"

namespace axf::verify {
namespace {

using circuit::CompiledNetlist;
using circuit::GateKind;
using circuit::Netlist;
using circuit::Node;
using circuit::NodeId;
using circuit::kInvalidNode;
using circuit::kernels::Instr;
using circuit::kernels::OpCode;

std::vector<Netlist> sampleNetlists() {
    std::vector<Netlist> nets;
    nets.push_back(gen::rippleCarryAdder(8));
    nets.push_back(gen::koggeStoneAdder(6));
    nets.push_back(gen::loaAdder(8, 3));
    nets.push_back(gen::gearAdder(8, 4, 2));
    nets.push_back(gen::approxCellAdder(8, 4, gen::ApproxFaKind::PassA));
    nets.push_back(gen::wallaceMultiplier(6));
    nets.push_back(gen::truncatedMultiplier(6, 3));
    nets.push_back(gen::drumMultiplier(8, 4));
    nets.push_back(gen::mitchellMultiplier(6));
    return nets;
}

/// Mutable copy of a compiled program for mutation tests.
struct ProgramCopy {
    std::vector<Instr> instructions;
    std::vector<CompiledNetlist::Run> runs;
    std::vector<std::uint32_t> inputSlots;
    std::vector<std::uint32_t> outputSlots;
    std::vector<std::pair<std::uint32_t, bool>> constants;
    std::vector<NodeId> slotNodes;
    std::size_t slotCount = 0;

    explicit ProgramCopy(const CompiledNetlist& c)
        : instructions(c.instructions().begin(), c.instructions().end()),
          runs(c.runs().begin(), c.runs().end()),
          inputSlots(c.inputSlots().begin(), c.inputSlots().end()),
          outputSlots(c.outputSlots().begin(), c.outputSlots().end()),
          constants(c.constantSlots().begin(), c.constantSlots().end()),
          slotNodes(c.slotNodes().begin(), c.slotNodes().end()),
          slotCount(c.slotCount()) {}

    ProgramView view() const {
        ProgramView v;
        v.instructions = instructions;
        v.runs = runs;
        v.inputSlots = inputSlots;
        v.outputSlots = outputSlots;
        v.constants = constants;
        v.slotNodes = slotNodes;
        v.slotCount = slotCount;
        return v;
    }
};

// ---------------------------------------------------------------------------
// Clean runs
// ---------------------------------------------------------------------------

TEST(VerifyLint, GeneratorNetlistsAreClean) {
    for (const Netlist& net : sampleNetlists()) {
        // Raw generator output may contain dead scaffolding (unused prefix
        // nodes etc.) — warning material, never structural errors.
        const Diagnostics raw = lintNetlist(net);
        EXPECT_EQ(raw.errorCount(), 0u) << net.name() << ": " << raw.summary();
        // The simplified form (what the library pipeline ships) must be
        // warning-clean too; dangling inputs stay Info (truncation-style
        // approximations keep their interface).
        const Diagnostics clean = lintNetlist(circuit::simplify(net));
        EXPECT_EQ(clean.errorCount(), 0u) << net.name() << ": " << clean.summary();
        EXPECT_EQ(clean.warningCount(), 0u) << net.name() << ": " << clean.summary();
    }
}

TEST(VerifyProgram, CompiledProgramsAreCleanAcrossBackends) {
    for (const circuit::kernels::Backend* backend : circuit::kernels::availableBackends()) {
        for (const Netlist& net : sampleNetlists()) {
            CompiledNetlist::Options options;
            options.backend = backend;
            const CompiledNetlist compiled = CompiledNetlist::compile(net, options);
            const Diagnostics d = verifyProgram(compiled, &net);
            EXPECT_EQ(d.errorCount(), 0u)
                << net.name() << " on " << backend->name << ": " << d.summary();
        }
    }
}

TEST(VerifyProgram, UnprunedCompileIsClean) {
    const Netlist net = gen::wallaceMultiplier(4);
    CompiledNetlist::Options options;
    options.pruneDead = false;
    const CompiledNetlist compiled = CompiledNetlist::compile(net, options);
    const Diagnostics d = verifyProgram(compiled, &net);
    EXPECT_EQ(d.errorCount(), 0u) << d.summary();
}

// ---------------------------------------------------------------------------
// Netlist mutation negatives (raw-span front door: the builder cannot
// construct corrupt IR, serialized/ingested streams can)
// ---------------------------------------------------------------------------

struct RawNetlist {
    std::vector<Node> nodes;
    std::vector<NodeId> inputs;
    std::vector<NodeId> outputs;

    explicit RawNetlist(const Netlist& net)
        : nodes(net.nodes().begin(), net.nodes().end()),
          inputs(net.inputs().begin(), net.inputs().end()),
          outputs(net.outputs().begin(), net.outputs().end()) {}

    Diagnostics lint(const LintOptions& options = {}) const {
        return lintNetlist(nodes, inputs, outputs, options);
    }
};

RawNetlist validRaw() {
    RawNetlist raw(gen::rippleCarryAdder(4));
    EXPECT_FALSE(raw.lint().hasErrors());
    return raw;
}

NodeId firstGate(const RawNetlist& raw) {
    for (NodeId i = 0; i < raw.nodes.size(); ++i)
        if (circuit::fanInCount(raw.nodes[i].kind) >= 2) return i;
    ADD_FAILURE() << "no 2-input gate found";
    return 0;
}

TEST(VerifyLintMutation, MissingOperandIsArity) {
    RawNetlist raw = validRaw();
    raw.nodes[firstGate(raw)].b = kInvalidNode;
    const Diagnostics d = raw.lint();
    EXPECT_TRUE(d.hasErrors());
    EXPECT_TRUE(d.has(Rule::NetArity)) << d.summary();
}

TEST(VerifyLintMutation, UnknownKindIsArity) {
    RawNetlist raw = validRaw();
    raw.nodes[firstGate(raw)].kind = static_cast<GateKind>(0xEE);
    EXPECT_TRUE(raw.lint().has(Rule::NetArity));
}

TEST(VerifyLintMutation, ForwardReferenceIsCycle) {
    RawNetlist raw = validRaw();
    const NodeId g = firstGate(raw);
    raw.nodes[g].a = static_cast<NodeId>(raw.nodes.size() - 1);  // forward edge
    ASSERT_GT(raw.nodes.size() - 1, g);
    EXPECT_TRUE(raw.lint().has(Rule::NetOperandRange));
}

TEST(VerifyLintMutation, OutOfRangeOperand) {
    RawNetlist raw = validRaw();
    raw.nodes[firstGate(raw)].a = static_cast<NodeId>(raw.nodes.size() + 7);
    EXPECT_TRUE(raw.lint().has(Rule::NetOperandRange));
}

TEST(VerifyLintMutation, CorruptInputList) {
    RawNetlist raw = validRaw();
    std::swap(raw.inputs[0], raw.inputs[1]);
    EXPECT_TRUE(raw.lint().has(Rule::NetInputList));
    RawNetlist shorter = validRaw();
    shorter.inputs.pop_back();
    EXPECT_TRUE(shorter.lint().has(Rule::NetInputList));
}

TEST(VerifyLintMutation, OutOfRangeOutput) {
    RawNetlist raw = validRaw();
    raw.outputs.back() = static_cast<NodeId>(raw.nodes.size());
    EXPECT_TRUE(raw.lint().has(Rule::NetOutputRange));
}

TEST(VerifyLintMutation, NoOutputsWarns) {
    RawNetlist raw = validRaw();
    raw.outputs.clear();
    const Diagnostics d = raw.lint();
    EXPECT_FALSE(d.hasErrors());
    EXPECT_TRUE(d.has(Rule::NetNoOutputs));
}

TEST(VerifyLintMutation, UnreachableGateWarns) {
    // A gate consuming two inputs that no output references.
    Netlist net("unreachable");
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    net.addGate(GateKind::And, a, b);  // dead
    net.markOutput(net.addGate(GateKind::Xor, a, b));
    const Diagnostics d = lintNetlist(net);
    EXPECT_FALSE(d.hasErrors());
    EXPECT_TRUE(d.has(Rule::NetUnreachable)) << d.summary();

    LintOptions muted;
    muted.warnUnreachable = false;
    EXPECT_FALSE(lintNetlist(net, muted).has(Rule::NetUnreachable));
}

TEST(VerifyLintMutation, DuplicateStructureWarns) {
    Netlist net("dup");
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    const NodeId x = net.addGate(GateKind::And, a, b);
    const NodeId y = net.addGate(GateKind::And, a, b);  // identical cone
    net.markOutput(net.addGate(GateKind::Or, x, y));
    const Diagnostics d = lintNetlist(net);
    EXPECT_FALSE(d.hasErrors());
    EXPECT_TRUE(d.has(Rule::NetDuplicateStructure)) << d.summary();
}

TEST(VerifyLintMutation, ConstFoldableConeWarns) {
    Netlist net("fold");
    const NodeId a = net.addInput();
    const NodeId zero = net.addConst(false);
    const NodeId dead = net.addGate(GateKind::And, a, zero);  // provably 0
    net.markOutput(net.addGate(GateKind::Or, dead, a));
    const Diagnostics d = lintNetlist(net);
    EXPECT_FALSE(d.hasErrors());
    EXPECT_TRUE(d.has(Rule::NetConstFoldable)) << d.summary();
}

TEST(VerifyLintMutation, DanglingInputIsInfo) {
    Netlist net("dangling");
    const NodeId a = net.addInput();
    net.addInput();  // never consumed
    net.markOutput(net.addGate(GateKind::Not, a));
    const Diagnostics d = lintNetlist(net);
    EXPECT_FALSE(d.hasErrors());
    EXPECT_EQ(d.warningCount(), 0u);
    EXPECT_TRUE(d.has(Rule::NetDanglingInput)) << d.summary();
}

// ---------------------------------------------------------------------------
// Program mutation negatives
// ---------------------------------------------------------------------------

TEST(VerifyProgramMutation, OperandSlotOutOfRange) {
    ProgramCopy p(CompiledNetlist::compile(gen::rippleCarryAdder(4)));
    p.instructions.front().a = static_cast<std::uint32_t>(p.slotCount + 3);
    EXPECT_TRUE(verifyProgram(p.view()).has(Rule::ProgSlotRange));
}

TEST(VerifyProgramMutation, UseBeforeDefinition) {
    ProgramCopy p(CompiledNetlist::compile(gen::rippleCarryAdder(4)));
    // First instruction reads the last instruction's destination.
    p.instructions.front().a = p.instructions.back().dst;
    EXPECT_TRUE(verifyProgram(p.view()).has(Rule::ProgUseBeforeDef));
}

TEST(VerifyProgramMutation, PlaneClobberIsRedefinition) {
    ProgramCopy p(CompiledNetlist::compile(gen::rippleCarryAdder(4)));
    // Last instruction overwrites the first one's (still live) plane.
    p.instructions.back().dst = p.instructions.front().dst;
    EXPECT_TRUE(verifyProgram(p.view()).has(Rule::ProgRedefinition));
}

TEST(VerifyProgramMutation, InputPlaneClobberIsRedefinition) {
    ProgramCopy p(CompiledNetlist::compile(gen::rippleCarryAdder(4)));
    p.instructions.front().dst = p.inputSlots.front();
    EXPECT_TRUE(verifyProgram(p.view()).has(Rule::ProgRedefinition));
}

TEST(VerifyProgramMutation, BrokenRunPartition) {
    ProgramCopy p(CompiledNetlist::compile(gen::rippleCarryAdder(4)));
    ASSERT_FALSE(p.runs.empty());
    p.runs.front().end += 1;  // overlaps the next run
    EXPECT_TRUE(verifyProgram(p.view()).has(Rule::ProgRunShape));

    ProgramCopy q(CompiledNetlist::compile(gen::rippleCarryAdder(4)));
    q.runs.pop_back();  // stream no longer covered
    EXPECT_TRUE(verifyProgram(q.view()).has(Rule::ProgRunShape));
}

TEST(VerifyProgramMutation, BadFusionSemantics) {
    const Netlist net = gen::wallaceMultiplier(6);
    ProgramCopy p(CompiledNetlist::compile(net));
    // Swap one whole run's opcode for a same-fan-in sibling: the run
    // partition stays legal, only the computed function changes — exactly
    // what the truth-table re-derivation must catch.
    bool mutated = false;
    for (CompiledNetlist::Run& run : p.runs) {
        OpCode replacement;
        switch (run.op) {
            case OpCode::And: replacement = OpCode::Or; break;
            case OpCode::Or: replacement = OpCode::And; break;
            case OpCode::Xor: replacement = OpCode::Xnor; break;
            case OpCode::Xor3: replacement = OpCode::Maj; break;
            case OpCode::Maj: replacement = OpCode::Xor3; break;
            case OpCode::And3: replacement = OpCode::Or3; break;
            case OpCode::Or3: replacement = OpCode::And3; break;
            default: continue;
        }
        run.op = replacement;
        for (std::uint32_t i = run.begin; i < run.end; ++i)
            p.instructions[i].op = replacement;
        mutated = true;
        break;
    }
    ASSERT_TRUE(mutated) << "no swappable run found";
    const Diagnostics d = verifyProgram(p.view(), &net);
    EXPECT_TRUE(d.has(Rule::ProgFusionSemantics)) << d.summary();

    // The untouched program proves clean under the same check.
    const CompiledNetlist clean = CompiledNetlist::compile(net);
    EXPECT_EQ(verifyProgram(clean, &net).errorCount(), 0u);
}

TEST(VerifyProgramMutation, OutputPlaneNeverWritten) {
    ProgramCopy p(CompiledNetlist::compile(gen::rippleCarryAdder(4)));
    p.slotCount += 1;
    p.slotNodes.push_back(kInvalidNode);
    p.outputSlots.back() = static_cast<std::uint32_t>(p.slotCount - 1);
    EXPECT_TRUE(verifyProgram(p.view()).has(Rule::ProgOutputUndefined));
}

TEST(VerifyProgramMutation, DuplicateInputSlotIsInterface) {
    ProgramCopy p(CompiledNetlist::compile(gen::rippleCarryAdder(4)));
    ASSERT_GE(p.inputSlots.size(), 2u);
    p.inputSlots[1] = p.inputSlots[0];
    EXPECT_TRUE(verifyProgram(p.view()).has(Rule::ProgInterface));
}

// ---------------------------------------------------------------------------
// Abstract interpretation
// ---------------------------------------------------------------------------

TEST(VerifyAbsInt, TernaryTransferFunctions) {
    using K = OpCode;
    const Ternary Z = Ternary::Zero, O = Ternary::One, X = Ternary::X;
    EXPECT_EQ(ternaryOpEval(K::And, Z, X, X), Z);  // 0 dominates AND
    EXPECT_EQ(ternaryOpEval(K::Or, O, X, X), O);   // 1 dominates OR
    EXPECT_EQ(ternaryOpEval(K::Xor, X, Z, X), X);
    EXPECT_EQ(ternaryOpEval(K::Xor, O, O, X), Z);
    EXPECT_EQ(ternaryOpEval(K::Mux, O, X, Z), O);    // select 0 -> a
    EXPECT_EQ(ternaryOpEval(K::Mux, X, O, O), O);    // select 1 -> b
    EXPECT_EQ(ternaryOpEval(K::Maj, Z, Z, X), Z);    // two zeros decide
    EXPECT_EQ(ternaryOpEval(K::And3, X, X, Z), Z);
    EXPECT_EQ(ternaryOpEval(K::Or3, X, O, X), O);
    EXPECT_EQ(ternaryOpEval(K::Xor3, O, O, X), X);
    EXPECT_EQ(ternaryGateEval(GateKind::Nand, Ternary::Zero, Ternary::X, Ternary::X),
              Ternary::One);
    EXPECT_EQ(ternaryGateEval(GateKind::Const1, Ternary::X, Ternary::X, Ternary::X),
              Ternary::One);
}

TEST(VerifyAbsInt, ConstantPropagationThroughNetlist) {
    Netlist net("prop");
    const NodeId a = net.addInput();
    const NodeId one = net.addConst(true);
    const NodeId orGate = net.addGate(GateKind::Or, a, one);    // always 1
    const NodeId andGate = net.addGate(GateKind::And, a, orGate);  // == a -> X
    net.markOutput(andGate);
    const std::vector<Ternary> v = absEvalNetlist(net);
    EXPECT_EQ(v[orGate], Ternary::One);
    EXPECT_EQ(v[andGate], Ternary::X);

    const Ternary pinned[] = {Ternary::One};
    const std::vector<Ternary> w = absEvalNetlist(net, pinned);
    EXPECT_EQ(w[andGate], Ternary::One);
}

TEST(VerifyAbsInt, ProgramAndNetlistDomainsAgreeOnOutputs) {
    for (const Netlist& net : sampleNetlists()) {
        const std::vector<Ternary> nodeVals = absEvalNetlist(net);
        const CompiledNetlist compiled = CompiledNetlist::compile(net);
        const std::vector<Ternary> slotVals = absEvalProgram(compiled);
        const auto outSlots = compiled.outputSlots();
        for (std::size_t o = 0; o < outSlots.size(); ++o) {
            // Both domains use maximally precise per-op transfer functions
            // and fused opcodes compose the same gate functions, so the
            // abstract output values must agree exactly.
            EXPECT_EQ(static_cast<int>(slotVals[outSlots[o]]),
                      static_cast<int>(nodeVals[net.outputs()[o]]))
                << net.name() << " output " << o;
        }
    }
}

TEST(VerifyAbsInt, CannotDeviateIsSoundAgainstExhaustiveCampaign) {
    // Truncated structures have provably constant / disconnected planes:
    // the static proof must be non-trivial AND every proven site must show
    // zero deviation in the exhaustive ground-truth campaign.
    const Netlist net = gen::truncatedMultiplier(5, 3);
    const circuit::ArithSignature sig{circuit::ArithOp::Multiplier, 5, 5};

    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    const fault::SiteEnumeration en = fault::enumerateFaultSites(compiled);
    std::vector<StuckSite> stuck(en.sites.size());
    for (std::size_t f = 0; f < en.sites.size(); ++f)
        stuck[f] = {en.sites[f].slot, en.sites[f].afterInstr, en.sites[f].stuckTo};
    const std::vector<bool> proven = cannotDeviate(compiled, stuck);
    const std::size_t provenCount =
        static_cast<std::size_t>(std::count(proven.begin(), proven.end(), true));
    EXPECT_GT(provenCount, 0u) << "static skip list is trivial";
    EXPECT_LT(provenCount, proven.size()) << "everything proven safe cannot be right";

    fault::CampaignConfig config;
    config.staticSkip = false;  // ground truth: evaluate every site
    const fault::ResilienceReport report = fault::analyzeResilience(net, sig, config);
    ASSERT_TRUE(report.exhaustive);
    ASSERT_EQ(report.faults.size(), proven.size());
    for (std::size_t f = 0; f < proven.size(); ++f)
        if (proven[f])
            EXPECT_EQ(report.faults[f].deviatedVectors, 0u)
                << "statically 'safe' site deviated: slot " << en.sites[f].slot;
}

TEST(VerifyAbsInt, StaticSkipKeepsReportsBitIdentical) {
    const struct {
        Netlist net;
        circuit::ArithSignature sig;
    } cases[] = {
        {gen::truncatedMultiplier(5, 3), {circuit::ArithOp::Multiplier, 5, 5}},
        {gen::loaAdder(6, 3), {circuit::ArithOp::Adder, 6, 6}},
    };
    for (const auto& c : cases) {
        fault::CampaignConfig on, off;
        on.staticSkip = true;
        off.staticSkip = false;
        const fault::ResilienceReport a = fault::analyzeResilience(c.net, c.sig, on);
        const fault::ResilienceReport b = fault::analyzeResilience(c.net, c.sig, off);
        util::ByteWriter wa, wb;
        a.serialize(wa);
        b.serialize(wb);
        EXPECT_EQ(wa.take(), wb.take()) << c.net.name();
    }
}

TEST(VerifyAbsInt, StaticSkipBitIdenticalWhenSampled) {
    // 9x9 exceeds the default exhaustive limit -> sampled lane-group path.
    const Netlist net = gen::truncatedMultiplier(9, 5);
    const circuit::ArithSignature sig{circuit::ArithOp::Multiplier, 9, 9};
    fault::CampaignConfig on, off;
    on.analysis.sampleCount = 1 << 10;
    off.analysis.sampleCount = 1 << 10;
    on.staticSkip = true;
    off.staticSkip = false;
    const fault::ResilienceReport a = fault::analyzeResilience(net, sig, on);
    const fault::ResilienceReport b = fault::analyzeResilience(net, sig, off);
    ASSERT_FALSE(a.exhaustive);
    util::ByteWriter wa, wb;
    a.serialize(wa);
    b.serialize(wb);
    EXPECT_EQ(wa.take(), wb.take());
}

// ---------------------------------------------------------------------------
// AXF_VERIFY hook + cache verify-on-load
// ---------------------------------------------------------------------------

TEST(VerifyHook, SelfChecksPassOnRealPrograms) {
    ScopedVerifyOverride enabled(true);
    ASSERT_TRUE(verifyEnabled());
    for (const Netlist& net : sampleNetlists()) {
        EXPECT_NO_THROW({
            const CompiledNetlist compiled = CompiledNetlist::compile(net);
            (void)compiled;
            const Netlist simplified = circuit::simplify(net);
            (void)circuit::lowerToTwoInput(simplified);
        }) << net.name();
    }
}

TEST(VerifyHook, OverrideRestores) {
    {
        ScopedVerifyOverride enabled(true);
        EXPECT_TRUE(verifyEnabled());
        {
            ScopedVerifyOverride disabled(false);
            EXPECT_FALSE(verifyEnabled());
        }
        EXPECT_TRUE(verifyEnabled());
    }
}

TEST(VerifyHook, ThrowIfErrorsCarriesRuleId) {
    Diagnostics d;
    d.add(Rule::ProgRunShape, 3, "broken");
    try {
        throwIfErrors(d, "test");
        FAIL() << "expected logic_error";
    } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find("CP004"), std::string::npos) << e.what();
    }
}

TEST(VerifyCache, LintOnLoadRejectsCorruptNetlists) {
    cache::CharacterizationCache cache;

    const Netlist net = gen::rippleCarryAdder(4);
    const std::uint64_t hash = net.structuralHash();
    const cache::CacheKey key = cache::CharacterizationCache::blobKey(hash, "verify-test.v1");

    cache.putNetlist(key, net, hash);
    std::uint64_t outHash = 0;
    const std::optional<Netlist> loaded = cache.findNetlist(key, &outHash);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(outHash, hash);
    EXPECT_EQ(loaded->structuralHash(), hash);

    // Tampered payload: embedded hash disagrees with the rebuilt netlist.
    util::ByteWriter tampered;
    tampered.u64(hash ^ 0xBADF00D);
    net.serialize(tampered);
    cache.putBytes(key, tampered.take());
    EXPECT_FALSE(cache.findNetlist(key).has_value());
    EXPECT_GE(cache.stats().corruptEntriesDropped, 1u);
}

/// A hand-built `findNetlist` payload: hash, then `Netlist::serialize`'s
/// layout (name, nodes as kind byte + operand ids, outputs).
std::vector<std::uint8_t> rawNetlistPayload(
    const std::vector<std::pair<std::uint8_t, std::vector<std::uint32_t>>>& nodes,
    const std::vector<std::uint32_t>& outputs) {
    util::ByteWriter out;
    out.u64(0);
    out.u32(3);
    out.raw("raw", 3);
    out.u32(static_cast<std::uint32_t>(nodes.size()));
    for (const auto& [kind, operands] : nodes) {
        out.u8(kind);
        for (std::uint32_t id : operands) out.u32(id);
    }
    out.u32(static_cast<std::uint32_t>(outputs.size()));
    for (std::uint32_t id : outputs) out.u32(id);
    return out.take();
}

TEST(VerifyCache, DecoderRejectsIllegalNetlistsBeforeLint) {
    const auto kind = [](GateKind k) { return static_cast<std::uint8_t>(k); };
    const std::vector<std::vector<std::uint8_t>> payloads = {
        // And(0, 3) reads node 3 before it exists.
        rawNetlistPayload({{kind(GateKind::Input), {}},
                           {kind(GateKind::Input), {}},
                           {kind(GateKind::And), {0, 3}},
                           {kind(GateKind::Not), {0}}},
                          {2}),
        // Kind byte one past the last GateKind.
        rawNetlistPayload({{kind(GateKind::Input), {}},
                           {static_cast<std::uint8_t>(kind(GateKind::Maj) + 1), {0}}},
                          {1}),
    };
    cache::CharacterizationCache cache;
    const cache::CacheKey key = cache::CharacterizationCache::blobKey(0, "verify-test.raw");
    for (const std::vector<std::uint8_t>& payload : payloads) {
        // The first line of defence: Netlist::deserialize itself refuses.
        util::ByteReader reader(payload);
        std::uint64_t hash = 0;
        ASSERT_TRUE(reader.u64(hash));
        EXPECT_FALSE(Netlist::deserialize(reader).has_value());

        const std::uint64_t dropped = cache.stats().corruptEntriesDropped;
        cache.putBytes(key, payload);
        EXPECT_FALSE(cache.findNetlist(key).has_value());
        EXPECT_EQ(cache.stats().corruptEntriesDropped, dropped + 1);
    }
}

}  // namespace
}  // namespace axf::verify
