#include <gtest/gtest.h>

#include <vector>

#include "src/circuit/batch_sim.hpp"
#include "src/circuit/simulator.hpp"
#include "src/util/rng.hpp"

namespace axf::circuit {
namespace {

/// Random DAG over the full gate alphabet: every kind is drawn with equal
/// probability, operands reference any earlier node (netlist invariant).
Netlist randomNetlist(int inputs, int gates, int outputs, util::Rng& rng) {
    static constexpr GateKind kAllKinds[] = {
        GateKind::Const0, GateKind::Const1, GateKind::Buf,    GateKind::Not,
        GateKind::And,    GateKind::Or,     GateKind::Xor,    GateKind::Nand,
        GateKind::Nor,    GateKind::Xnor,   GateKind::AndNot, GateKind::OrNot,
        GateKind::Mux,    GateKind::Maj};
    Netlist net("random");
    for (int i = 0; i < inputs; ++i) net.addInput();
    for (int g = 0; g < gates; ++g) {
        const GateKind kind = kAllKinds[rng.index(std::size(kAllKinds))];
        const auto pickNode = [&] {
            return static_cast<NodeId>(rng.index(net.nodeCount()));
        };
        if (kind == GateKind::Const0 || kind == GateKind::Const1) {
            net.addConst(kind == GateKind::Const1);
        } else {
            net.addGate(kind, pickNode(), pickNode(), pickNode());
        }
    }
    for (int o = 0; o < outputs; ++o)
        net.markOutput(static_cast<NodeId>(rng.index(net.nodeCount())));
    return net;
}

/// Exhaustively cross-checks BatchSimulator (kBlockLanes-lane blocks,
/// pruned compile) against
/// Simulator::evaluateScalar (all-nodes compile) over the full input space
/// of the netlist.
void crossCheckExhaustive(const Netlist& net) {
    const int totalBits = static_cast<int>(net.inputCount());
    ASSERT_LE(totalBits, 12);
    const std::uint64_t space = std::uint64_t{1} << totalBits;

    Simulator scalar(net);
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    BatchSimulator batch(compiled);
    EXPECT_LE(compiled.slotCount(), net.nodeCount());

    constexpr std::size_t W = kBlockWords;
    std::vector<CompiledNetlist::Word> in(net.inputCount() * W);
    std::vector<CompiledNetlist::Word> out(net.outputCount() * W);
    for (std::uint64_t base = 0; base < space; base += kBlockLanes) {
        fillExhaustiveBlock(in, totalBits, base, W);
        batch.evaluate(in, out);
        const std::uint64_t lanes = std::min<std::uint64_t>(kBlockLanes, space - base);
        for (std::uint64_t lane = 0; lane < lanes; ++lane) {
            std::uint64_t batchResult = 0;
            for (std::size_t o = 0; o < net.outputCount(); ++o)
                if ((out[o * W + lane / 64] >> (lane % 64)) & 1u)
                    batchResult |= std::uint64_t{1} << o;
            ASSERT_EQ(batchResult, scalar.evaluateScalar(base + lane))
                << "vector " << base + lane;
        }
    }
}

TEST(BatchSimulator, MatchesScalarOnRandomNetlists) {
    util::Rng rng(0xBA7C);
    for (int trial = 0; trial < 20; ++trial) {
        const int inputs = 4 + static_cast<int>(rng.index(7));   // 4..10
        const int gates = 20 + static_cast<int>(rng.index(60));  // plenty of dead logic
        const int outputs = 1 + static_cast<int>(rng.index(8));
        crossCheckExhaustive(randomNetlist(inputs, gates, outputs, rng));
    }
}

TEST(BatchSimulator, EveryGateKindExercised) {
    // One tiny netlist per kind, checked over its full input space, so a
    // wrong lowering of any single gate cannot hide inside a random DAG.
    for (const GateKind kind :
         {GateKind::Buf, GateKind::Not, GateKind::And, GateKind::Or, GateKind::Xor,
          GateKind::Nand, GateKind::Nor, GateKind::Xnor, GateKind::AndNot, GateKind::OrNot,
          GateKind::Mux, GateKind::Maj}) {
        Netlist net(gateKindName(kind));
        const NodeId a = net.addInput();
        const NodeId b = net.addInput();
        const NodeId c = net.addInput();
        net.markOutput(net.addGate(kind, a, fanInCount(kind) >= 2 ? b : kInvalidNode,
                                   fanInCount(kind) >= 3 ? c : kInvalidNode));
        crossCheckExhaustive(net);
    }
}

TEST(BatchSimulator, ConstantsAndDeadInputs) {
    Netlist net("consts");
    net.addInput();  // dead input: interface must survive pruning
    const NodeId one = net.addConst(true);
    const NodeId zero = net.addConst(false);
    net.markOutput(one);
    net.markOutput(zero);
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    EXPECT_EQ(compiled.inputCount(), 1u);
    EXPECT_EQ(compiled.instructionCount(), 0u);
    crossCheckExhaustive(net);
}

TEST(BatchSimulator, PruningDropsDeadCone) {
    Netlist net("dead");
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    const NodeId live = net.addGate(GateKind::And, a, b);
    net.addGate(GateKind::Xor, a, b);  // dead
    net.addGate(GateKind::Or, a, b);   // dead
    net.markOutput(live);
    const CompiledNetlist pruned = CompiledNetlist::compile(net);
    EXPECT_EQ(pruned.instructionCount(), 1u);
    const CompiledNetlist full = CompiledNetlist::compile(net, {.pruneDead = false});
    EXPECT_EQ(full.instructionCount(), 3u);
    EXPECT_TRUE(full.preservesAllNodes());
    crossCheckExhaustive(net);
}

TEST(BatchSimulator, ShapeChecks) {
    Netlist net("shape");
    net.addInput();
    net.markOutput(0);
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    BatchSimulator sim(compiled);
    std::vector<CompiledNetlist::Word> bad(kBlockWords * 2);
    std::vector<CompiledNetlist::Word> out(kBlockWords);
    EXPECT_THROW(sim.evaluate(bad, out), std::invalid_argument);
    std::vector<CompiledNetlist::Word> in(kBlockWords);
    std::vector<CompiledNetlist::Word> badOut(kBlockWords * 3);
    EXPECT_THROW(sim.evaluate(in, badOut), std::invalid_argument);
}

TEST(FillExhaustiveBlock, W1AndW4AgainstScalarBitReference) {
    // Scalar reference: bit `bit` of lane L must equal bit `bit` of the
    // enumerated index (base + L).  Checked at W = 1 (no word-index bits)
    // and at W = 4, 8 and 16 (pattern bits 0..5, word-index bits 6.., base
    // bits above) over every bit class and several bases.
    const auto check = [](std::size_t W, int totalBits, std::uint64_t base) {
        std::vector<CompiledNetlist::Word> in(static_cast<std::size_t>(totalBits) * W);
        fillExhaustiveBlock(in, totalBits, base, W);
        for (std::uint64_t lane = 0; lane < W * 64; ++lane) {
            const std::uint64_t index = base + lane;
            for (int bit = 0; bit < totalBits; ++bit) {
                const std::uint64_t got =
                    (in[static_cast<std::size_t>(bit) * W + lane / 64] >> (lane % 64)) & 1u;
                ASSERT_EQ(got, (index >> bit) & 1u)
                    << "W=" << W << " base=" << base << " lane=" << lane << " bit=" << bit;
            }
        }
    };
    for (const std::size_t W : {std::size_t{1}, std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
        const std::uint64_t lanes = W * 64;
        for (const std::uint64_t base : {std::uint64_t{0}, lanes, 6 * lanes, 65536 - lanes})
            for (const int totalBits : {16, 10, 7}) check(W, totalBits, base);
    }
}

TEST(CompiledNetlist, RunW1MatchesWideRunOnRandomNetlists) {
    // W single-word run<1> sweeps must reproduce one W-word wide sweep
    // bitwise, on netlists covering every GateKind (and therefore, after
    // fusion, every kernel opcode).
    util::Rng rng(0x1441);
    for (int trial = 0; trial < 10; ++trial) {
        const Netlist net = randomNetlist(4 + static_cast<int>(rng.index(7)),
                                          20 + static_cast<int>(rng.index(60)),
                                          1 + static_cast<int>(rng.index(8)), rng);
        const CompiledNetlist compiled = CompiledNetlist::compile(net);
        constexpr std::size_t W = kBlockWords;
        std::vector<CompiledNetlist::Word> wideIn(net.inputCount() * W);
        for (auto& w : wideIn) w = rng.uniformInt(0, ~std::uint64_t{0});
        std::vector<CompiledNetlist::Word> wideOut(net.outputCount() * W);
        BatchSimulator wide(compiled);  // owns the (aligned) wide workspace
        wide.evaluate(wideIn, wideOut);

        std::vector<CompiledNetlist::Word> ws(compiled.workspaceWords(1), 0);
        compiled.initWorkspace(ws, 1);
        std::vector<CompiledNetlist::Word> in(net.inputCount()), out(net.outputCount());
        for (std::size_t w = 0; w < W; ++w) {
            for (std::size_t i = 0; i < net.inputCount(); ++i) in[i] = wideIn[i * W + w];
            compiled.run<1>(in.data(), out.data(), ws.data());
            for (std::size_t o = 0; o < net.outputCount(); ++o)
                ASSERT_EQ(out[o], wideOut[o * W + w]) << "word " << w << " output " << o;
        }
    }
}

TEST(FillExhaustiveBlock, LaneCarriesItsIndex) {
    const int totalBits = 12;
    const std::uint64_t base = 2048;  // a multiple of every block's lane count
    for (const std::size_t W : {std::size_t{1}, std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
        std::vector<CompiledNetlist::Word> in(static_cast<std::size_t>(totalBits) * W);
        fillExhaustiveBlock(in, totalBits, base, W);
        for (std::uint64_t lane = 0; lane < W * 64; ++lane) {
            std::uint64_t value = 0;
            for (int bit = 0; bit < totalBits; ++bit)
                if ((in[static_cast<std::size_t>(bit) * W + lane / 64] >> (lane % 64)) & 1u)
                    value |= std::uint64_t{1} << bit;
            ASSERT_EQ(value, base + lane) << "W=" << W;
        }
    }
}

}  // namespace
}  // namespace axf::circuit
