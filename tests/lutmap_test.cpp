#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/circuit/simulator.hpp"
#include "src/circuit/transform.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/library.hpp"
#include "src/gen/multipliers.hpp"
#include "src/synth/lutmap.hpp"
#include "src/util/rng.hpp"

namespace axf::synth {
namespace {

using circuit::GateKind;
using circuit::Netlist;
using circuit::NodeId;

Netlist prepared(const Netlist& net) {
    return circuit::simplify(circuit::lowerToTwoInput(circuit::simplify(net)));
}

// --- test oracle: the original vector-of-leaves priority-cut mapper ----------
// Kept verbatim (apart from being a free function) so the inline-cut mapper
// can be pinned to the identical Mapping: same cuts, same tie order under
// std::sort, same cover.

namespace reference {

/// A cut: sorted leaf list plus its depth label (1 + max leaf label).
struct Cut {
    std::vector<NodeId> leaves;
    int label = 0;

    bool dominates(const Cut& other) const {
        // `this` dominates when not deeper and its leaves are a subset.
        if (label > other.label) return false;
        return std::includes(other.leaves.begin(), other.leaves.end(), leaves.begin(),
                             leaves.end());
    }
};

/// Merges two sorted leaf sets; returns false if the union exceeds k.
bool mergeLeaves(const std::vector<NodeId>& a, const std::vector<NodeId>& b, int k,
                 std::vector<NodeId>& out) {
    out.clear();
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        NodeId next;
        if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
            next = a[i++];
        } else if (i >= a.size() || b[j] < a[i]) {
            next = b[j++];
        } else {
            next = a[i++];
            ++j;
        }
        out.push_back(next);
        if (static_cast<int>(out.size()) > k) return false;
    }
    return true;
}

LutMapper::Mapping referenceMap(const Netlist& netlist, const LutMapper::Options& options) {
    const int k = options.lutInputs;
    const std::size_t n = netlist.nodeCount();

    // --- phase 1: priority-cut enumeration with depth labels -------------
    std::vector<std::vector<Cut>> cuts(n);  // candidate cuts per gate node
    std::vector<int> label(n, 0);           // FlowMap-style depth label
    std::vector<Cut> bestCut(n);

    for (std::size_t i = 0; i < n; ++i) {
        const circuit::Node& node = netlist.node(static_cast<NodeId>(i));
        const int arity = circuit::fanInCount(node.kind);
        if (arity == 0) {
            label[i] = 0;  // inputs and constants are free fabric resources
            continue;
        }
        if (arity > 2)
            throw std::invalid_argument("LutMapper: run lowerToTwoInput before mapping");

        // Candidate fan-in cut lists, each extended with the trivial cut.
        const auto candidateCuts = [&](NodeId fanin) {
            std::vector<Cut> list = cuts[fanin];
            Cut trivial;
            trivial.leaves = {fanin};
            trivial.label = label[fanin];
            list.push_back(std::move(trivial));
            return list;
        };

        // The label of a cut is 1 + the worst *leaf* label: everything
        // inside the cut collapses into this LUT and costs no extra level.
        const auto cutLabel = [&](const std::vector<NodeId>& leaves) {
            int worst = 0;
            for (NodeId leaf : leaves) worst = std::max(worst, label[leaf]);
            return worst + 1;
        };

        std::vector<Cut> merged;
        std::vector<NodeId> scratch;
        const std::vector<Cut> ca = candidateCuts(node.a);
        if (arity == 1) {
            for (const Cut& c : ca) {
                Cut cut;
                cut.leaves = c.leaves;
                cut.label = cutLabel(cut.leaves);
                merged.push_back(std::move(cut));
            }
        } else {
            const std::vector<Cut> cb = candidateCuts(node.b);
            for (const Cut& x : ca) {
                for (const Cut& y : cb) {
                    if (!mergeLeaves(x.leaves, y.leaves, k, scratch)) continue;
                    Cut cut;
                    cut.leaves = scratch;
                    cut.label = cutLabel(cut.leaves);
                    merged.push_back(std::move(cut));
                }
            }
        }

        // Rank by (depth, leaf count), drop dominated cuts, keep the best C.
        std::sort(merged.begin(), merged.end(), [](const Cut& x, const Cut& y) {
            if (x.label != y.label) return x.label < y.label;
            return x.leaves.size() < y.leaves.size();
        });
        std::vector<Cut> kept;
        for (Cut& c : merged) {
            bool dominated = false;
            for (const Cut& existing : kept) {
                if (existing.dominates(c)) {
                    dominated = true;
                    break;
                }
            }
            if (dominated) continue;
            kept.push_back(std::move(c));
            if (static_cast<int>(kept.size()) >= options.cutsPerNode) break;
        }
        if (kept.empty()) throw std::logic_error("LutMapper: node has no feasible cut");
        label[i] = kept.front().label;
        bestCut[i] = kept.front();
        cuts[i] = std::move(kept);
    }

    // --- phase 2: cover selection from the outputs back ------------------
    std::vector<bool> selected(n, false);
    std::vector<bool> needed(n, false);
    for (NodeId out : netlist.outputs()) needed[out] = true;
    for (std::size_t idx = n; idx-- > 0;) {
        if (!needed[idx]) continue;
        const circuit::Node& node = netlist.node(static_cast<NodeId>(idx));
        if (circuit::fanInCount(node.kind) == 0) continue;  // input/const drive
        selected[idx] = true;
        for (NodeId leaf : bestCut[idx].leaves) needed[leaf] = true;
    }

    LutMapper::Mapping mapping;
    for (std::size_t i = 0; i < n; ++i) {
        if (!selected[i]) continue;
        LutMapper::Lut lut;
        lut.root = static_cast<NodeId>(i);
        lut.leaves = bestCut[i].leaves;
        lut.level = label[i];
        mapping.luts.push_back(std::move(lut));
    }
    for (NodeId out : netlist.outputs()) mapping.depth = std::max(mapping.depth, label[out]);
    return mapping;
}

}  // namespace reference

using reference::referenceMap;

void expectSameMapping(const LutMapper::Mapping& expected, const LutMapper::Mapping& actual,
                       const std::string& what) {
    ASSERT_EQ(expected.luts.size(), actual.luts.size()) << what;
    EXPECT_EQ(expected.depth, actual.depth) << what;
    for (std::size_t i = 0; i < expected.luts.size(); ++i) {
        EXPECT_EQ(expected.luts[i].root, actual.luts[i].root) << what << " LUT " << i;
        EXPECT_EQ(expected.luts[i].leaves, actual.luts[i].leaves) << what << " LUT " << i;
        EXPECT_EQ(expected.luts[i].level, actual.luts[i].level) << what << " LUT " << i;
    }
}

// --- functional cover check -----------------------------------------------

/// Lanes of a 64-lane word through one gate, by the canonical `gateEval`
/// semantics.
std::uint64_t gateWord(GateKind kind, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    std::uint64_t out = 0;
    for (int lane = 0; lane < 64; ++lane)
        if (circuit::gateEval(kind, (a >> lane) & 1, (b >> lane) & 1, (c >> lane) & 1))
            out |= std::uint64_t{1} << lane;
    return out;
}

/// Truth table of one LUT, taken from its cone: the lowered netlist is
/// evaluated from the LUT's leaves up to its root, stopping at the leaves.
/// Bit m is the root's value when leaf j carries bit j of m.  A cone that
/// escapes its leaves (reaches a primary input that is not a leaf) fails.
std::uint64_t lutTruthTable(const Netlist& net, const LutMapper::Lut& lut) {
    static constexpr std::uint64_t kVar[6] = {
        0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
        0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
    std::unordered_map<NodeId, std::uint64_t> value;
    for (std::size_t j = 0; j < lut.leaves.size(); ++j) value[lut.leaves[j]] = kVar[j];
    const auto eval = [&](const auto& self, NodeId id) -> std::uint64_t {
        if (const auto it = value.find(id); it != value.end()) return it->second;
        const circuit::Node& node = net.node(id);
        std::uint64_t word = 0;
        switch (circuit::fanInCount(node.kind)) {
            case 0:
                EXPECT_NE(node.kind, GateKind::Input) << "cone of LUT " << lut.root
                                                      << " escapes its leaves at " << id;
                word = node.kind == GateKind::Const1 ? ~std::uint64_t{0} : 0;
                break;
            case 1: word = gateWord(node.kind, self(self, node.a), 0, 0); break;
            case 2:
                word = gateWord(node.kind, self(self, node.a), self(self, node.b), 0);
                break;
            default:
                word = gateWord(node.kind, self(self, node.a), self(self, node.b),
                                self(self, node.c));
                break;
        }
        value[id] = word;
        return word;
    };
    const std::uint64_t table = eval(eval, lut.root);
    const std::size_t minterms = std::size_t{1} << lut.leaves.size();
    return minterms == 64 ? table : table & ((std::uint64_t{1} << minterms) - 1);
}

/// Evaluates the LUT network of `mapping` over `lowered` against the
/// `source` netlist it was derived from, exhaustively when the source has
/// at most 12 inputs, else on 32 random 64-lane blocks.
void checkCoverFunction(const Netlist& source, const Netlist& lowered,
                        const LutMapper::Mapping& mapping, const std::string& what) {
    ASSERT_EQ(source.inputCount(), lowered.inputCount()) << what;
    ASSERT_EQ(source.outputCount(), lowered.outputCount()) << what;
    std::vector<std::uint64_t> tables;
    for (const LutMapper::Lut& lut : mapping.luts) tables.push_back(lutTruthTable(lowered, lut));

    const std::size_t inputs = source.inputCount();
    const bool exhaustive = inputs <= 12;
    const std::size_t blocks = exhaustive ? std::max<std::size_t>(1, (std::size_t{1} << inputs) / 64)
                                          : 32;
    circuit::Simulator reference(source);
    util::Rng rng(0x10C0FFEE);
    std::vector<std::uint64_t> in(inputs), expected(source.outputCount());
    std::vector<std::uint64_t> node(lowered.nodeCount(), 0);
    for (std::size_t block = 0; block < blocks; ++block) {
        for (std::size_t i = 0; i < inputs; ++i) {
            if (!exhaustive) {
                in[i] = rng.uniformInt(0, UINT64_MAX);
                continue;
            }
            in[i] = 0;
            for (std::uint64_t lane = 0; lane < 64; ++lane)
                in[i] |= (((block * 64 + lane) >> i) & 1) << lane;
        }
        reference.evaluate(in, expected);

        // Sources of the LUT network: primary inputs and constants.
        for (std::size_t id = 0; id < lowered.nodeCount(); ++id)
            node[id] = lowered.node(static_cast<NodeId>(id)).kind == GateKind::Const1
                           ? ~std::uint64_t{0}
                           : 0;
        for (std::size_t i = 0; i < inputs; ++i) node[lowered.inputs()[i]] = in[i];
        // LUTs in root order, which is topological (leaves precede roots).
        for (std::size_t l = 0; l < mapping.luts.size(); ++l) {
            const LutMapper::Lut& lut = mapping.luts[l];
            std::uint64_t word = 0;
            for (int lane = 0; lane < 64; ++lane) {
                std::uint64_t minterm = 0;
                for (std::size_t j = 0; j < lut.leaves.size(); ++j)
                    minterm |= ((node[lut.leaves[j]] >> lane) & 1) << j;
                word |= ((tables[l] >> minterm) & 1) << lane;
            }
            node[lut.root] = word;
        }
        for (std::size_t o = 0; o < source.outputCount(); ++o)
            ASSERT_EQ(node[lowered.outputs()[o]], expected[o])
                << what << ": output " << o << " differs in block " << block;
    }
}

/// Structural sanity of a mapping against its netlist.
void checkMappingInvariants(const Netlist& net, const LutMapper::Mapping& mapping, int k) {
    std::set<NodeId> roots;
    for (const LutMapper::Lut& lut : mapping.luts) {
        EXPECT_TRUE(roots.insert(lut.root).second) << "duplicate LUT root";
        EXPECT_LE(static_cast<int>(lut.leaves.size()), k);
        EXPECT_GE(lut.level, 1);
        for (NodeId leaf : lut.leaves) EXPECT_LT(leaf, lut.root);  // topological
    }
    // Every primary output must be driven by a selected LUT, an input, or a
    // constant.
    for (NodeId out : net.outputs()) {
        const GateKind kind = net.node(out).kind;
        if (circuit::fanInCount(kind) == 0) continue;
        EXPECT_TRUE(roots.count(out)) << "output " << out << " not covered";
    }
    // Every LUT leaf that is a gate must itself be a selected LUT root.
    for (const LutMapper::Lut& lut : mapping.luts) {
        for (NodeId leaf : lut.leaves) {
            if (circuit::fanInCount(net.node(leaf).kind) == 0) continue;
            EXPECT_TRUE(roots.count(leaf)) << "dangling internal leaf";
        }
    }
}

TEST(LutMapper, CoversSimpleNetlist) {
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    const NodeId c = net.addInput();
    const NodeId g1 = net.addGate(GateKind::And, a, b);
    const NodeId g2 = net.addGate(GateKind::Xor, g1, c);
    net.markOutput(g2);
    const LutMapper::Mapping m = LutMapper().map(net);
    // Three inputs, two gates -> a single 3-input LUT.
    EXPECT_EQ(m.lutCount(), 1u);
    EXPECT_EQ(m.depth, 1);
    checkMappingInvariants(net, m, 6);
}

TEST(LutMapper, RejectsThreeInputGates) {
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    const NodeId c = net.addInput();
    net.markOutput(net.addGate(GateKind::Maj, a, b, c));
    EXPECT_THROW(LutMapper().map(net), std::invalid_argument);
}

class LutMapperOnGenerators : public ::testing::TestWithParam<int> {};

TEST_P(LutMapperOnGenerators, InvariantsAndCompression) {
    const int n = GetParam();
    for (const Netlist& raw : {gen::rippleCarryAdder(n), gen::koggeStoneAdder(n),
                               gen::wallaceMultiplier(n), gen::truncatedMultiplier(n, n / 2)}) {
        const Netlist net = prepared(raw);
        for (int k : {4, 6}) {
            LutMapper::Options options;
            options.lutInputs = k;
            const LutMapper::Mapping m = LutMapper(options).map(net);
            const std::string what = raw.name() + " K=" + std::to_string(k);
            checkMappingInvariants(net, m, k);
            checkCoverFunction(raw, net, m, what);
            expectSameMapping(referenceMap(net, options), m, what);
            // K-LUT mapping must compress 2-input gates substantially.
            EXPECT_LT(m.lutCount(), net.gateCount()) << what;
            // A LUT level absorbs at least one gate level.
            EXPECT_GE(m.depth, 1);
            EXPECT_LE(m.depth, net.depth());
        }
    }
}

TEST_P(LutMapperOnGenerators, MatchesReferenceAcrossOptions) {
    const int n = GetParam();
    for (const Netlist& raw : {gen::koggeStoneAdder(n), gen::wallaceMultiplier(n)}) {
        const Netlist net = prepared(raw);
        for (const LutMapper::Options options :
             {LutMapper::Options{2, 1}, LutMapper::Options{3, 4}, LutMapper::Options{5, 8},
              LutMapper::Options{6, 1}, LutMapper::Options{6, 3}}) {
            const std::string what = raw.name() + " K=" + std::to_string(options.lutInputs) +
                                     " C=" + std::to_string(options.cutsPerNode);
            const LutMapper::Mapping m = LutMapper(options).map(net);
            expectSameMapping(referenceMap(net, options), m, what);
            checkMappingInvariants(net, m, options.lutInputs);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, LutMapperOnGenerators, ::testing::Values(4, 6, 8));

TEST(LutMapper, FourLutMappingUsesMoreLuts) {
    const Netlist net = prepared(gen::wallaceMultiplier(6));
    LutMapper::Options k4;
    k4.lutInputs = 4;
    const std::size_t luts4 = LutMapper(k4).map(net).lutCount();
    const std::size_t luts6 = LutMapper().map(net).lutCount();
    EXPECT_GT(luts4, luts6);
}

TEST(LutMapper, DepthOptimalityOnChain) {
    // A chain of 10 NOT gates fits into ceil(10/..) LUTs; with K=6 a single
    // LUT absorbs any single-input chain, so depth must be 1.
    Netlist net;
    NodeId cur = net.addInput();
    for (int i = 0; i < 10; ++i) cur = net.addGate(GateKind::Not, cur);
    net.markOutput(cur);
    const LutMapper::Mapping m = LutMapper().map(net);
    EXPECT_EQ(m.depth, 1);
    EXPECT_EQ(m.lutCount(), 1u);
}

TEST(LutMapper, WideXorTreeDepth) {
    // 32-input XOR tree: information-theoretic LUT depth >= 2 (6-LUTs).
    Netlist net;
    std::vector<NodeId> level;
    for (int i = 0; i < 32; ++i) level.push_back(net.addInput());
    while (level.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2)
            next.push_back(net.addGate(GateKind::Xor, level[i], level[i + 1]));
        if (level.size() % 2 == 1) next.push_back(level.back());
        level = std::move(next);
    }
    net.markOutput(level[0]);
    const LutMapper::Mapping m = LutMapper().map(net);
    // Information-theoretic bound: ceil(log6(32)) = 2; priority-cut
    // enumeration is near-optimal but not guaranteed exact.
    EXPECT_GE(m.depth, 2);
    EXPECT_LE(m.depth, 3);
    checkMappingInvariants(net, m, 6);
}

TEST(LutMapper, Deterministic) {
    const Netlist net = prepared(gen::wallaceMultiplier(6));
    const LutMapper::Mapping a = LutMapper().map(net);
    const LutMapper::Mapping b = LutMapper().map(net);
    ASSERT_EQ(a.lutCount(), b.lutCount());
    EXPECT_EQ(a.depth, b.depth);
    for (std::size_t i = 0; i < a.luts.size(); ++i) {
        EXPECT_EQ(a.luts[i].root, b.luts[i].root);
        EXPECT_EQ(a.luts[i].leaves, b.luts[i].leaves);
    }
}

TEST(LutMapper, MatchesReferenceOnCgpLibrarySlice) {
    // A ci-scale 8x8 multiplier library (the bench harnesses' AXF_SCALE=ci
    // policy): CGP-evolved netlists have irregular, reconvergent structure
    // the generator families lack.
    gen::LibraryConfig cfg;
    cfg.op = circuit::ArithOp::Multiplier;
    cfg.width = 8;
    cfg.seed = 0xA90F5 + 8 * 7 + 1;
    cfg.medBudgets = {0.001, 0.01};
    cfg.cgpGenerations = 60;
    std::size_t checked = 0;
    for (const gen::LibraryCircuit& entry : gen::buildLibrary(cfg)) {
        if (entry.origin != "cgp") continue;
        const Netlist net = prepared(entry.netlist);
        expectSameMapping(referenceMap(net, LutMapper::Options{}), LutMapper().map(net),
                          entry.name);
        ++checked;
    }
    EXPECT_GE(checked, 10u);
}

TEST(LutMapper, RejectsOptionsOutsideTheSupportedRange) {
    EXPECT_THROW(LutMapper(LutMapper::Options{1, 8}), std::invalid_argument);
    EXPECT_THROW(LutMapper(LutMapper::Options{7, 8}), std::invalid_argument);
    EXPECT_THROW(LutMapper(LutMapper::Options{6, 0}), std::invalid_argument);
    EXPECT_THROW(LutMapper(LutMapper::Options{6, 9}), std::invalid_argument);
    EXPECT_NO_THROW(LutMapper(LutMapper::Options{2, 1}));
    EXPECT_NO_THROW(LutMapper(LutMapper::Options{6, 8}));
}

}  // namespace
}  // namespace axf::synth
