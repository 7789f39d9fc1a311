#include "src/circuit/batch_sim.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/verify/verify.hpp"

namespace axf::circuit {

namespace {

using kernels::Instr;
using kernels::OpCode;

constexpr OpCode toOpCode(GateKind kind) {
    switch (kind) {
        case GateKind::Buf: return OpCode::Buf;
        case GateKind::Not: return OpCode::Not;
        case GateKind::And: return OpCode::And;
        case GateKind::Or: return OpCode::Or;
        case GateKind::Xor: return OpCode::Xor;
        case GateKind::Nand: return OpCode::Nand;
        case GateKind::Nor: return OpCode::Nor;
        case GateKind::Xnor: return OpCode::Xnor;
        case GateKind::AndNot: return OpCode::AndNot;
        case GateKind::OrNot: return OpCode::OrNot;
        case GateKind::Mux: return OpCode::Mux;
        case GateKind::Maj: return OpCode::Maj;
        default: throw std::logic_error("toOpCode: not a logic gate");
    }
}

/// The lowering above is only correct if every logic GateKind and the
/// OpCode it maps to agree on all 8 operand combinations of the shared
/// reference semantics.  Evaluated at compile time so a drift between
/// `gateEval` and `kernels::opEval` is a build error.
constexpr bool gateSemanticsMatchOpcodes() {
    for (int g = static_cast<int>(GateKind::Buf); g <= static_cast<int>(GateKind::Maj); ++g) {
        const GateKind kind = static_cast<GateKind>(g);
        const OpCode op = toOpCode(kind);
        for (int k = 0; k < 8; ++k)
            if (gateEval(kind, (k & 4) != 0, (k & 2) != 0, (k & 1) != 0) !=
                kernels::opEval(op, (k & 4) != 0, (k & 2) != 0, (k & 1) != 0))
                return false;
    }
    return true;
}
static_assert(gateSemanticsMatchOpcodes(),
              "GateKind lowering drifted from the shared opcode semantics");

// Operand counts come from the shared kernels::opFanIn (HalfAdd never
// appears in the pre-emission node table: it is introduced at emission).
using kernels::opFanIn;

/// Complement opcode: dual(op)(a, b) == ~op(a, b), with `swapped` asking
/// for the operands in (b, a) order.  False when no dual exists.
bool dualOf(OpCode op, OpCode& dual, bool& swapped) {
    swapped = false;
    switch (op) {
        case OpCode::Buf: dual = OpCode::Not; return true;
        case OpCode::Not: dual = OpCode::Buf; return true;
        case OpCode::And: dual = OpCode::Nand; return true;
        case OpCode::Nand: dual = OpCode::And; return true;
        case OpCode::Or: dual = OpCode::Nor; return true;
        case OpCode::Nor: dual = OpCode::Or; return true;
        case OpCode::Xor: dual = OpCode::Xnor; return true;
        case OpCode::Xnor: dual = OpCode::Xor; return true;
        // ~(a & ~b) = ~a | b = OrNot(b, a); ~(a | ~b) = ~a & b = AndNot(b, a)
        case OpCode::AndNot: dual = OpCode::OrNot; swapped = true; return true;
        case OpCode::OrNot: dual = OpCode::AndNot; swapped = true; return true;
        default: return false;
    }
}

/// Mutable per-node view of the program during fusion: opcode plus operand
/// *node ids* (slot assignment happens after the pass).
struct NodeOp {
    OpCode op = OpCode::Buf;
    NodeId a = 0, b = 0, c = 0;
    bool gate = false;
};

/// Peephole opcode fusion over the live cone.  Rules (all exact boolean
/// identities, so results stay bit-identical):
///  - Buf read-through: operands reference through copy chains;
///  - output-side inversion: a Not absorbs its single-use producer
///    (And->Nand, Xor->Xnor, AndNot->OrNot, Not->Buf double negation, ...);
///  - Mux select inversion: Mux(a, b, ~x) -> Mux(b, a, x) (always legal);
///  - operand-side inversion: a single-use Not operand folds into the
///    consumer (And->AndNot, Nand->OrNot, both-inverted And->Nor, ...,
///    Mux data operands -> MuxNotA/MuxNotB);
///  - associative-tree widening: Xor/And/Or over a single-use same-kind
///    producer fuses to Xor3/And3/Or3 (full-adder sums, AND trees and
///    OR-compressor levels each cost one instruction per level pair).
/// Every rewrite replaces operands by strictly-lower-level nodes, so the
/// (level, opcode, id) emission order stays topologically valid.
void fusePeephole(const Netlist& netlist, std::vector<NodeOp>& ops,
                  const std::vector<bool>& live, std::size_t& fusedOps) {
    const std::span<const Node> nodes = netlist.nodes();
    std::vector<std::uint32_t> uses(nodes.size(), 0);
    std::vector<bool> isOutput(nodes.size(), false);
    for (NodeId out : netlist.outputs()) {
        ++uses[out];
        isOutput[out] = true;
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!live[i] || !ops[i].gate) continue;
        const int fan = opFanIn(ops[i].op);
        ++uses[ops[i].a];
        if (fan >= 2) ++uses[ops[i].b];
        if (fan >= 3) ++uses[ops[i].c];
    }

    // True when `edges` references from the current gate are the ONLY
    // remaining references to Not node `t` — absorbing them leaves t dead.
    const auto absorbableNot = [&](NodeId t, std::uint32_t edges) {
        return ops[t].gate && ops[t].op == OpCode::Not && !isOutput[t] && uses[t] == edges;
    };

    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!live[i] || !ops[i].gate) continue;
        NodeOp& g = ops[i];

        // Buf read-through (any fanout: reading through a copy is free).
        const auto chase = [&](NodeId x) {
            NodeId r = x;
            while (ops[r].gate && ops[r].op == OpCode::Buf) r = ops[r].a;
            if (r != x) {
                --uses[x];
                ++uses[r];
            }
            return r;
        };
        {
            const int fan = opFanIn(g.op);
            g.a = chase(g.a);
            if (fan >= 2) g.b = chase(g.b);
            if (fan >= 3) g.c = chase(g.c);
        }

        // Output-side inversion: this Not is the only consumer of its
        // producer, so the producer flips kind and the Not becomes it.
        if (g.op == OpCode::Not) {
            const NodeId t = g.a;
            OpCode dual;
            bool swapped;
            if (ops[t].gate && !isOutput[t] && uses[t] == 1 &&
                dualOf(ops[t].op, dual, swapped)) {
                const NodeOp p = ops[t];
                const int pf = opFanIn(p.op);
                --uses[t];
                ++uses[p.a];
                if (pf >= 2) ++uses[p.b];
                g.op = dual;
                g.a = (swapped && pf >= 2) ? p.b : p.a;
                if (pf >= 2) g.b = swapped ? p.a : p.b;
                ++fusedOps;
            }
        }

        // Mux select inversion: an inverted select is a data swap.
        if (g.op == OpCode::Mux && ops[g.c].gate && ops[g.c].op == OpCode::Not) {
            const NodeId t = g.c;
            std::swap(g.a, g.b);
            g.c = ops[t].a;
            --uses[t];
            ++uses[g.c];
            ++fusedOps;
        }

        // Operand-side inversion for the two-input alphabet.
        const bool twoInput = g.op == OpCode::And || g.op == OpCode::Or ||
                              g.op == OpCode::Xor || g.op == OpCode::Nand ||
                              g.op == OpCode::Nor || g.op == OpCode::Xnor ||
                              g.op == OpCode::AndNot || g.op == OpCode::OrNot;
        if (twoInput) {
            const NodeId ta = g.a, tb = g.b;
            const bool same = ta == tb;
            const bool invA = absorbableNot(ta, same ? 2u : 1u);
            const bool invB = same ? invA : absorbableNot(tb, 1u);
            if (invA || invB) {
                const NodeId x = invA ? ops[ta].a : ta;  // de-inverted operands
                const NodeId y = invB ? ops[tb].a : tb;
                bool applied = true;
                if (invA && invB) {
                    switch (g.op) {
                        case OpCode::And: g = {OpCode::Nor, x, y, 0, true}; break;
                        case OpCode::Or: g = {OpCode::Nand, x, y, 0, true}; break;
                        case OpCode::Xor: g = {OpCode::Xor, x, y, 0, true}; break;
                        case OpCode::Nand: g = {OpCode::Or, x, y, 0, true}; break;
                        case OpCode::Nor: g = {OpCode::And, x, y, 0, true}; break;
                        case OpCode::Xnor: g = {OpCode::Xnor, x, y, 0, true}; break;
                        case OpCode::AndNot: g = {OpCode::AndNot, y, x, 0, true}; break;
                        case OpCode::OrNot: g = {OpCode::OrNot, y, x, 0, true}; break;
                        default: applied = false; break;
                    }
                } else if (invA) {
                    switch (g.op) {
                        case OpCode::And: g = {OpCode::AndNot, tb, x, 0, true}; break;
                        case OpCode::Or: g = {OpCode::OrNot, tb, x, 0, true}; break;
                        case OpCode::Xor: g = {OpCode::Xnor, x, tb, 0, true}; break;
                        case OpCode::Nand: g = {OpCode::OrNot, x, tb, 0, true}; break;
                        case OpCode::Nor: g = {OpCode::AndNot, x, tb, 0, true}; break;
                        case OpCode::Xnor: g = {OpCode::Xor, x, tb, 0, true}; break;
                        case OpCode::AndNot: g = {OpCode::Nor, x, tb, 0, true}; break;
                        case OpCode::OrNot: g = {OpCode::Nand, x, tb, 0, true}; break;
                        default: applied = false; break;
                    }
                } else {  // invB only
                    switch (g.op) {
                        case OpCode::And: g = {OpCode::AndNot, ta, y, 0, true}; break;
                        case OpCode::Or: g = {OpCode::OrNot, ta, y, 0, true}; break;
                        case OpCode::Xor: g = {OpCode::Xnor, ta, y, 0, true}; break;
                        case OpCode::Nand: g = {OpCode::OrNot, y, ta, 0, true}; break;
                        case OpCode::Nor: g = {OpCode::AndNot, y, ta, 0, true}; break;
                        case OpCode::Xnor: g = {OpCode::Xor, ta, y, 0, true}; break;
                        case OpCode::AndNot: g = {OpCode::And, ta, y, 0, true}; break;
                        case OpCode::OrNot: g = {OpCode::Or, ta, y, 0, true}; break;
                        default: applied = false; break;
                    }
                }
                if (applied) {
                    if (invA) {
                        --uses[ta];
                        ++uses[x];
                        if (same) {  // both edges referenced the same Not
                            --uses[ta];
                            ++uses[x];
                        }
                    }
                    if (invB && !same) {
                        --uses[tb];
                        ++uses[y];
                    }
                    ++fusedOps;
                }
            }
        }

        // Mux data-operand inversion (select handled above).
        if (g.op == OpCode::Mux) {
            if (g.a != g.b && g.a != g.c && absorbableNot(g.a, 1)) {
                const NodeId t = g.a;
                g.op = OpCode::MuxNotA;
                g.a = ops[t].a;
                --uses[t];
                ++uses[g.a];
                ++fusedOps;
            } else if (g.a != g.b && g.b != g.c && absorbableNot(g.b, 1)) {
                const NodeId t = g.b;
                g.op = OpCode::MuxNotB;
                g.b = ops[t].a;
                --uses[t];
                ++uses[g.b];
                ++fusedOps;
            }
        }

        // Associative-tree widening: a 2-input gate over a single-use
        // same-kind producer absorbs it into the 3-input fused form —
        // full-adder sums (Xor -> Xor3), AND-tree levels (And -> And3)
        // and OR-compressor levels (Or -> Or3).
        if (g.op == OpCode::Xor || g.op == OpCode::And || g.op == OpCode::Or) {
            const OpCode wide = g.op == OpCode::Xor   ? OpCode::Xor3
                                : g.op == OpCode::And ? OpCode::And3
                                                      : OpCode::Or3;
            const auto tryWiden = [&](NodeId t, NodeId other) {
                if (!(ops[t].gate && ops[t].op == g.op && !isOutput[t] && uses[t] == 1))
                    return false;
                g.op = wide;
                g.a = ops[t].a;
                g.b = ops[t].b;
                g.c = other;
                --uses[t];
                ++uses[g.a];
                ++uses[g.b];
                ++fusedOps;
                return true;
            };
            if (!tryWiden(g.a, g.b)) tryWiden(g.b, g.a);
        }
    }
}

}  // namespace

CompiledNetlist CompiledNetlist::compile(const Netlist& netlist, Options options) {
    const std::span<const Node> nodes = netlist.nodes();

    std::vector<bool> live(nodes.size(), !options.pruneDead);
    if (options.pruneDead) {
        for (NodeId out : netlist.outputs()) live[out] = true;
        for (std::size_t i = nodes.size(); i-- > 0;) {
            if (!live[i]) continue;
            const Node& n = nodes[i];
            const int fan = fanInCount(n.kind);
            if (fan >= 1) live[n.a] = true;
            if (fan >= 2) live[n.b] = true;
            if (fan >= 3) live[n.c] = true;
        }
        // The arithmetic interface survives approximation: inputs keep
        // their slots even when the logic ignores them.
        for (NodeId in : netlist.inputs()) live[in] = true;
    }

    CompiledNetlist compiled;
    compiled.allNodes_ = !options.pruneDead;
    compiled.backend_ = options.backend != nullptr ? options.backend
                                                   : &kernels::selectedBackend();

    // Mutable per-node program the peephole pass rewrites in topo order.
    std::vector<NodeOp> ops(nodes.size());
    std::size_t preFusionGates = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!live[i]) continue;
        const Node& n = nodes[i];
        switch (n.kind) {
            case GateKind::Input:
            case GateKind::Const0:
            case GateKind::Const1: break;
            default: {
                const int fan = fanInCount(n.kind);
                ops[i] = {toOpCode(n.kind), n.a, fan >= 2 ? n.b : n.a,
                          fan >= 3 ? n.c : n.a, true};
                ++preFusionGates;
                break;
            }
        }
    }

    const bool fuse = options.pruneDead && options.fuseOps;
    if (fuse) fusePeephole(netlist, ops, live, compiled.fusedOps_);

    // Final liveness over the rewritten program: fused-away nodes drop out
    // of the cone (identical to `live` when fusion is off).
    std::vector<bool> emit = live;
    if (fuse) {
        emit.assign(nodes.size(), false);
        for (NodeId out : netlist.outputs()) emit[out] = true;
        for (std::size_t i = nodes.size(); i-- > 0;) {
            if (!emit[i] || !ops[i].gate) continue;
            const int fan = opFanIn(ops[i].op);
            emit[ops[i].a] = true;
            if (fan >= 2) emit[ops[i].b] = true;
            if (fan >= 3) emit[ops[i].c] = true;
        }
        for (NodeId in : netlist.inputs()) emit[in] = true;
    }

    // Half-adder pairing: an Xor and an And over the same (post-rewrite)
    // operands collapse into one dual-destination HalfAdd instruction,
    // carried at the pair member with the smaller id (emission order is
    // dependency-driven below, so any carrier is topologically safe).
    std::vector<NodeId> pairSumOf(fuse ? nodes.size() : 0, kInvalidNode);
    std::vector<NodeId> pairCarryOf(fuse ? nodes.size() : 0, kInvalidNode);
    std::vector<bool> pairSkip(nodes.size(), false);
    if (fuse) {
        // Sort-based matching: the k-th Xor of an operand pair (in id
        // order) fuses with that pair's k-th And — deterministic and
        // allocation-light.
        const auto key = [](const NodeOp& g) {
            return (static_cast<std::uint64_t>(std::min(g.a, g.b)) << 32) | std::max(g.a, g.b);
        };
        std::vector<std::pair<std::uint64_t, NodeId>> xors, ands;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (!emit[i] || !ops[i].gate) continue;
            if (ops[i].op == OpCode::Xor)
                xors.emplace_back(key(ops[i]), static_cast<NodeId>(i));
            else if (ops[i].op == OpCode::And)
                ands.emplace_back(key(ops[i]), static_cast<NodeId>(i));
        }
        std::sort(xors.begin(), xors.end());
        std::sort(ands.begin(), ands.end());
        std::size_t xi = 0, ai = 0;
        while (xi < xors.size() && ai < ands.size()) {
            if (xors[xi].first < ands[ai].first) {
                ++xi;
            } else if (ands[ai].first < xors[xi].first) {
                ++ai;
            } else {
                const NodeId sum = xors[xi++].second, carry = ands[ai++].second;
                const NodeId carrier = std::min(sum, carry);
                pairSumOf[carrier] = sum;
                pairCarryOf[carrier] = carry;
                pairSkip[std::max(sum, carry)] = true;
                ++compiled.fusedOps_;
            }
        }
    }

    // Slot assignment over the final live set (pair partners keep their
    // slot: it is the HalfAdd's second destination).
    std::vector<std::uint32_t> slotOf(nodes.size(), 0);
    std::uint32_t nextSlot = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i)
        if (emit[i]) {
            slotOf[i] = nextSlot++;
            compiled.slotNode_.push_back(static_cast<NodeId>(i));
        }
    compiled.slotCount_ = nextSlot;

    // Scheduling: one *item* per emitted instruction (a HalfAdd pair is a
    // single item producing two nodes).
    const auto emittedOp = [&](std::uint32_t i) {
        if (fuse && pairSumOf[i] != kInvalidNode) return OpCode::HalfAdd;
        return ops[i].op;
    };
    std::vector<std::uint32_t> itemNodes;  // carrier node per item, id order
    std::vector<std::uint32_t> itemOf(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!emit[i]) continue;
        switch (nodes[i].kind) {
            case GateKind::Input: break;  // loaded from the input block
            case GateKind::Const0: compiled.constants_.emplace_back(slotOf[i], false); break;
            case GateKind::Const1: compiled.constants_.emplace_back(slotOf[i], true); break;
            default:
                if (!pairSkip[i]) {
                    itemOf[i] = static_cast<std::uint32_t>(itemNodes.size());
                    itemNodes.push_back(static_cast<std::uint32_t>(i));
                }
                break;
        }
    }
    // Map every produced node (including pair partners) to its item.
    if (fuse)
        for (const std::uint32_t i : itemNodes)
            if (pairSumOf[i] != kInvalidNode) {
                itemOf[pairSumOf[i]] = itemOf[i];
                itemOf[pairCarryOf[i]] = itemOf[i];
            }

    // Dependency edges in CSR form: item -> consumer items, one entry per
    // operand edge (no per-item allocations; compile sits on the
    // characterization hot path, called once per candidate circuit).
    const std::size_t itemCount = itemNodes.size();
    std::vector<std::uint32_t> deps(itemCount, 0);
    std::vector<std::uint32_t> outDegree(itemCount, 0);
    const auto forEachOperand = [&](std::uint32_t i, auto&& fn) {
        const NodeOp& g = ops[i];
        const int fan = emittedOp(i) == OpCode::HalfAdd ? 2 : opFanIn(g.op);
        fn(g.a);
        if (fan >= 2) fn(g.b);
        if (fan >= 3) fn(g.c);
    };
    for (std::uint32_t item = 0; item < itemCount; ++item) {
        forEachOperand(itemNodes[item], [&](NodeId x) {
            if (ops[x].gate) {  // inputs and constants are always ready
                ++outDegree[itemOf[x]];
                ++deps[item];
            }
        });
    }
    std::vector<std::uint32_t> consumerOffset(itemCount + 1, 0);
    for (std::size_t item = 0; item < itemCount; ++item)
        consumerOffset[item + 1] = consumerOffset[item] + outDegree[item];
    std::vector<std::uint32_t> consumerEdges(consumerOffset[itemCount]);
    {
        std::vector<std::uint32_t> fill(consumerOffset.begin(), consumerOffset.end() - 1);
        for (std::uint32_t item = 0; item < itemCount; ++item)
            forEachOperand(itemNodes[item], [&](NodeId x) {
                if (ops[x].gate) consumerEdges[fill[itemOf[x]]++] = item;
            });
    }

    // Greedy run-maximizing list schedule: repeatedly pick the opcode with
    // the most ready instructions and emit its entire ready *closure* —
    // instructions unlocked by the run join the same run, so dependent
    // same-opcode chains (ripple carries, XOR trees) become one long run.
    // Deterministic: queues fill in item order and the opcode choice is a
    // pure function of queue sizes.
    std::array<std::vector<std::uint32_t>, kernels::kOpCount> ready;
    std::array<std::size_t, kernels::kOpCount> readyHead{};
    for (std::uint32_t item = 0; item < itemCount; ++item)
        if (deps[item] == 0)
            ready[static_cast<std::size_t>(emittedOp(itemNodes[item]))].push_back(item);

    compiled.instrs_.reserve(itemCount);
    const auto emitItem = [&](std::uint32_t item) {
        const std::uint32_t i = itemNodes[item];
        const NodeOp& g = ops[i];
        Instr ins{};
        ins.op = emittedOp(i);
        if (ins.op == OpCode::HalfAdd) {
            ins.dst = slotOf[pairSumOf[i]];
            ins.a = slotOf[g.a];
            ins.b = slotOf[g.b];
            ins.c = slotOf[pairCarryOf[i]];
        } else {
            const int fan = opFanIn(g.op);
            ins.dst = slotOf[i];
            ins.a = slotOf[g.a];
            ins.b = fan >= 2 ? slotOf[g.b] : 0;
            ins.c = fan >= 3 ? slotOf[g.c] : 0;
        }
        compiled.instrs_.push_back(ins);
        ++compiled.runs_.back().end;
        for (std::uint32_t e = consumerOffset[item]; e < consumerOffset[item + 1]; ++e) {
            const std::uint32_t consumer = consumerEdges[e];
            if (--deps[consumer] == 0)
                ready[static_cast<std::size_t>(emittedOp(itemNodes[consumer]))].push_back(
                    consumer);
        }
    };
    std::size_t emitted = 0;
    while (emitted < itemCount) {
        std::size_t best = 0, bestSize = 0;
        for (std::size_t op = 0; op < kernels::kOpCount; ++op) {
            const std::size_t size = ready[op].size() - readyHead[op];
            if (size > bestSize) {
                best = op;
                bestSize = size;
            }
        }
        if (bestSize == 0) throw std::logic_error("CompiledNetlist: scheduler stalled (cycle?)");
        compiled.runs_.push_back({static_cast<OpCode>(best),
                                  static_cast<std::uint32_t>(compiled.instrs_.size()),
                                  static_cast<std::uint32_t>(compiled.instrs_.size())});
        while (readyHead[best] < ready[best].size()) {
            emitItem(ready[best][readyHead[best]++]);
            ++emitted;
        }
    }
    compiled.gatesFused_ = preFusionGates - compiled.instrs_.size();

    compiled.inputSlots_.reserve(netlist.inputCount());
    for (NodeId in : netlist.inputs()) compiled.inputSlots_.push_back(slotOf[in]);
    compiled.outputSlots_.reserve(netlist.outputCount());
    for (NodeId out : netlist.outputs()) compiled.outputSlots_.push_back(slotOf[out]);

    // AXF_VERIFY debug gate: self-verify every compiled program against
    // the source netlist (dataflow discipline, schedule claims, fusion
    // semantics) before handing it out.
    if (verify::verifyEnabled())
        verify::throwIfErrors(verify::verifyProgram(compiled, &netlist),
                              "CompiledNetlist::compile self-verification");
    return compiled;
}

CompiledNetlist::Stats CompiledNetlist::stats() const {
    Stats s;
    s.instructions = instrs_.size();
    s.runs = runs_.size();
    for (const Run& run : runs_)
        s.longestRun = std::max<std::size_t>(s.longestRun, run.end - run.begin);
    s.fusedOps = fusedOps_;
    s.gatesFused = gatesFused_;
    s.backend = backend_ != nullptr ? backend_->name : "";
    return s;
}

void CompiledNetlist::initWorkspace(std::span<Word> workspace, std::size_t wordsPerSlot) const {
    if (workspace.size() < workspaceWords(wordsPerSlot))
        throw std::invalid_argument("CompiledNetlist::initWorkspace: workspace too small");
    for (const auto& [slot, value] : constants_) {
        Word* words = workspace.data() + static_cast<std::size_t>(slot) * wordsPerSlot;
        for (std::size_t w = 0; w < wordsPerSlot; ++w) words[w] = value ? ~Word{0} : Word{0};
    }
}

namespace {

/// The backend's run kernels at width W (W = 1 is the narrow table).
template <std::size_t W>
const std::array<kernels::KernelFn, kernels::kOpCount>& runKernels(
    const kernels::Backend& backend) {
    static_assert(W == 1 || W == kBlockWords,
                  "kernel tables exist for W = 1 and W = kBlockWords only");
    if constexpr (W == 1)
        return backend.narrow;
    else
        return backend.wide.run;
}

}  // namespace

template <std::size_t W>
void CompiledNetlist::run(const Word* inputs, Word* outputs, Word* ws) const {
    // The input/output block copies go through memcpy: caller buffers are
    // plain vectors with no alignment contract, and the compiler inlines
    // these to unaligned vector moves anyway.  The workspace itself must
    // satisfy the slot alignment (W * 8 bytes for the wide configuration;
    // BatchSimulator 128-byte-aligns it) because the kernels use whole-slot
    // vector accesses.
    const std::uint32_t* inSlots = inputSlots_.data();
    for (std::size_t i = 0; i < inputSlots_.size(); ++i)
        std::memcpy(ws + static_cast<std::size_t>(inSlots[i]) * W, inputs + i * W,
                    W * sizeof(Word));
    // One kernel call per same-opcode run, from the backend chosen at
    // compile() time.
    const kernels::Instr* instrs = instrs_.data();
    const auto& kernel = runKernels<W>(*backend_);
    for (const Run& r : runs_)
        kernel[static_cast<std::size_t>(r.op)](instrs + r.begin, r.end - r.begin, ws);
    const std::uint32_t* outSlots = outputSlots_.data();
    for (std::size_t o = 0; o < outputSlots_.size(); ++o)
        std::memcpy(outputs + o * W, ws + static_cast<std::size_t>(outSlots[o]) * W,
                    W * sizeof(Word));
}

template void CompiledNetlist::run<1>(const Word*, Word*, Word*) const;
template void CompiledNetlist::run<kBlockWords>(const Word*, Word*, Word*) const;

namespace {

template <std::size_t W>
void applyFault(CompiledNetlist::Word* ws, const CompiledNetlist::InjectedFault& f) {
    CompiledNetlist::Word* p = ws + static_cast<std::size_t>(f.slot) * W;
    for (std::size_t w = 0; w < W; ++w) p[w] = f.stuckTo ? p[w] | f.mask[w] : p[w] & ~f.mask[w];
}

}  // namespace

template <std::size_t W>
void CompiledNetlist::runWithFaults(const Word* inputs, Word* outputs, Word* ws,
                                    std::span<const InjectedFault> faults) const {
    const std::uint32_t* inSlots = inputSlots_.data();
    for (std::size_t i = 0; i < inputSlots_.size(); ++i)
        std::memcpy(ws + static_cast<std::size_t>(inSlots[i]) * W, inputs + i * W,
                    W * sizeof(Word));
    std::size_t fi = 0;
    while (fi < faults.size() && faults[fi].afterInstr == kFaultAtInputs)
        applyFault<W>(ws, faults[fi++]);

    const kernels::Instr* instrs = instrs_.data();
    const auto& kernel = runKernels<W>(*backend_);
    for (const Run& run : runs_) {
        // Split the run at each faulted instruction (a run without one is
        // a single call, exactly as in run<W>); the run kernels accept any
        // contiguous sub-range and compute identical bits.
        const kernels::KernelFn fn = kernel[static_cast<std::size_t>(run.op)];
        std::uint32_t pos = run.begin;
        while (pos < run.end) {
            const std::uint32_t stop =
                (fi < faults.size() && faults[fi].afterInstr < run.end)
                    ? faults[fi].afterInstr + 1
                    : run.end;
            fn(instrs + pos, stop - pos, ws);
            pos = stop;
            while (fi < faults.size() && faults[fi].afterInstr == stop - 1)
                applyFault<W>(ws, faults[fi++]);
        }
    }
    const std::uint32_t* outSlots = outputSlots_.data();
    for (std::size_t o = 0; o < outputSlots_.size(); ++o)
        std::memcpy(outputs + o * W, ws + static_cast<std::size_t>(outSlots[o]) * W,
                    W * sizeof(Word));
}

template void CompiledNetlist::runWithFaults<1>(const Word*, Word*, Word*,
                                                std::span<const InjectedFault>) const;
template void CompiledNetlist::runWithFaults<kBlockWords>(const Word*, Word*, Word*,
                                                          std::span<const InjectedFault>) const;

void BatchSimulator::rebind(const CompiledNetlist& compiled) {
    if (compiled_ == &compiled) return;  // constants already in place
    compiled_ = &compiled;
    const std::size_t needed = compiled.workspaceWords(kBlockWords) + kAlignWords;
    if (storage_.size() < needed) storage_.assign(needed, 0);
    const std::size_t misalign =
        reinterpret_cast<std::uintptr_t>(storage_.data()) % (kAlignWords * sizeof(Word));
    workspace_ = storage_.data() + (misalign ? kAlignWords - misalign / sizeof(Word) : 0);
    compiled.initWorkspace({workspace_, compiled.workspaceWords(kBlockWords)}, kBlockWords);
}

void BatchSimulator::evaluate(std::span<const Word> inputWords, std::span<Word> outputWords) {
    if (inputWords.size() != compiled_->inputCount() * kBlockWords)
        throw std::invalid_argument("BatchSimulator: input word count mismatch");
    if (outputWords.size() != compiled_->outputCount() * kBlockWords)
        throw std::invalid_argument("BatchSimulator: output word count mismatch");
    compiled_->run<kBlockWords>(inputWords.data(), outputWords.data(), workspace_);
}

}  // namespace axf::circuit
