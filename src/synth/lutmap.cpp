#include "src/synth/lutmap.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace axf::synth {

using circuit::Netlist;
using circuit::NodeId;

namespace {

/// A priority cut: up to K sorted leaves stored inline, the 64-bit leaf
/// signature (bit `id & 63` set per leaf) and its depth label, 1 + the
/// worst leaf label.  The signature under-approximates the leaf set (ids
/// can collide mod 64), so it only ever *rejects*: a merge whose signature
/// popcount exceeds K is infeasible, and `a` cannot be a subset of `b`
/// when `a.sign & ~b.sign` is nonzero.
struct Cut {
    std::array<NodeId, LutMapper::kMaxLutInputs> leaf;
    std::uint64_t sign;
    int size;
    int label;
};

Cut trivialCut(NodeId node, int nodeLabel) {
    Cut cut;
    cut.leaf[0] = node;
    cut.sign = std::uint64_t{1} << (node & 63);
    cut.size = 1;
    cut.label = nodeLabel + 1;
    return cut;
}

/// Leaf count of the union of `a` and `b`: the signature finds the
/// possibly shared leaves, a scan of `b` confirms each.
int unionSize(const Cut& a, const Cut& b) {
    int shared = 0;
    if ((a.sign & b.sign) != 0) {
        for (int i = 0; i < a.size; ++i) {
            if (((b.sign >> (a.leaf[i] & 63)) & 1) == 0) continue;
            for (int j = 0; j < b.size; ++j) shared += b.leaf[j] == a.leaf[i];
        }
    }
    return a.size + b.size - shared;
}

/// Writes the merged cut of `a` and `b`, whose union must fit a LUT, to
/// `out`.  Everything inside either cut collapses into the LUT, so the
/// merged label is the worse of the two.
void mergeCuts(const Cut& a, const Cut& b, Cut& out) {
    int i = 0, j = 0, n = 0;
    while (i < a.size && j < b.size) {
        const NodeId x = a.leaf[i], y = b.leaf[j];
        out.leaf[n++] = std::min(x, y);
        i += x <= y;
        j += y <= x;
    }
    while (i < a.size) out.leaf[n++] = a.leaf[i++];
    while (j < b.size) out.leaf[n++] = b.leaf[j++];
    out.sign = a.sign | b.sign;
    out.size = n;
    out.label = std::max(a.label, b.label);
}

/// `a` dominates `b` when it is not deeper and its leaves are a subset.
bool dominates(const Cut& a, const Cut& b) {
    if (a.label > b.label || a.size > b.size || (a.sign & ~b.sign) != 0) return false;
    int j = 0;
    for (int i = 0; i < a.size; ++i) {
        while (j < b.size && b.leaf[j] < a.leaf[i]) ++j;
        if (j == b.size || b.leaf[j] != a.leaf[i]) return false;
        ++j;
    }
    return true;
}

}  // namespace

LutMapper::LutMapper(Options options) : options_(options) {
    if (options.lutInputs < 2 || options.lutInputs > kMaxLutInputs)
        throw std::invalid_argument("LutMapper: lutInputs must be in [2, " +
                                    std::to_string(kMaxLutInputs) + "]");
    if (options.cutsPerNode < 1 || options.cutsPerNode > kMaxCutsPerNode)
        throw std::invalid_argument("LutMapper: cutsPerNode must be in [1, " +
                                    std::to_string(kMaxCutsPerNode) + "]");
}

LutMapper::Mapping LutMapper::map(const Netlist& netlist) const {
    obs::Span span("lut_map");
    static obs::Counter& lutsMapped = obs::Registry::global().counter("synth.luts_mapped");
    const int k = options_.lutInputs;
    const std::size_t cap = static_cast<std::size_t>(options_.cutsPerNode);
    const std::size_t n = netlist.nodeCount();

    // --- phase 1: priority-cut enumeration with depth labels -------------
    // Node i keeps its best `count[i]` cuts at cuts[i * cap ...], best
    // first; inputs and constants keep none (only their trivial cut).
    const auto cuts = std::make_unique_for_overwrite<Cut[]>(n * cap);
    std::vector<int> count(n, 0);
    std::vector<int> label(n, 0);  // FlowMap-style depth label

    // Candidate cuts of the current node, in generation order: the pair of
    // fan-in cuts they merge, and their sort key, (label, leaf count)
    // packed so that integer order is the lexicographic order.  Leaves are
    // only merged for the candidates the selection below examines.
    constexpr std::size_t kMaxCandidates = (kMaxCutsPerNode + 1) * (kMaxCutsPerNode + 1);
    struct Candidate {
        std::uint32_t rank;
        std::uint8_t x, y;
    };
    std::array<Candidate, kMaxCandidates> candidates;

    for (std::size_t i = 0; i < n; ++i) {
        const circuit::Node& node = netlist.node(static_cast<NodeId>(i));
        const int arity = circuit::fanInCount(node.kind);
        if (arity == 0) continue;  // inputs and constants are free fabric resources
        if (arity > 2)
            throw std::invalid_argument("LutMapper: run lowerToTwoInput before mapping");

        // A fan-in's candidate list is its kept cuts, read in place,
        // followed by its trivial cut.  A single-input gate merges its
        // fan-in's cuts with one empty cut, which leaves them unchanged.
        const Cut* cutsA = &cuts[node.a * cap];
        const int countA = count[node.a];
        const Cut trivialA = trivialCut(node.a, label[node.a]);
        const Cut* cutsB = arity == 2 ? &cuts[node.b * cap] : nullptr;
        const int countB = arity == 2 ? count[node.b] : 0;
        const Cut trivialB = arity == 2 ? trivialCut(node.b, label[node.b]) : Cut{{}, 0, 0, 0};
        const auto fanA = [&](int x) -> const Cut& { return x < countA ? cutsA[x] : trivialA; };
        const auto fanB = [&](int y) -> const Cut& { return y < countB ? cutsB[y] : trivialB; };

        std::size_t m = 0;
        for (int x = 0; x <= countA; ++x) {
            const Cut& ca = fanA(x);
            for (int y = 0; y <= countB; ++y) {
                const Cut& cb = fanB(y);
                if (std::popcount(ca.sign | cb.sign) > k) continue;
                const int size = unionSize(ca, cb);
                if (size > k) continue;
                candidates[m++] = Candidate{
                    static_cast<std::uint32_t>(std::max(ca.label, cb.label)) << 3 |
                        static_cast<std::uint32_t>(size),
                    static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(y)};
            }
        }

        // Rank by (depth, leaf count), drop dominated cuts, keep the best
        // `cap`.  std::sort (not stable_sort) over candidates generated in
        // this order is part of the contract: it fixes the order of tied
        // cuts and therefore which cover is selected.
        std::sort(candidates.begin(), candidates.begin() + static_cast<std::ptrdiff_t>(m),
                  [](const Candidate& p, const Candidate& q) { return p.rank < q.rank; });
        Cut* kept = &cuts[i * cap];
        std::size_t keptCount = 0;
        for (std::size_t c = 0; c < m && keptCount < cap; ++c) {
            Cut& cut = kept[keptCount];
            mergeCuts(fanA(candidates[c].x), fanB(candidates[c].y), cut);
            bool dominated = false;
            for (std::size_t e = 0; e < keptCount && !dominated; ++e)
                dominated = dominates(kept[e], cut);
            if (!dominated) ++keptCount;
        }
        if (keptCount == 0) throw std::logic_error("LutMapper: node has no feasible cut");
        count[i] = static_cast<int>(keptCount);
        label[i] = kept[0].label;
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
        const Cut& best = cuts[idx * cap];
        for (int l = 0; l < best.size; ++l) needed[best.leaf[l]] = true;
    }

    Mapping mapping;
    for (std::size_t i = 0; i < n; ++i) {
        if (!selected[i]) continue;
        const Cut& best = cuts[i * cap];
        Lut lut;
        lut.root = static_cast<NodeId>(i);
        lut.leaves.assign(best.leaf.begin(), best.leaf.begin() + best.size);
        lut.level = label[i];
        mapping.luts.push_back(std::move(lut));
    }
    for (NodeId out : netlist.outputs()) mapping.depth = std::max(mapping.depth, label[out]);
    lutsMapped.add(mapping.luts.size());
    return mapping;
}

}  // namespace axf::synth
