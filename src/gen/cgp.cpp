#include "src/gen/cgp.hpp"

#include <stdexcept>
#include <unordered_set>

#include "src/circuit/transform.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::gen {

using circuit::GateKind;
using circuit::Netlist;
using circuit::NodeId;

std::vector<GateKind> CgpParams::defaultFunctionSet() {
    // The EvoApproxLib function alphabet: wire, inversion, and the
    // two-input AND/OR/XOR family with complements.
    return {GateKind::Buf,  GateKind::Not,  GateKind::And,    GateKind::Or,
            GateKind::Xor,  GateKind::Nand, GateKind::Nor,    GateKind::Xnor,
            GateKind::AndNot, GateKind::OrNot};
}

CgpGenome::CgpGenome(CgpParams params, util::Rng& rng) : params_(std::move(params)) {
    if (params_.inputs <= 0 || params_.outputs <= 0 || params_.cells <= 0)
        throw std::invalid_argument("CgpGenome: empty geometry");
    if (params_.functions.empty()) throw std::invalid_argument("CgpGenome: empty function set");
    genes_.resize(static_cast<std::size_t>(params_.cells));
    for (int i = 0; i < params_.cells; ++i) {
        Gene& g = genes_[static_cast<std::size_t>(i)];
        g.function = static_cast<std::uint8_t>(rng.index(params_.functions.size()));
        g.a = randomOperand(i, rng);
        g.b = randomOperand(i, rng);
    }
    outputGenes_.resize(static_cast<std::size_t>(params_.outputs));
    for (auto& o : outputGenes_)
        o = static_cast<std::uint16_t>(rng.index(static_cast<std::size_t>(nodeSpace())));
}

std::uint16_t CgpGenome::randomOperand(int cellIndex, util::Rng& rng) const {
    // Full levels-back: any primary input or earlier cell.
    return static_cast<std::uint16_t>(
        rng.index(static_cast<std::size_t>(params_.inputs + cellIndex)));
}

CgpGenome CgpGenome::seedFromNetlist(const Netlist& netlist, int extraCells, util::Rng& rng) {
    const Netlist lowered = circuit::simplify(circuit::lowerToTwoInput(netlist));

    CgpParams params;
    params.inputs = static_cast<int>(lowered.inputCount());
    params.outputs = static_cast<int>(lowered.outputCount());

    // Map netlist node index -> genome node index.  Constants become cells
    // computing x^x / ~(x^x) over input 0 so the alphabet stays pure.
    std::vector<int> nodeToGenome(lowered.nodeCount(), -1);
    struct PlannedCell {
        GateKind kind;
        int a, b;
    };
    std::vector<PlannedCell> planned;
    int inputSeen = 0;
    for (std::size_t i = 0; i < lowered.nodeCount(); ++i) {
        const circuit::Node& n = lowered.node(static_cast<NodeId>(i));
        switch (n.kind) {
            case GateKind::Input: nodeToGenome[i] = inputSeen++; break;
            case GateKind::Const0:
                planned.push_back({GateKind::Xor, 0, 0});
                nodeToGenome[i] = params.inputs + static_cast<int>(planned.size()) - 1;
                break;
            case GateKind::Const1:
                planned.push_back({GateKind::Xnor, 0, 0});
                nodeToGenome[i] = params.inputs + static_cast<int>(planned.size()) - 1;
                break;
            default: {
                const int a = nodeToGenome[n.a];
                const int b = circuit::fanInCount(n.kind) >= 2 ? nodeToGenome[n.b] : a;
                planned.push_back({n.kind, a, b});
                nodeToGenome[i] = params.inputs + static_cast<int>(planned.size()) - 1;
                break;
            }
        }
    }
    params.cells = static_cast<int>(planned.size()) + extraCells;

    CgpGenome genome(params, rng);
    for (std::size_t i = 0; i < planned.size(); ++i) {
        const PlannedCell& cell = planned[i];
        std::uint8_t fn = 0;
        bool found = false;
        for (std::size_t f = 0; f < params.functions.size(); ++f) {
            if (params.functions[f] == cell.kind) {
                fn = static_cast<std::uint8_t>(f);
                found = true;
                break;
            }
        }
        if (!found) throw std::invalid_argument("seedFromNetlist: gate kind not in function set");
        genome.genes_[i] = Gene{fn, static_cast<std::uint16_t>(cell.a),
                                static_cast<std::uint16_t>(cell.b)};
    }
    for (std::size_t o = 0; o < lowered.outputs().size(); ++o)
        genome.outputGenes_[o] =
            static_cast<std::uint16_t>(nodeToGenome[lowered.outputs()[o]]);
    return genome;
}

void CgpGenome::mutate(int count, util::Rng& rng) {
    // Gene space: per cell (function, a, b) plus the output genes.
    const std::size_t geneSpace = genes_.size() * 3 + outputGenes_.size();
    for (int m = 0; m < count; ++m) {
        const std::size_t pick = rng.index(geneSpace);
        if (pick < genes_.size() * 3) {
            const std::size_t cell = pick / 3;
            Gene& g = genes_[cell];
            switch (pick % 3) {
                case 0: g.function = static_cast<std::uint8_t>(rng.index(params_.functions.size())); break;
                case 1: g.a = randomOperand(static_cast<int>(cell), rng); break;
                default: g.b = randomOperand(static_cast<int>(cell), rng); break;
            }
        } else {
            outputGenes_[pick - genes_.size() * 3] =
                static_cast<std::uint16_t>(rng.index(static_cast<std::size_t>(nodeSpace())));
        }
    }
}

std::vector<bool> CgpGenome::activeMask() const {
    std::vector<bool> active(static_cast<std::size_t>(nodeSpace()), false);
    for (std::uint16_t out : outputGenes_) active[out] = true;
    for (int i = params_.cells - 1; i >= 0; --i) {
        const std::size_t node = static_cast<std::size_t>(params_.inputs + i);
        if (!active[node]) continue;
        const Gene& g = genes_[static_cast<std::size_t>(i)];
        active[g.a] = true;
        if (circuit::fanInCount(params_.functions[g.function]) >= 2) active[g.b] = true;
    }
    return active;
}

int CgpGenome::activeCells() const {
    const std::vector<bool> active = activeMask();
    int count = 0;
    for (int i = 0; i < params_.cells; ++i)
        if (active[static_cast<std::size_t>(params_.inputs + i)]) ++count;
    return count;
}

Netlist CgpGenome::decode() const {
    const std::vector<bool> active = activeMask();
    Netlist net("cgp");
    std::vector<NodeId> map(static_cast<std::size_t>(nodeSpace()), circuit::kInvalidNode);
    for (int i = 0; i < params_.inputs; ++i) map[static_cast<std::size_t>(i)] = net.addInput();
    for (int i = 0; i < params_.cells; ++i) {
        const std::size_t node = static_cast<std::size_t>(params_.inputs + i);
        if (!active[node]) continue;
        const Gene& g = genes_[static_cast<std::size_t>(i)];
        const GateKind kind = params_.functions[g.function];
        if (circuit::fanInCount(kind) >= 2)
            map[node] = net.addGate(kind, map[g.a], map[g.b]);
        else
            map[node] = net.addGate(kind, map[g.a]);
    }
    for (std::uint16_t out : outputGenes_) net.markOutput(map[out]);
    return net;
}

CgpEvolver::CgpEvolver(circuit::ArithSignature signature, Options options)
    : signature_(signature), options_(options) {}

std::vector<CgpHarvest> CgpEvolver::run(const Netlist& seedNetlist) {
    util::Rng rng(options_.seed);
    CgpGenome parent = CgpGenome::seedFromNetlist(
        seedNetlist, std::max(8, static_cast<int>(seedNetlist.gateCount()) / 5), rng);

    const auto fitness = [this](const CgpGenome& genome) {
        return error::analyzeError(genome.decode(), signature_, options_.fitnessConfig);
    };

    error::ErrorReport parentError = fitness(parent);
    int parentCost = parent.activeCells();

    std::vector<CgpHarvest> harvest;
    std::unordered_set<std::uint64_t> seen;
    const auto harvestIfNovel = [&](const CgpGenome& genome, int generation) {
        Netlist netlist = circuit::simplify(genome.decode());
        const std::uint64_t hash = netlist.structuralHash();
        if (!seen.insert(hash).second) return;
        // Harvested circuits get the accurate (reporting-grade) profile.
        error::ErrorReport report =
            error::analyzeError(netlist, signature_, options_.reportConfig);
        harvest.push_back(CgpHarvest{std::move(netlist), report, generation});
    };
    harvestIfNovel(parent, 0);

    std::vector<CgpGenome> children;
    std::vector<error::ErrorReport> childErrors;
    for (int gen = 1; gen <= options_.generations; ++gen) {
        // Mutation draws stay on the single generation RNG (serial, same
        // stream as a fully serial run); only the fitness evaluations —
        // the expensive, RNG-free part — fan out over the pool.
        children.clear();
        children.reserve(static_cast<std::size_t>(options_.lambda));
        for (int k = 0; k < options_.lambda; ++k) {
            CgpGenome child = parent;
            child.mutate(options_.mutatedGenes, rng);
            children.push_back(std::move(child));
        }
        childErrors.assign(children.size(), error::ErrorReport{});
        util::ThreadPool::global().parallelFor(
            children.size(), [&](std::size_t k) { childErrors[k] = fitness(children[k]); });

        // Selection scans offspring in index order, exactly as the serial
        // loop did, so results are independent of evaluation scheduling.
        CgpGenome bestChild = parent;
        error::ErrorReport bestChildError = parentError;
        int bestChildCost = parentCost;
        bool improved = false;
        for (std::size_t k = 0; k < children.size(); ++k) {
            const error::ErrorReport& err = childErrors[k];
            if (err.med > options_.medBudget) continue;
            const int cost = children[k].activeCells();
            // Neutral moves (equal cost) are accepted — they drive the walk
            // across plateaus and each novel plateau point is harvested.
            if (cost <= bestChildCost) {
                bestChild = std::move(children[k]);
                bestChildError = err;
                bestChildCost = cost;
                improved = true;
            }
        }
        if (improved) {
            parent = std::move(bestChild);
            parentError = bestChildError;
            parentCost = bestChildCost;
            harvestIfNovel(parent, gen);
        }
    }
    return harvest;
}

}  // namespace axf::gen
