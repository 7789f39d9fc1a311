#include "src/synth/asic.hpp"

#include <algorithm>
#include <vector>

#include "src/circuit/simulator.hpp"
#include "src/circuit/transform.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/rng.hpp"

namespace axf::synth {

using circuit::GateKind;
using circuit::Netlist;

const CellSpec& AsicFlow::cellSpec(GateKind kind) {
    // Normalized 45nm-class library.  XOR family is area/delay expensive in
    // CMOS (transmission-gate structures), NAND/NOR cheap — exactly the
    // asymmetry that makes ASIC Pareto fronts differ from LUT fabrics where
    // any 6-input function costs one LUT.
    static const CellSpec kInverter{0.53, 0.020, 0.004, 1.0};
    static const CellSpec kBuffer{0.80, 0.030, 0.003, 1.2};
    static const CellSpec kNand{0.80, 0.028, 0.006, 1.5};
    static const CellSpec kNor{0.80, 0.032, 0.007, 1.5};
    static const CellSpec kAnd{1.06, 0.045, 0.006, 1.8};
    static const CellSpec kOr{1.06, 0.049, 0.007, 1.8};
    static const CellSpec kXor{1.60, 0.072, 0.009, 2.6};
    static const CellSpec kXnor{1.60, 0.070, 0.009, 2.6};
    static const CellSpec kAndNot{1.06, 0.047, 0.006, 1.8};
    static const CellSpec kOrNot{1.06, 0.050, 0.007, 1.8};
    static const CellSpec kMux{1.86, 0.062, 0.008, 2.9};
    static const CellSpec kMaj{2.13, 0.078, 0.009, 3.2};
    static const CellSpec kFree{0.0, 0.0, 0.0, 0.0};

    switch (kind) {
        case GateKind::Not: return kInverter;
        case GateKind::Buf: return kBuffer;
        case GateKind::Nand: return kNand;
        case GateKind::Nor: return kNor;
        case GateKind::And: return kAnd;
        case GateKind::Or: return kOr;
        case GateKind::Xor: return kXor;
        case GateKind::Xnor: return kXnor;
        case GateKind::AndNot: return kAndNot;
        case GateKind::OrNot: return kOrNot;
        case GateKind::Mux: return kMux;
        case GateKind::Maj: return kMaj;
        default: return kFree;  // inputs/constants bind to no cell
    }
}

AsicReport AsicFlow::synthesize(const Netlist& raw) const {
    obs::Span span("asic_synth");
    static obs::Counter& syntheses = obs::Registry::global().counter("synth.asic_syntheses");
    syntheses.add();
    const Netlist netlist = circuit::simplify(raw);
    AsicReport report;

    const std::vector<int> fanout = netlist.fanouts();

    // --- area & static timing -------------------------------------------
    std::vector<double> arrival(netlist.nodeCount(), 0.0);
    for (std::size_t i = 0; i < netlist.nodeCount(); ++i) {
        const circuit::Node& n = netlist.node(static_cast<circuit::NodeId>(i));
        const CellSpec& cell = cellSpec(n.kind);
        const int arity = circuit::fanInCount(n.kind);
        if (arity == 0) {
            arrival[i] = 0.0;
            continue;
        }
        report.areaUm2 += cell.areaUm2;
        report.cellCount += 1.0;
        double in = arrival[n.a];
        if (arity >= 2) in = std::max(in, arrival[n.b]);
        if (arity >= 3) in = std::max(in, arrival[n.c]);
        arrival[i] = in + cell.delayNs + cell.loadDelayNs * static_cast<double>(fanout[i]);
    }
    for (circuit::NodeId out : netlist.outputs())
        report.delayNs = std::max(report.delayNs, arrival[out]);

    // --- switching-activity power ----------------------------------------
    // Same chunk-deterministic parallel estimation as the FPGA flow: fixed
    // transition chunks, per-chunk counters, ordered merge.
    const std::vector<double> toggles =
        circuit::estimateToggleRates(netlist, options_.activitySeed, options_.activityBlocks);

    // P_dyn ~ sum(alpha_i * C_i) * f * V^2; constants folded into the cap
    // scale so an exact 8x8 multiplier lands in the ~0.1-1 mW regime.
    const double vddSquared = 1.0;  // 1.0 V
    double dynamicMw = 0.0;
    for (std::size_t i = 0; i < netlist.nodeCount(); ++i) {
        const circuit::Node& n = netlist.node(static_cast<circuit::NodeId>(i));
        if (circuit::fanInCount(n.kind) == 0) continue;
        const CellSpec& cell = cellSpec(n.kind);
        const double loadCap = cell.capFf + 0.35 * static_cast<double>(fanout[i]);
        dynamicMw += toggles[i] * loadCap * options_.clockMhz * vddSquared * 1e-5;
    }
    report.powerMw =
        dynamicMw + report.cellCount * options_.staticPowerPerCellUw * 1e-3;
    return report;
}

}  // namespace axf::synth
