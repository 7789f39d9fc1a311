#include "src/synth/fpga.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/circuit/simulator.hpp"
#include "src/circuit/transform.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/synth/synth_time.hpp"
#include "src/util/rng.hpp"

namespace axf::synth {

using circuit::Netlist;
using circuit::NodeId;

namespace {

/// Logic optimization ahead of mapping: simplify, lower to two-input
/// gates, simplify again.
Netlist optimizeForMapping(const Netlist& netlist) {
    return circuit::simplify(circuit::lowerToTwoInput(circuit::simplify(netlist)));
}

}  // namespace

LutMapper::Mapping FpgaFlow::technologyMap(const Netlist& netlist) const {
    return LutMapper(options_.mapper).map(optimizeForMapping(netlist));
}

FpgaReport FpgaFlow::implement(const Netlist& netlist) const {
    obs::Span span("fpga_implement");
    static obs::Counter& implementations =
        obs::Registry::global().counter("synth.fpga_implementations");
    implementations.add();

    // --- synthesis: optimize, lower, map ----------------------------------
    const Netlist optimized = optimizeForMapping(netlist);
    const LutMapper::Mapping mapping = LutMapper(options_.mapper).map(optimized);

    FpgaReport report;
    report.lutCount = static_cast<double>(mapping.lutCount());
    report.sliceCount = std::ceil(report.lutCount / 4.0);
    report.logicDepth = mapping.depth;
    // Tool time scales with the RTL the user hands to Vivado, not with the
    // internally lowered form (keeps accounting comparable to the
    // exhaustive-exploration baseline, which also sees the input netlist).
    report.synthSeconds = vivadoEquivalentSeconds(netlist);

    // Placement jitter stream: deterministic per circuit *and* flow seed,
    // uncorrelated with the structural features the estimators see.
    util::Rng jitter(optimized.structuralHash() ^ options_.seed);

    // --- net fan-outs in the mapped network --------------------------------
    // A net nothing in the mapped network reads (count 0) is costed as
    // fan-out 1.
    std::vector<int> netFanout(optimized.nodeCount(), 0);
    for (const LutMapper::Lut& lut : mapping.luts)
        for (NodeId leaf : lut.leaves) ++netFanout[leaf];
    for (NodeId out : optimized.outputs()) ++netFanout[out];
    const auto fanoutOf = [&](NodeId driver) { return std::max(netFanout[driver], 1); };

    const auto netDelay = [&](NodeId driver) {
        const int fo = fanoutOf(driver);
        const double base = options_.netDelayBaseNs +
                            options_.netDelayFanoutNs * std::log2(1.0 + static_cast<double>(fo));
        return base;
    };

    // --- timing: arrival-time propagation over the LUT network -------------
    std::vector<double> arrival(optimized.nodeCount(), 0.0);
    for (const LutMapper::Lut& lut : mapping.luts) {
        double worst = 0.0;
        for (NodeId leaf : lut.leaves)
            worst = std::max(worst, arrival[leaf] + netDelay(leaf));
        arrival[lut.root] = worst + options_.lutDelayNs +
                            jitter.uniformReal(0.0, options_.routingJitterNs);
    }
    for (NodeId out : optimized.outputs())
        report.latencyNs = std::max(report.latencyNs, arrival[out] + options_.ioDelayNs);
    if (mapping.luts.empty()) report.latencyNs = options_.ioDelayNs;

    // --- power: switching activity of the LUT output nets ------------------
    // Chunk-deterministic and thread-parallel (per-chunk counters merged in
    // block order): identical rates at any worker count, and safe when
    // `implement` itself runs inside a parallel batch over circuits (nested
    // parallelFor degrades to inline execution on a worker).
    std::vector<double> toggles;
    {
        obs::Span toggleSpan("toggle_rates");
        toggles = circuit::estimateToggleRates(optimized, options_.activitySeed,
                                               options_.activityBlocks);
    }

    double dynamicMw = 0.0;
    for (const LutMapper::Lut& lut : mapping.luts) {
        const int fo = fanoutOf(lut.root);
        const double cap = options_.lutCapFf + options_.wireCapFf * static_cast<double>(fo);
        // alpha * C[fF] * f[MHz] * V^2 -> nW; 1e-5 folds the fF/MHz unit
        // conversion and the fabric's effective voltage into mW.
        dynamicMw += toggles[lut.root] * cap * options_.clockMhz * 1e-5;
    }
    const double staticMw = report.lutCount * options_.staticPowerPerLutUw * 1e-3;
    const double powerNoise =
        1.0 + jitter.uniformReal(-options_.powerJitterFraction, options_.powerJitterFraction);
    report.powerMw = (dynamicMw + staticMw) * powerNoise;
    return report;
}

}  // namespace axf::synth
