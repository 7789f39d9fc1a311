#pragma once

// Result digests of the benchmark workloads.  Every pass folds its result
// into one 64-bit FNV-1a digest; passes of one seed must agree bit for bit
// (across passes, processes, traced and untraced runs, cold and warm
// caches), so a mismatch marks the pass as failed.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "src/autoax/dse.hpp"
#include "src/core/flow.hpp"

namespace perfbench {

/// FNV-1a fold over little-endian 64-bit words, started from the basis
/// axf-campaign's resultDigest uses; doubles fold by bit pattern, so
/// -0.0 and 0.0 (or two NaN payloads) digest differently.
class Digest {
public:
    void mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 1099511628211ull;
        }
    }
    void mixDouble(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    }
    /// Length-prefixed, so ("ab","c") and ("a","bc") differ.
    void mixString(std::string_view s) {
        mix(s.size());
        for (unsigned char c : s) mix(c);
    }
    std::uint64_t value() const { return h_; }
    std::string hex() const {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
        return buf;
    }

private:
    std::uint64_t h_ = 1469598103934665603ull;
};

inline void mixFpga(Digest& d, const axf::synth::FpgaReport& r) {
    d.mixDouble(r.lutCount);
    d.mixDouble(r.sliceCount);
    d.mixDouble(r.latencyNs);
    d.mixDouble(r.powerMw);
    d.mixDouble(r.logicDepth);
    d.mixDouble(r.synthSeconds);
}

inline void mixIndices(Digest& d, const std::vector<std::size_t>& v) {
    d.mix(v.size());
    for (std::size_t i : v) d.mix(i);
}

/// ApproxFPGAs run: error and ASIC profiles, measured FPGA reports,
/// leaderboard fidelities, pseudo and final fronts, coverage and the
/// exploration-time accounting.
inline void mixFlow(Digest& d, const axf::core::FlowResult& r) {
    d.mix(r.dataset.size());
    for (const axf::core::CharacterizedCircuit& cc : r.dataset.circuits()) {
        d.mixDouble(cc.circuit.error.med);
        d.mixDouble(cc.circuit.error.worstCaseError);
        d.mixDouble(cc.asic.areaUm2);
        d.mixDouble(cc.asic.delayNs);
        d.mixDouble(cc.asic.powerMw);
        d.mix(cc.fpgaMeasured ? 1 : 0);
        if (cc.fpgaMeasured) mixFpga(d, cc.fpga);
    }
    d.mix(r.leaderboard.size());
    for (const axf::core::ModelScore& s : r.leaderboard) {
        d.mixString(s.id);
        for (const auto& [param, fidelity] : s.fidelityByParam) {
            d.mix(static_cast<std::uint64_t>(param));
            d.mixDouble(fidelity);
        }
        for (const auto& [param, variant] : s.variantByParam) {
            d.mix(static_cast<std::uint64_t>(param));
            d.mixString(variant);
        }
    }
    for (const axf::core::TargetOutcome& t : r.targets) {
        d.mix(static_cast<std::uint64_t>(t.param));
        d.mix(t.selectedModels.size());
        for (const std::string& id : t.selectedModels) d.mixString(id);
        mixIndices(d, t.pseudoParetoIndices);
        mixIndices(d, t.resynthesized);
        mixIndices(d, t.finalParetoIndices);
        d.mixDouble(t.coverageOfTrueFront);
    }
    d.mixDouble(r.exhaustiveSynthSeconds);
    d.mixDouble(r.flowSynthSeconds);
    d.mix(r.circuitsSynthesized);
}

/// AutoAx-FPGA run, in the shape of axf-campaign's result digest.
inline void mixDse(Digest& d, const axf::autoax::AutoAxFpgaFlow::Result& result) {
    const auto mixConfig = [&d](const axf::autoax::EvaluatedConfig& e) {
        for (int c : e.config.choice) d.mix(static_cast<std::uint64_t>(c));
        d.mixDouble(e.ssim);
        d.mixDouble(e.cost.lutCount);
        d.mixDouble(e.cost.powerMw);
        d.mixDouble(e.cost.latencyNs);
    };
    d.mix(result.trainingSet.size());
    for (const axf::autoax::EvaluatedConfig& e : result.trainingSet) mixConfig(e);
    for (const axf::autoax::AutoAxFpgaFlow::ScenarioResult& s : result.scenarios) {
        d.mix(static_cast<std::uint64_t>(s.param));
        d.mix(s.estimatorQueries);
        d.mix(s.autoax.size());
        for (const axf::autoax::EvaluatedConfig& e : s.autoax) mixConfig(e);
        d.mix(s.random.size());
        for (const axf::autoax::EvaluatedConfig& e : s.random) mixConfig(e);
    }
    d.mix(result.totalRealEvaluations);
}

}  // namespace perfbench
