#pragma once

#include <vector>

#include "src/circuit/netlist.hpp"

namespace axf::synth {

/// Cut-based K-LUT technology mapping (FlowMap-style depth-oriented labels
/// computed by priority-cut enumeration, as in ABC's `if` mapper:
/// Mishchenko, Cho, Chatterjee, Brayton, "Combinational and sequential
/// mapping with priority cuts", ICCAD 2007).
///
/// Cuts use the `if`-mapper representation: leaves inline in a
/// fixed-capacity array, a 64-bit leaf signature that rejects infeasible
/// merges and non-dominating pairs in O(1), and one flat
/// nodes x cutsPerNode array of kept cuts that fan-outs read in place.
///
/// The input netlist must contain only gates with at most two fan-ins
/// (run `circuit::lowerToTwoInput` first); constants and inputs are free.
class LutMapper {
public:
    static constexpr int kMaxLutInputs = 6;
    static constexpr int kMaxCutsPerNode = 8;

    struct Options {
        int lutInputs = 6;    ///< K of the target fabric (Virtex-7: 6-LUT), in [2, 6]
        int cutsPerNode = 8;  ///< priority-cut list length, in [1, 8]
    };

    /// One selected LUT in the mapped network.
    struct Lut {
        circuit::NodeId root;
        std::vector<circuit::NodeId> leaves;  ///< inputs of the LUT (node ids, ascending)
        int level = 0;                        ///< LUT depth from the inputs
    };

    struct Mapping {
        std::vector<Lut> luts;
        int depth = 0;  ///< max LUT level over primary outputs

        std::size_t lutCount() const { return luts.size(); }
    };

    LutMapper() = default;
    /// Throws std::invalid_argument when `lutInputs` is outside
    /// [2, kMaxLutInputs] or `cutsPerNode` outside [1, kMaxCutsPerNode].
    explicit LutMapper(Options options);

    Mapping map(const circuit::Netlist& netlist) const;

private:
    Options options_{};
};

}  // namespace axf::synth
