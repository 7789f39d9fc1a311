#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/circuit/arith.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/netlist.hpp"
#include "src/core/dataset.hpp"
#include "src/core/flow.hpp"
#include "src/error/error_metrics.hpp"
#include "src/img/image.hpp"
#include "src/synth/metrics.hpp"

namespace axf::autoax {

/// One Pareto-optimal FPGA-AC offered to an accelerator builder (a menu
/// entry): behavioral netlist plus measured FPGA parameters and error.
struct Component {
    std::string name;
    circuit::ArithSignature signature;
    error::ErrorReport error;
    synth::FpgaReport fpga;
    circuit::Netlist netlist;
};

/// Extracts the final Pareto-optimal circuits of an ApproxFPGAs run as a
/// component menu (capped at `maxComponents`, spread over the error range).
std::vector<Component> componentsFromFlow(const core::FlowResult& result,
                                          core::FpgaParam param, std::size_t maxComponents);

/// Generic accelerator configuration: one menu choice per configurable
/// slot, in the slot order the owning model defines (`ConfigSpace`).
struct AcceleratorConfig {
    std::vector<int> choice;

    std::uint64_t hash() const;
    friend bool operator==(const AcceleratorConfig&, const AcceleratorConfig&) = default;
};

/// Describes the configurable structure of an accelerator model: named
/// groups of slots, each slot drawing from a group-wide component menu.
/// Slot indices are global and run group by group (a Gaussian accelerator
/// is {multiplier x9, adder x8}: slots 0..8 then 9..16).
struct ConfigSpace {
    struct SlotGroup {
        std::string name;  ///< e.g. "multiplier"
        int slots = 0;     ///< slot count in this group
        int menuSize = 0;  ///< choices per slot
    };
    std::vector<SlotGroup> groups;

    std::size_t slotCount() const;
    int menuSizeOf(std::size_t slot) const;
    /// |menu_g|^slots_g over all groups, as a double (overflows 64 bits).
    double designSpaceSize() const;

    /// All-index-0 configuration (menus are MED-sorted: the most accurate).
    AcceleratorConfig accurateCorner() const;
    /// All-last-index configuration (cheapest / most aggressive entries).
    AcceleratorConfig cheapCorner() const;
    /// Uniformly random slot assignment drawn from `rng`.
    AcceleratorConfig randomConfig(util::Rng& rng) const;

    /// Throws std::out_of_range unless every slot choice is in range (and
    /// the choice vector has exactly `slotCount()` entries).
    void validate(const AcceleratorConfig& config) const;
};

/// Composed "measured" hardware cost of one configuration — the stand-in
/// for synthesizing the full accelerator with Vivado.  Area and power are
/// additive over component instances (plus glue); latency follows the
/// datapath critical path.  A small deterministic per-configuration jitter
/// models P&R variance.
struct AcceleratorCost {
    double lutCount = 0.0;
    double powerMw = 0.0;
    double latencyNs = 0.0;
    double synthSeconds = 0.0;  ///< Vivado-equivalent accelerator synthesis
};

/// A hardware-accelerated image-processing workload assembled from
/// approximate components — the pluggable unit the AutoAx DSE, the batched
/// evaluation engine and the fig harnesses operate on.  Implementations
/// describe their configuration space, evaluate the behavioral model
/// (ideally bit-parallel), compose hardware costs, and expose the feature
/// vector their QoR/cost estimators train on.
class AcceleratorModel {
public:
    /// Opaque per-thread evaluation scratch (compiled-program workspaces,
    /// word buffers).  One workspace must never be used from two threads
    /// at once; holding one across `filter` calls removes per-call heap
    /// allocation and simulator re-setup.
    class Workspace {
    public:
        virtual ~Workspace() = default;
    };

    virtual ~AcceleratorModel() = default;

    virtual std::string name() const = 0;
    virtual const ConfigSpace& configSpace() const = 0;

    /// Component menu the slots of ConfigSpace group `group` draw from, or
    /// nullptr when the model has no per-group netlist menu.  Consumers
    /// that characterize individual components (e.g. the resilience-aware
    /// DSE running per-component stuck-at campaigns) need the underlying
    /// netlists, not just menu sizes.
    virtual const std::vector<Component>* componentMenu(std::size_t group) const {
        (void)group;
        return nullptr;
    }

    /// Runs the behavioral model over an image using caller-owned scratch.
    virtual img::Image filter(const img::Image& input, const AcceleratorConfig& config,
                              Workspace& workspace) const = 0;

    /// Reference output (all-exact components).
    virtual img::Image filterExact(const img::Image& input) const = 0;

    virtual AcceleratorCost cost(const AcceleratorConfig& config) const = 0;

    /// Feature vector of a configuration for the AutoAx estimators
    /// (error-mass and hardware aggregates of the chosen components).
    virtual std::vector<double> features(const AcceleratorConfig& config) const = 0;

    virtual std::unique_ptr<Workspace> makeWorkspace() const = 0;

    /// Convenience: filter with one-shot scratch (allocates; prefer a held
    /// workspace in loops).
    img::Image filter(const img::Image& input, const AcceleratorConfig& config) const;

    /// QoR: mean SSIM of the approximate output against the exact output
    /// over the given scenes.  This is the scalar reference path; the
    /// batched `EvalEngine` is bit-identical to it and much faster.
    double quality(const AcceleratorConfig& config, const std::vector<img::Image>& scenes) const;

    double designSpaceSize() const { return configSpace().designSpaceSize(); }
};

/// Applies a 16-bit adder (via its bound simulator) to any number of
/// operand pairs on the compiled engine, swept internally in blocks of
/// `circuit::kBlockLanes`.  Shared by the accelerator behavioural models
/// and reusable for custom accelerators.  `inWords` / `outWords` are
/// caller-owned blocks of at least 32 * kBlockWords and outputCount *
/// kBlockWords words; nothing allocates.  Operands truncate to the adder's
/// 16-bit interface (inputs may carry a previous level's carry-out in
/// bit 16).
void batchAdd16Wide(circuit::BatchSimulator& sim, const std::uint32_t* a,
                    const std::uint32_t* b, std::uint32_t* out, std::size_t lanes,
                    std::span<circuit::CompiledNetlist::Word> inWords,
                    std::span<circuit::CompiledNetlist::Word> outWords);

}  // namespace axf::autoax
