#pragma once

#include <algorithm>
#include <array>
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

/// Block transpose from per-lane integers to bit planes, the layout the
/// compiled engine evaluates: plane `b` is `circuit::kBlockWords` words
/// holding bit `b` of every lane, lane `i` at bit `i % 64` of word
/// `i / 64`, planes stored back to back.  Built from the 8x8 bit-matrix
/// transpose on a 64-bit word, so it is branch-free and needs no
/// intrinsics.  The way back is the backend decoders
/// (`kernels::Backend::wide.decode16` / `decode32`).
///
/// Writes bits 0..15 of `lanes[0, count)` as 16 planes (16 * kBlockWords
/// words from `planes`); higher lane bits are ignored and lanes
/// `count..kBlockLanes` read as zero.  Requires count <= kBlockLanes.
void toBitPlanes(const std::uint32_t* lanes, std::size_t count,
                 circuit::CompiledNetlist::Word* planes);

/// Applies a 16-bit adder (via its bound simulator) to any number of
/// operand pairs on the compiled engine, swept internally in blocks of
/// `circuit::kBlockLanes`: each block of operands is transposed into bit
/// planes, evaluated, and the adder's outputs decoded back to lanes by the
/// program's kernel backend.  Shared by the accelerator behavioural models
/// whose datapath leaves the bit-plane domain between adders, and reusable
/// for custom accelerators.
/// `inWords` / `outWords` are caller-owned blocks of at least
/// 32 * kBlockWords and outputCount * kBlockWords words; nothing allocates.
/// Operands truncate to the adder's 16-bit interface (inputs may carry a
/// previous level's carry-out in bit 16).  Throws std::invalid_argument
/// for an adder with more than 32 outputs.
void batchAdd16Wide(circuit::BatchSimulator& sim, const std::uint32_t* a,
                    const std::uint32_t* b, std::uint32_t* out, std::size_t lanes,
                    std::span<circuit::CompiledNetlist::Word> inWords,
                    std::span<circuit::CompiledNetlist::Word> outWords);

/// Calls `fn(lane, taps)` for the pixels `first .. first + count` of
/// `image` in row-major order, `lane` counting from 0.  `taps` is the 3x3
/// neighbourhood in row-major order (`taps[3 * (dy + 1) + (dx + 1)]` is
/// the pixel at offset (dx, dy)) with border replication, the same values
/// as `Image::atClamped`.
template <class Fn>
void forEachNeighbourhood(const img::Image& image, std::size_t first, std::size_t count,
                          Fn&& fn) {
    const std::size_t width = static_cast<std::size_t>(image.width());
    const std::size_t lastRow = static_cast<std::size_t>(image.height()) - 1;
    const std::uint8_t* const pixels = image.pixels().data();
    std::size_t x = first % width;
    std::size_t y = first / width;
    std::array<std::uint8_t, 9> taps{};
    for (std::size_t lane = 0; lane < count; ++lane) {
        const std::uint8_t* const rows[3] = {pixels + (y == 0 ? 0 : y - 1) * width,
                                             pixels + y * width,
                                             pixels + std::min(y + 1, lastRow) * width};
        const std::size_t cols[3] = {x == 0 ? 0 : x - 1, x, std::min(x + 1, width - 1)};
        for (std::size_t r = 0; r < 3; ++r)
            for (std::size_t c = 0; c < 3; ++c) taps[3 * r + c] = rows[r][cols[c]];
        fn(lane, taps);
        if (++x == width) {
            x = 0;
            ++y;
        }
    }
}

}  // namespace axf::autoax
