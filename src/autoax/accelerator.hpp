#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/autoax/model.hpp"
#include "src/cache/characterization_cache.hpp"
#include "src/circuit/batch_sim.hpp"

namespace axf::autoax {

/// 3x3 Gaussian-blur hardware accelerator (kernel [1 2 1; 2 4 2; 1 2 1]/16)
/// built from approximate components.  Evaluates the behavioural model
/// bit-sliced, `circuit::kBlockLanes` (1,024) pixels per block: the nine
/// products are transposed into bit planes once and the whole adder tree
/// runs on planes, only the root's sum returning to per-pixel integers.
/// Composes hardware costs.
///
/// Configuration slots (see `configSpace()`): choices 0..8 pick the
/// multiplier of the 9 kernel taps (row-major), choices 9..16 pick the
/// adder of the 8 adder-tree nodes (4+2+1 reduction levels plus the final
/// center-tap add).
class GaussianAccelerator : public AcceleratorModel {
public:
    static constexpr int kMultiplierSlots = 9;
    static constexpr int kAdderSlots = 8;

    /// A non-null characterization cache reuses the exhaustive 8x8
    /// multiplier behavioural tables (content-addressed by component
    /// netlist hash) across accelerators, runs and processes.
    GaussianAccelerator(std::vector<Component> multiplierMenu, std::vector<Component> adderMenu,
                        cache::CharacterizationCache* cache = nullptr);

    const std::vector<Component>& multiplierMenu() const { return multipliers_; }
    const std::vector<Component>& adderMenu() const { return adders_; }

    /// Global slot index of multiplier tap `slot` (0..8) / adder node
    /// `node` (0..7) in an `AcceleratorConfig`.
    static std::size_t multiplierSlot(int slot) { return static_cast<std::size_t>(slot); }
    static std::size_t adderSlot(int node) {
        return static_cast<std::size_t>(kMultiplierSlots + node);
    }

    // --- AcceleratorModel --------------------------------------------------
    std::string name() const override { return "gaussian3x3"; }
    const ConfigSpace& configSpace() const override { return space_; }
    const std::vector<Component>* componentMenu(std::size_t group) const override {
        return group == 0 ? &multipliers_ : group == 1 ? &adders_ : nullptr;
    }
    using AcceleratorModel::filter;  // the one-shot-scratch convenience
    img::Image filter(const img::Image& input, const AcceleratorConfig& config,
                      Workspace& workspace) const override;
    img::Image filterExact(const img::Image& input) const override;
    AcceleratorCost cost(const AcceleratorConfig& config) const override;
    std::vector<double> features(const AcceleratorConfig& config) const override;
    std::unique_ptr<Workspace> makeWorkspace() const override;

    /// The kernel weights in slot order (row-major 3x3).
    static const std::array<int, 9>& kernelWeights();

private:
    struct WorkspaceImpl;

    std::vector<Component> multipliers_;
    std::vector<Component> adders_;
    ConfigSpace space_;
    std::vector<std::vector<std::uint16_t>> multTables_;  ///< 8x8 -> 16-bit LUTs
    /// Each adder menu entry lowered once; workspaces rebind per-node
    /// `BatchSimulator` scratch over these shared programs.
    std::vector<circuit::CompiledNetlist> adderCompiled_;

    static std::vector<std::uint16_t> buildTable(const Component& component,
                                                 cache::CharacterizationCache* cache);
};

}  // namespace axf::autoax
