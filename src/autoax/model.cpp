#include "src/autoax/model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "src/img/ssim.hpp"
#include "src/util/select.hpp"

namespace axf::autoax {

using circuit::BatchSimulator;
using circuit::CompiledNetlist;
using Word = CompiledNetlist::Word;


std::vector<Component> componentsFromFlow(const core::FlowResult& result,
                                          core::FpgaParam param, std::size_t maxComponents) {
    const core::TargetOutcome* outcome = nullptr;
    for (const core::TargetOutcome& t : result.targets)
        if (t.param == param) outcome = &t;
    if (outcome == nullptr) throw std::invalid_argument("componentsFromFlow: param not in result");

    std::vector<Component> menu;
    for (std::size_t idx : outcome->finalParetoIndices) {
        const core::CharacterizedCircuit& cc = result.dataset.circuits()[idx];
        if (!cc.fpgaMeasured) continue;
        Component c;
        c.name = cc.circuit.name;
        c.signature = cc.circuit.signature;
        c.error = cc.circuit.error;
        c.fpga = cc.fpga;
        c.netlist = cc.circuit.netlist;
        menu.push_back(std::move(c));
    }
    std::sort(menu.begin(), menu.end(),
              [](const Component& a, const Component& b) { return a.error.med < b.error.med; });
    // Uniform thinning over the error-sorted menu keeps the spread,
    // including the cheapest (highest-MED) extreme.
    util::thinUniform(menu, maxComponents);
    return menu;
}

std::uint64_t AcceleratorConfig::hash() const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v + 1;
        h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(choice.size()));
    for (int c : choice) mix(static_cast<std::uint64_t>(c));
    return h;
}

std::size_t ConfigSpace::slotCount() const {
    std::size_t n = 0;
    for (const SlotGroup& g : groups) n += static_cast<std::size_t>(g.slots);
    return n;
}

int ConfigSpace::menuSizeOf(std::size_t slot) const {
    for (const SlotGroup& g : groups) {
        if (slot < static_cast<std::size_t>(g.slots)) return g.menuSize;
        slot -= static_cast<std::size_t>(g.slots);
    }
    throw std::out_of_range("ConfigSpace::menuSizeOf: slot out of range");
}

double ConfigSpace::designSpaceSize() const {
    double size = 1.0;
    for (const SlotGroup& g : groups)
        size *= std::pow(static_cast<double>(g.menuSize), static_cast<double>(g.slots));
    return size;
}

AcceleratorConfig ConfigSpace::accurateCorner() const {
    AcceleratorConfig c;
    c.choice.assign(slotCount(), 0);
    return c;
}

AcceleratorConfig ConfigSpace::cheapCorner() const {
    AcceleratorConfig c;
    c.choice.reserve(slotCount());
    for (const SlotGroup& g : groups)
        c.choice.insert(c.choice.end(), static_cast<std::size_t>(g.slots), g.menuSize - 1);
    return c;
}

AcceleratorConfig ConfigSpace::randomConfig(util::Rng& rng) const {
    AcceleratorConfig c;
    c.choice.reserve(slotCount());
    for (const SlotGroup& g : groups)
        for (int s = 0; s < g.slots; ++s)
            c.choice.push_back(static_cast<int>(rng.index(static_cast<std::size_t>(g.menuSize))));
    return c;
}

void ConfigSpace::validate(const AcceleratorConfig& config) const {
    if (config.choice.size() != slotCount())
        throw std::out_of_range("AcceleratorConfig: slot count mismatch");
    std::size_t slot = 0;
    for (const SlotGroup& g : groups)
        for (int s = 0; s < g.slots; ++s, ++slot)
            if (config.choice[slot] < 0 || config.choice[slot] >= g.menuSize)
                throw std::out_of_range("AcceleratorConfig: " + g.name + " choice out of range");
}

img::Image AcceleratorModel::filter(const img::Image& input,
                                    const AcceleratorConfig& config) const {
    const std::unique_ptr<Workspace> workspace = makeWorkspace();
    return filter(input, config, *workspace);
}

double AcceleratorModel::quality(const AcceleratorConfig& config,
                                 const std::vector<img::Image>& scenes) const {
    if (scenes.empty()) throw std::invalid_argument("quality: no scenes");
    const std::unique_ptr<Workspace> workspace = makeWorkspace();
    double acc = 0.0;
    for (const img::Image& scene : scenes)
        acc += img::ssim(filterExact(scene), filter(scene, config, *workspace));
    return acc / static_cast<double>(scenes.size());
}

namespace {

/// Transposes the 8x8 bit matrix held in `x`, byte `r` being row `r`: bit
/// 8r + c moves to bit 8c + r (Hacker's Delight, section 7-3).
constexpr std::uint64_t transpose8x8(std::uint64_t x) {
    x = (x & 0xAA55AA55AA55AA55ull) | ((x & 0x00AA00AA00AA00AAull) << 7) |
        ((x >> 7) & 0x00AA00AA00AA00AAull);
    x = (x & 0xCCCC3333CCCC3333ull) | ((x & 0x0000CCCC0000CCCCull) << 14) |
        ((x >> 14) & 0x0000CCCC0000CCCCull);
    x = (x & 0xF0F0F0F00F0F0F0Full) | ((x & 0x00000000F0F0F0F0ull) << 28) |
        ((x >> 28) & 0x00000000F0F0F0F0ull);
    return x;
}

}  // namespace

// Works on one 64-lane word column at a time, in 8x8 tiles of 8 lanes by
// 8 bit positions: one `transpose8x8` per tile turns lane bytes into plane
// bytes.

void toBitPlanes(const std::uint32_t* lanes, std::size_t count, Word* planes) {
    constexpr std::size_t words = circuit::kBlockWords;
    std::array<std::uint32_t, 64> tail{};
    for (std::size_t w = 0; w < words; ++w) {
        const std::size_t first = w * 64;
        const std::uint32_t* src = tail.data();
        if (first + 64 <= count) {
            src = lanes + first;
        } else {
            // Partial (or empty) word: read through a zero-padded copy.
            tail.fill(0);
            if (first < count) std::copy(lanes + first, lanes + count, tail.begin());
        }
        // Lanes 8g .. 8g + 7 give two tiles (low and high operand byte);
        // transposed, byte j of each holds bit j (resp. 8 + j) of the 8
        // lanes, which is byte g of that plane's word.
        std::array<Word, 16> plane{};
        for (std::size_t g = 0; g < 8; ++g) {
            std::uint64_t lo = 0, hi = 0;
            for (std::size_t i = 0; i < 8; ++i) {
                const std::uint32_t v = src[8 * g + i];
                lo |= static_cast<std::uint64_t>(v & 0xFFu) << (8 * i);
                hi |= static_cast<std::uint64_t>((v >> 8) & 0xFFu) << (8 * i);
            }
            lo = transpose8x8(lo);
            hi = transpose8x8(hi);
            for (std::size_t j = 0; j < 8; ++j) {
                plane[j] |= ((lo >> (8 * j)) & 0xFFu) << (8 * g);
                plane[8 + j] |= ((hi >> (8 * j)) & 0xFFu) << (8 * g);
            }
        }
        for (std::size_t bit = 0; bit < 16; ++bit) planes[bit * words + w] = plane[bit];
    }
}

void batchAdd16Wide(BatchSimulator& sim, const std::uint32_t* a, const std::uint32_t* b,
                    std::uint32_t* out, std::size_t lanes, std::span<Word> inWords,
                    std::span<Word> outWords) {
    // Callers may tile their lane arrays at any granularity (typically one
    // block).  Pure integer bit-sliced evaluation — results are independent
    // of the tiling.  Operand A fills input planes 0..15, B planes 16..31;
    // `toBitPlanes` keeps only the 16 interface bits of each operand.
    constexpr std::size_t words = circuit::kBlockWords;
    const std::size_t outputs = sim.compiled().outputCount();
    if (outputs > 32) throw std::invalid_argument("batchAdd16Wide: more than 32 adder outputs");
    const circuit::kernels::Decode32Fn decode = sim.compiled().backend().wide.decode32;
    std::array<std::uint32_t, circuit::kBlockLanes> sums;
    for (std::size_t blockBase = 0; blockBase < lanes; blockBase += circuit::kBlockLanes) {
        const std::size_t blockCount = std::min(circuit::kBlockLanes, lanes - blockBase);
        toBitPlanes(a + blockBase, blockCount, inWords.data());
        toBitPlanes(b + blockBase, blockCount, inWords.data() + 16 * words);
        sim.evaluate(inWords.subspan(0, 32 * words), outWords.subspan(0, outputs * words));
        decode(outWords.data(), outputs, sums.data());
        std::copy_n(sums.begin(), blockCount, out + blockBase);
    }
}

}  // namespace axf::autoax
