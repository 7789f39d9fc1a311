#include "src/autoax/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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

void batchAdd16Wide(BatchSimulator& sim, const std::uint32_t* a, const std::uint32_t* b,
                    std::uint32_t* out, std::size_t lanes, std::span<Word> inWords,
                    std::span<Word> outWords) {
    // Callers may tile their lane arrays at any granularity (typically one
    // block).  Pure integer bit-sliced evaluation — results are independent
    // of the tiling.
    constexpr std::size_t words = circuit::kBlockWords;
    const std::size_t outputs = sim.compiled().outputCount();
    for (std::size_t blockBase = 0; blockBase < lanes; blockBase += circuit::kBlockLanes) {
        const std::size_t blockCount = std::min(circuit::kBlockLanes, lanes - blockBase);
        std::memset(inWords.data(), 0, 32 * words * sizeof(Word));
        for (std::size_t lane = 0; lane < blockCount; ++lane) {
            const Word laneBit = Word{1} << (lane % 64);
            const std::size_t w = lane / 64;
            // Operands truncate to the adder's 16-bit interface.  Inputs can
            // carry 17-bit values (a previous level's carry-out); without the
            // mask, bit 16 of `a` would alias operand B's LSB and bit 16 of
            // `b` would index past the input block.
            std::uint32_t va = a[blockBase + lane] & 0xFFFFu;
            while (va != 0) {
                const int bit = __builtin_ctz(va);
                inWords[static_cast<std::size_t>(bit) * words + w] |= laneBit;
                va &= va - 1;
            }
            std::uint32_t vb = b[blockBase + lane] & 0xFFFFu;
            while (vb != 0) {
                const int bit = __builtin_ctz(vb);
                inWords[static_cast<std::size_t>(16 + bit) * words + w] |= laneBit;
                vb &= vb - 1;
            }
        }
        sim.evaluate(inWords.subspan(0, 32 * words), outWords.subspan(0, outputs * words));
        std::uint32_t* const outBlock = out + blockBase;
        std::memset(outBlock, 0, blockCount * sizeof(std::uint32_t));
        for (std::size_t bit = 0; bit < outputs; ++bit) {
            const std::uint32_t weight = std::uint32_t{1} << bit;
            for (std::size_t w = 0; w * 64 < blockCount; ++w) {
                Word word = outWords[bit * words + w];
                const std::size_t laneBase = w * 64;
                while (word != 0) {
                    const int lane = __builtin_ctzll(word);
                    const std::size_t idx = laneBase + static_cast<std::size_t>(lane);
                    if (idx < blockCount) outBlock[idx] |= weight;
                    word &= word - 1;
                }
            }
        }
    }
}

}  // namespace axf::autoax
