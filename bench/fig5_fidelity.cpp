// Table I + Fig. 5 — Fidelity of all 18 statistical/ML models for the three
// FPGA parameters (latency, power, area), evaluated on the validation
// subset of the 8x8 multiplier library.  Also reproduces the paper's
// cross-bit-width generalization observation (same-width ~88% vs
// cross-width ~53% average fidelity).

#include <iostream>

#include "bench/bench_common.hpp"
#include "src/core/fidelity.hpp"
#include "src/core/flow.hpp"
#include "src/util/table.hpp"

using namespace axf;

namespace {

/// Characterizes a library and synthesizes a fraction of it.
core::CircuitDataset measuredDataset(gen::AcLibrary library, double fraction,
                                     std::uint64_t seed) {
    core::CircuitDataset ds = core::CircuitDataset::characterize(
        std::move(library), synth::AsicFlow(), bench::sharedCache());
    util::Rng rng(seed);
    synth::FpgaFlow fpga;
    std::vector<std::size_t> subset = rng.sampleIndices(
        ds.size(), std::max<std::size_t>(10, static_cast<std::size_t>(
                                                 fraction * static_cast<double>(ds.size()))));
    std::vector<const circuit::Netlist*> netlists;
    for (std::size_t idx : subset) netlists.push_back(&ds.circuits()[idx].circuit.netlist);
    std::vector<synth::FpgaReport> reports =
        cache::implementCachedBatch(bench::sharedCache(), fpga, netlists);
    for (std::size_t j = 0; j < subset.size(); ++j) {
        ds.circuits()[subset[j]].fpga = std::move(reports[j]);
        ds.circuits()[subset[j]].fpgaMeasured = true;
    }
    return ds;
}

std::vector<std::size_t> measuredIndices(const core::CircuitDataset& ds) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < ds.size(); ++i)
        if (ds.circuits()[i].fpgaMeasured) out.push_back(i);
    return out;
}

}  // namespace

static int benchMain() {
    const bench::Scale scale = bench::scaleFromEnv();
    util::printBanner(std::cout, "Table I | The 18 statistical/ML models");
    const std::vector<ml::ModelSpec> specs =
        ml::tableOneModels(core::CircuitDataset::asicColumns());
    util::Table tableOne({"id", "model"});
    for (const ml::ModelSpec& spec : specs) tableOne.addRow({spec.id, spec.name});
    tableOne.print(std::cout);

    util::printBanner(std::cout, "Fig. 5 | Fidelity of the 18 models x {latency, power, area}");
    gen::AcLibrary library =
        gen::buildLibrary(bench::libraryConfig(circuit::ArithOp::Multiplier, 8, scale));
    std::cout << "8x8 multiplier library: " << library.size()
              << " circuits; 10% synthesized, 80/20 train/validation split\n\n";

    core::ApproxFpgasFlow::Config cfg;
    cfg.evaluateCoverage = false;
    cfg.cache = bench::sharedCache();
    const core::FlowResult result = core::ApproxFpgasFlow(cfg).run(std::move(library));

    util::Table fid({"model", "name", "latency", "power", "area"});
    for (const core::ModelScore& s : result.leaderboard)
        fid.addRow({s.id, s.name,
                    util::Table::percent(s.fidelityByParam.at(core::FpgaParam::Latency)),
                    util::Table::percent(s.fidelityByParam.at(core::FpgaParam::Power)),
                    util::Table::percent(s.fidelityByParam.at(core::FpgaParam::Area))});
    fid.print(std::cout);

    // --- cross-bit-width generalization ------------------------------------
    util::printBanner(std::cout,
                      "Fig. 5 follow-up | Generalization across bit-widths (paper: 88% -> 53%)");
    core::CircuitDataset ds8 = measuredDataset(
        gen::buildLibrary(bench::libraryConfig(circuit::ArithOp::Multiplier, 8, scale)), 0.35, 11);
    core::CircuitDataset ds12 = measuredDataset(
        gen::buildLibrary(bench::libraryConfig(circuit::ArithOp::Multiplier, 12, scale)), 0.35, 12);

    const std::vector<std::size_t> m8 = measuredIndices(ds8);
    const std::vector<std::size_t> m12 = measuredIndices(ds12);
    const std::size_t split8 = m8.size() * 4 / 5;
    const std::vector<std::size_t> train8(m8.begin(), m8.begin() + static_cast<std::ptrdiff_t>(split8));
    const std::vector<std::size_t> val8(m8.begin() + static_cast<std::ptrdiff_t>(split8), m8.end());

    util::Table gen({"model", "same-width (8->8)", "cross-width (8->12)"});
    double sameAcc = 0.0, crossAcc = 0.0;
    const std::vector<std::string> ids = {"ML4", "ML5", "ML10", "ML11", "ML13", "ML18"};
    for (const std::string& id : ids) {
        double same = 0.0, cross = 0.0;
        for (core::FpgaParam param : core::kAllFpgaParams) {
            ml::RegressorPtr model = ml::findModel(specs, id).make();
            model->fit(ds8.featureMatrix(train8), ds8.measuredTargets(train8, param));
            same += core::fidelity(ds8.measuredTargets(val8, param),
                                   model->predictAll(ds8.featureMatrix(val8)));
            cross += core::fidelity(ds12.measuredTargets(m12, param),
                                    model->predictAll(ds12.featureMatrix(m12)));
        }
        same /= 3.0;
        cross /= 3.0;
        sameAcc += same;
        crossAcc += cross;
        gen.addRow({id, util::Table::percent(same), util::Table::percent(cross)});
    }
    gen.print(std::cout);
    std::cout << "\naverage same-width fidelity:  "
              << util::Table::percent(sameAcc / static_cast<double>(ids.size()))
              << " (paper: ~88%)\naverage cross-width fidelity: "
              << util::Table::percent(crossAcc / static_cast<double>(ids.size()))
              << " (paper: ~53%)\n";
    bench::printCacheStats(std::cout);
    return 0;
}

int main() { return axf::bench::guardedMain(benchMain); }
