// Fig. 6 — Correlation of estimated vs measured FPGA parameters for the
// top-3 models on the 16x16 multiplier library.  The paper's scatter plots
// are summarized as Pearson/Spearman correlations and the mean signed
// relative bias (its key finding: latency is under-estimated by ~30% by
// regression-on-ASIC and kernel ridge).

#include <iostream>

#include "bench/bench_common.hpp"
#include "src/core/flow.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"

using namespace axf;

static int benchMain() {
    const bench::Scale scale = bench::scaleFromEnv();
    util::printBanner(std::cout, "Fig. 6 | Estimated-vs-measured correlation, 16x16 multipliers");

    gen::AcLibrary library =
        gen::buildLibrary(bench::libraryConfig(circuit::ArithOp::Multiplier, 16, scale));
    std::cout << "16x16 multiplier library: " << library.size() << " circuits\n";

    // Measure everything once (ground truth for the scatter), train on a
    // 10% subset like the methodology does.
    core::CircuitDataset ds = core::CircuitDataset::characterize(
        std::move(library), synth::AsicFlow(), bench::sharedCache());
    synth::FpgaFlow fpga;
    std::vector<const circuit::Netlist*> netlists;
    for (const core::CharacterizedCircuit& cc : ds.circuits())
        netlists.push_back(&cc.circuit.netlist);
    std::vector<synth::FpgaReport> reports =
        cache::implementCachedBatch(bench::sharedCache(), fpga, netlists);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        ds.circuits()[i].fpga = std::move(reports[i]);
        ds.circuits()[i].fpgaMeasured = true;
    }
    util::Rng rng(0xF16);
    const std::vector<std::size_t> subset = rng.sampleIndices(
        ds.size(), std::max<std::size_t>(12, ds.size() / 10));
    std::vector<std::size_t> rest;
    {
        std::vector<bool> inSubset(ds.size(), false);
        for (std::size_t i : subset) inSubset[i] = true;
        for (std::size_t i = 0; i < ds.size(); ++i)
            if (!inSubset[i]) rest.push_back(i);
    }

    const std::vector<ml::ModelSpec> specs =
        ml::tableOneModels(core::CircuitDataset::asicColumns());
    const ml::Matrix xTrain = ds.featureMatrix(subset);
    const ml::Matrix xTest = ds.featureMatrix(rest);

    // Paper's Fig. 6 model line-up: Bayesian ridge, PLS, kernel ridge, plus
    // the regression-w.r.t.-ASIC baseline for each parameter.
    for (core::FpgaParam param : core::kAllFpgaParams) {
        const char* baselineId = param == core::FpgaParam::Latency ? "ML2"
                                 : param == core::FpgaParam::Power ? "ML1"
                                                                   : "ML3";
        util::Table table({"model", "pearson", "spearman", "bias"});
        for (const std::string& id : {std::string("ML11"), std::string("ML4"),
                                      std::string("ML10"), std::string(baselineId)}) {
            ml::RegressorPtr model = ml::findModel(specs, id).make();
            model->fit(xTrain, ds.measuredTargets(subset, param));
            const ml::Vector est = model->predictAll(xTest);
            const ml::Vector mes = ds.measuredTargets(rest, param);
            table.addRow({id, util::Table::num(util::pearson(mes, est), 3),
                          util::Table::num(util::spearman(mes, est), 3),
                          util::Table::num(util::relativeBias(mes, est), 1) + "%"});
        }
        std::cout << "\nFPGA " << core::fpgaParamName(param) << " (" << rest.size()
                  << " held-out circuits):\n";
        table.print(std::cout);
    }
    std::cout << "\n(paper: Bayesian ridge and PLS usable standalone for all three parameters;\n"
                 " latency estimates carry the largest bias)\n";
    bench::printCacheStats(std::cout);
    return 0;
}

int main() { return axf::bench::guardedMain(benchMain); }
