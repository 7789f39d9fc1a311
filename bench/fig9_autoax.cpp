// Fig. 9 — AutoAx-FPGA case study: a Gaussian-filter accelerator assembled
// from 9 Pareto-optimal 8x8 approximate multipliers and 8 Pareto-optimal
// 16-bit approximate adders.  Estimator-guided hill-climbing constructs
// three pseudo-Pareto fronts (latency-SSIM, power-SSIM, area-SSIM) whose
// members are then really evaluated; a random search with the same
// real-evaluation budget is the baseline.  (Paper: design space 4.95e14
// reduced to 368/444/946 synthesized designs; AutoAx-FPGA beats random
// search; the latency estimator is the weakest.)

#include <iostream>

#include "bench/bench_common.hpp"
#include "src/autoax/accelerator.hpp"
#include "src/autoax/dse.hpp"
#include "src/autoax/sobel.hpp"
#include "src/cache/characterization_cache.hpp"
#include "src/fault/fault.hpp"
#include "src/core/flow.hpp"
#include "src/util/table.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/timer.hpp"

using namespace axf;

namespace {

/// Best (lowest) cost among points whose SSIM meets the threshold.
double bestCostAt(const std::vector<autoax::EvaluatedConfig>& points, core::FpgaParam param,
                  double ssimThreshold) {
    double best = std::numeric_limits<double>::infinity();
    for (const autoax::EvaluatedConfig& p : points)
        if (p.ssim >= ssimThreshold)
            best = std::min(best, autoax::costParamOf(p.cost, param));
    return best;
}

std::string costStr(double v) {
    return std::isfinite(v) ? util::Table::num(v, 2) : std::string("-");
}

/// Full bit-level comparison of two DSE results (the determinism contract
/// of the island search: same island count -> same bits at any thread
/// count).
bool sameResult(const autoax::AutoAxFpgaFlow::Result& a,
                const autoax::AutoAxFpgaFlow::Result& b) {
    if (a.trainingSet.size() != b.trainingSet.size() ||
        a.scenarios.size() != b.scenarios.size() ||
        a.totalRealEvaluations != b.totalRealEvaluations)
        return false;
    for (std::size_t i = 0; i < a.trainingSet.size(); ++i)
        if (a.trainingSet[i].config != b.trainingSet[i].config ||
            a.trainingSet[i].ssim != b.trainingSet[i].ssim)
            return false;
    for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
        const auto& x = a.scenarios[s];
        const auto& y = b.scenarios[s];
        if (x.autoax.size() != y.autoax.size() || x.random.size() != y.random.size() ||
            x.estimatorQueries != y.estimatorQueries)
            return false;
        for (std::size_t i = 0; i < x.autoax.size(); ++i)
            if (x.autoax[i].config != y.autoax[i].config || x.autoax[i].ssim != y.autoax[i].ssim)
                return false;
        for (std::size_t i = 0; i < x.random.size(); ++i)
            if (x.random[i].config != y.random[i].config || x.random[i].ssim != y.random[i].ssim)
                return false;
    }
    return true;
}

}  // namespace

static int benchMain() {
    const bench::Scale scale = bench::scaleFromEnv();
    util::printBanner(std::cout, "Fig. 9 | AutoAx-FPGA: Gaussian filter vs random search");

    // Component menus from two ApproxFPGAs runs (paper: 9 multipliers, 8 adders).
    std::cout << "building FPGA-AC component menus via ApproxFPGAs...\n";
    core::ApproxFpgasFlow::Config flowCfg;
    flowCfg.cache = bench::sharedCache();
    const core::FlowResult mulFlow = core::ApproxFpgasFlow(flowCfg).run(
        gen::buildLibrary(bench::libraryConfig(circuit::ArithOp::Multiplier, 8, scale)));
    const core::FlowResult addFlow = core::ApproxFpgasFlow(flowCfg).run(
        gen::buildLibrary(bench::libraryConfig(circuit::ArithOp::Adder, 16, scale)));

    std::vector<autoax::Component> mults =
        autoax::componentsFromFlow(mulFlow, core::FpgaParam::Area, 9);
    std::vector<autoax::Component> adders =
        autoax::componentsFromFlow(addFlow, core::FpgaParam::Area, 8);
    std::cout << "multiplier menu: " << mults.size() << ", adder menu: " << adders.size() << "\n";

    const autoax::GaussianAccelerator accel(std::move(mults), std::move(adders),
                                            bench::sharedCache());
    std::cout << "design space: " << accel.designSpaceSize()
              << " configurations (paper: 4.95e14)\n\n";

    autoax::AutoAxFpgaFlow::Config cfg;
    cfg.islands = 4;
    cfg.searchBatch = 8;
    cfg.migrationInterval = 8;  // no islandStrategies: every island hill-climbs
    if (scale == bench::Scale::Ci) {
        cfg.trainConfigs = 60;
        cfg.hillIterations = 800;
        cfg.imageSize = 64;
    }

    // Before: the same 4-island search single-threaded — the determinism
    // reference and the wall-clock baseline for the island speedup.
    autoax::AutoAxFpgaFlow::Config serialCfg = cfg;
    serialCfg.threads = 1;
    util::Timer serialTimer;
    const autoax::AutoAxFpgaFlow::Result serialResult =
        autoax::AutoAxFpgaFlow(serialCfg).run(accel);
    const double serialSeconds = serialTimer.seconds();

    // After: same island count over the whole pool (search islands AND
    // the evaluation engine fan out).
    util::Timer dseTimer;
    const autoax::AutoAxFpgaFlow::Result result = autoax::AutoAxFpgaFlow(cfg).run(accel);
    const double dseSeconds = dseTimer.seconds();

    const std::size_t dseEvaluations = result.totalRealEvaluations;
    std::cout << "island search: " << cfg.islands << " islands x batch " << cfg.searchBatch
              << " (" << search::strategyName(search::Strategy::HillClimb) << "), pool of "
              << util::ThreadPool::global().threadCount() << " workers\n";
    std::cout << "DSE wall clock (1 thread):  " << util::Table::num(serialSeconds, 2) << " s, "
              << serialResult.totalRealEvaluations << " fresh real evaluations -> "
              << util::Table::num(
                     static_cast<double>(serialResult.totalRealEvaluations) / serialSeconds, 1)
              << " configs evaluated/s\n";
    std::cout << "DSE wall clock (parallel):  " << util::Table::num(dseSeconds, 2) << " s, "
              << dseEvaluations << " fresh real evaluations -> "
              << util::Table::num(static_cast<double>(dseEvaluations) / dseSeconds, 1)
              << " configs evaluated/s\n";
    std::cout << "multi-island DSE speedup: " << util::Table::num(serialSeconds / dseSeconds, 2)
              << "x, parallel result bit-identical to serial: "
              << (sameResult(serialResult, result) ? "yes" : "NO (DETERMINISM BUG)") << "\n";

    for (const autoax::AutoAxFpgaFlow::ScenarioResult& s : result.scenarios) {
        util::printBanner(std::cout, std::string("scenario: SSIM vs FPGA ") +
                                         core::fpgaParamName(s.param));
        std::cout << "estimator-guided moves: " << s.estimatorQueries
                  << ", really evaluated designs: " << s.realEvaluations
                  << " (training sample adds " << result.trainingSet.size() << ")\n\n";

        util::Table table({"SSIM >=", "AutoAx-FPGA best " + std::string(core::fpgaParamName(s.param)),
                           "random best", "AutoAx wins?"});
        for (double threshold : {0.90, 0.95, 0.98, 0.995}) {
            const double a = bestCostAt(s.autoax, s.param, threshold);
            const double r = bestCostAt(s.random, s.param, threshold);
            table.addRow({util::Table::num(threshold, 3), costStr(a), costStr(r),
                          a < r ? "yes" : (a == r ? "tie" : "no")});
        }
        table.print(std::cout);

        // Print the real Pareto front the scenario discovered.
        util::Table front({"SSIM", "#LUTs", "power [mW]", "latency [ns]"});
        for (std::size_t pos : autoax::qualityCostFront(s.autoax, s.param)) {
            const autoax::EvaluatedConfig& p = s.autoax[pos];
            front.addRow({util::Table::num(p.ssim, 4), util::Table::num(p.cost.lutCount, 0),
                          util::Table::num(p.cost.powerMw, 2),
                          util::Table::num(p.cost.latencyNs, 2)});
        }
        std::cout << "\ndiscovered SSIM-" << core::fpgaParamName(s.param) << " front ("
                  << front.rowCount() << " designs):\n";
        front.print(std::cout);
    }
    // --- second workload: Sobel through the same engine --------------------
    // New scenario, same methodology: the adder menu transfers to the Sobel
    // edge detector and the identical AutoAxFpgaFlow/EvalEngine machinery
    // explores its (|menu|^3) design space.
    util::printBanner(std::cout, "second workload: Sobel edge detector, same engine");
    const autoax::SobelAccelerator sobel(
        autoax::componentsFromFlow(addFlow, core::FpgaParam::Area, 8));
    autoax::AutoAxFpgaFlow::Config sobelCfg;
    sobelCfg.trainConfigs = scale == bench::Scale::Ci ? 40 : 80;
    sobelCfg.hillIterations = scale == bench::Scale::Ci ? 400 : 1200;
    sobelCfg.imageSize = scale == bench::Scale::Ci ? 64 : 96;
    // A mixed-strategy island fleet on the second workload: same engine,
    // different metaheuristics per island.
    sobelCfg.islands = 3;
    sobelCfg.searchBatch = 4;
    sobelCfg.islandStrategies = {search::Strategy::HillClimb, search::Strategy::Anneal,
                                 search::Strategy::Genetic};
    util::Timer sobelTimer;
    const autoax::AutoAxFpgaFlow::Result sobelResult =
        autoax::AutoAxFpgaFlow(sobelCfg).run(sobel);
    std::cout << "design space: " << sobel.designSpaceSize() << " configurations, DSE "
              << util::Table::num(sobelTimer.seconds(), 2) << " s, "
              << sobelResult.totalRealEvaluations << " fresh real evaluations\n\n";
    util::Table sobelTable({"scenario", "front size", "best SSIM", "cheapest design"});
    for (const auto& s : sobelResult.scenarios) {
        double best = 0.0, cheapest = std::numeric_limits<double>::infinity();
        const std::vector<std::size_t> front = autoax::qualityCostFront(s.autoax, s.param);
        for (std::size_t pos : front) {
            best = std::max(best, s.autoax[pos].ssim);
            cheapest = std::min(cheapest, autoax::costParamOf(s.autoax[pos].cost, s.param));
        }
        sobelTable.addRow({std::string("SSIM vs ") + core::fpgaParamName(s.param),
                           std::to_string(front.size()), util::Table::num(best, 4),
                           util::Table::num(cheapest, 2)});
    }
    sobelTable.print(std::cout);

    // --- resilience-aware DSE: quality x cost x fault-MED fronts -----------
    // The stuck-at campaign engine (src/fault) characterizes each menu
    // component once (content-addressed in the shared cache), and the DSE
    // carries mean error-under-fault as a third archive objective — the
    // fronts below trade SSIM and hardware cost against resilience.
    util::printBanner(std::cout, "resilience-aware DSE: SSIM x cost x fault-MED");
    fault::CampaignConfig campaign;
    campaign.analysis.sampleCount = scale == bench::Scale::Ci ? 1u << 10 : 1u << 12;

    util::Table resTable({"adder", "MED", "fault sites", "coverage", "mean MED under fault"});
    const std::vector<autoax::Component>& menu = sobel.adderMenu();
    std::vector<double> componentFaultMed(menu.size(), 0.0);
    for (std::size_t c = 0; c < menu.size(); ++c) {
        const fault::ResilienceReport rr = cache::analyzeResilienceCached(
            bench::sharedCache(), menu[c].netlist.structuralHash(), menu[c].netlist,
            menu[c].signature, campaign);
        componentFaultMed[c] = rr.meanMedUnderFault;
        resTable.addRow({menu[c].name, util::Table::num(menu[c].error.med, 5),
                         std::to_string(rr.totalSites), util::Table::num(rr.faultCoverage, 3),
                         util::Table::num(rr.meanMedUnderFault, 5)});
    }
    std::cout << "per-component stuck-at campaigns (" << campaign.analysis.sampleCount
              << " vectors/fault, cached):\n";
    resTable.print(std::cout);

    autoax::AutoAxFpgaFlow::Config resCfg = sobelCfg;
    resCfg.resilienceObjective = true;
    resCfg.faultCampaign = campaign;
    resCfg.cache = bench::sharedCache();
    util::Timer resTimer;
    const autoax::AutoAxFpgaFlow::Result resResult = autoax::AutoAxFpgaFlow(resCfg).run(sobel);
    std::cout << "\n3-objective DSE: " << util::Table::num(resTimer.seconds(), 2) << " s, "
              << resResult.totalRealEvaluations << " fresh real evaluations\n";

    const auto slotMeanFaultMed = [&](const autoax::AcceleratorConfig& config) {
        double sum = 0.0;
        for (int choice : config.choice) sum += componentFaultMed[static_cast<std::size_t>(choice)];
        return sum / static_cast<double>(config.choice.size());
    };
    for (const autoax::AutoAxFpgaFlow::ScenarioResult& s : resResult.scenarios) {
        util::Table front({"SSIM", core::fpgaParamName(s.param), "fault MED (slot mean)"});
        for (std::size_t pos : autoax::qualityCostFront(s.autoax, s.param)) {
            const autoax::EvaluatedConfig& p = s.autoax[pos];
            front.addRow({util::Table::num(p.ssim, 4),
                          util::Table::num(autoax::costParamOf(p.cost, s.param), 2),
                          util::Table::num(slotMeanFaultMed(p.config), 5)});
        }
        std::cout << "\nSSIM-" << core::fpgaParamName(s.param)
                  << "-resilience front (" << front.rowCount() << " designs):\n";
        front.print(std::cout);
    }

    bench::printCacheStats(std::cout);
    return 0;
}

int main() { return axf::bench::guardedMain(benchMain); }
