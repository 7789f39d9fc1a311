#pragma once

#include <cstdint>
#include <vector>

#include "src/circuit/arith.hpp"
#include "src/circuit/netlist.hpp"
#include "src/error/error_metrics.hpp"
#include "src/util/rng.hpp"

namespace axf::gen {

/// Cartesian Genetic Programming over the two-input gate alphabet — the
/// same representation EvoApproxLib was evolved with (single-row CGP,
/// unrestricted levels-back).  Used here to grow the heterogeneous library
/// of approximate adders/multipliers the ApproxFPGAs study explores.
struct CgpParams {
    int inputs = 0;
    int outputs = 0;
    int cells = 0;  ///< single-row grid length (function nodes)
    std::vector<circuit::GateKind> functions = defaultFunctionSet();

    static std::vector<circuit::GateKind> defaultFunctionSet();
};

/// Linear CGP chromosome.  Cell i may reference primary inputs or any cell
/// j < i (full levels-back), so decoding is a single forward sweep.
class CgpGenome {
public:
    struct Gene {
        std::uint8_t function = 0;  ///< index into params.functions
        std::uint16_t a = 0;        ///< operand node index
        std::uint16_t b = 0;
    };

    CgpGenome(CgpParams params, util::Rng& rng);  ///< random individual

    /// Embeds an existing netlist (two-input gates only) as the genome
    /// prefix; remaining cells are randomized.  Throws if the netlist does
    /// not fit (too many gates / wrong interface / 3-input gates).
    static CgpGenome seedFromNetlist(const circuit::Netlist& netlist, int extraCells,
                                     util::Rng& rng);

    /// Point-mutates `count` uniformly chosen genes (function, operand or
    /// output gene, like classic CGP goldman mutation).
    void mutate(int count, util::Rng& rng);

    /// Decodes the active cone into a netlist (inactive cells skipped).
    circuit::Netlist decode() const;

    /// Number of active (output-reachable) cells.
    int activeCells() const;

    const CgpParams& params() const { return params_; }

private:
    CgpParams params_;
    std::vector<Gene> genes_;
    std::vector<std::uint16_t> outputGenes_;

    int nodeSpace() const { return params_.inputs + params_.cells; }
    std::uint16_t randomOperand(int cellIndex, util::Rng& rng) const;
    std::vector<bool> activeMask() const;
};

/// One harvested point of an evolutionary run.
struct CgpHarvest {
    circuit::Netlist netlist;       ///< decoded, simplified
    error::ErrorReport error;       ///< against the run's signature
    int generation = 0;
};

/// (1 + lambda) evolution strategy minimizing active-cell count subject to
/// a MED budget.  Every accepted, structurally novel individual is
/// harvested, which is how a single run yields a whole family of library
/// circuits (mirroring how EvoApproxLib snapshots its Pareto archive).
class CgpEvolver {
public:
    struct Options {
        double medBudget = 0.01;   ///< accept offspring with MED <= budget
        int lambda = 4;
        int generations = 300;
        int mutatedGenes = 4;
        std::uint64_t seed = 1;
        /// Fitness-evaluation policy: sampled and cheap (evolution runs
        /// thousands of evaluations; sampling noise only perturbs the walk).
        error::ErrorAnalysisConfig fitnessConfig{/*exhaustiveLimit=*/1u << 12,
                                                 /*sampleCount=*/1u << 13,
                                                 /*seed=*/0xF17};
        /// Reporting policy applied once per harvested circuit.
        error::ErrorAnalysisConfig reportConfig{};
    };

    CgpEvolver(circuit::ArithSignature signature, Options options);

    /// Runs evolution from the seed netlist; returns all harvested circuits
    /// (deduplicated by structural hash) sorted by generation.
    std::vector<CgpHarvest> run(const circuit::Netlist& seedNetlist);

private:
    circuit::ArithSignature signature_;
    Options options_;
};

}  // namespace axf::gen
