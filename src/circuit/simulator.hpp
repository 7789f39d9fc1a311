#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/circuit/batch_sim.hpp"
#include "src/circuit/netlist.hpp"

namespace axf::util {
class ThreadPool;
}

namespace axf::circuit {

/// 64-way bit-parallel netlist evaluator.
///
/// One `Word` carries 64 independent test vectors through a single sweep of
/// the node array, which makes exhaustive 8-bit error analysis (65,536
/// vectors = 1,024 sweeps) cheap enough to run inside unit tests.
///
/// Since the compiled-engine refactor this is a thin wrapper over
/// `CompiledNetlist` run at one word per slot, compiled *without* dead-node
/// pruning so `nodeValues()` still exposes every node (the activity-based
/// power models depend on that).  Hot paths that sweep many vectors should
/// prefer `BatchSimulator` (1024 lanes per sweep, pruned).
///
/// The evaluator keeps a scratch buffer sized to the netlist, so a single
/// instance is not thread-safe; create one per thread if parallelizing.
class Simulator {
public:
    using Word = std::uint64_t;

    explicit Simulator(const Netlist& netlist);

    /// Evaluates one 64-lane block.  `inputWords[i]` supplies the lanes of
    /// the i-th primary input; `outputWords[i]` receives the lanes of the
    /// i-th primary output.
    void evaluate(std::span<const Word> inputWords, std::span<Word> outputWords);

    /// Scalar convenience: evaluates a single assignment (lane 0).
    /// Bit i of the result is output i.
    std::uint64_t evaluateScalar(std::uint64_t inputBits);

    /// Per-node lane values of the most recent `evaluate` call (one word per
    /// node, in node order).  Valid until the next evaluate.
    std::span<const Word> nodeValues() const { return values_; }

    const Netlist& netlist() const { return netlist_; }

private:
    const Netlist& netlist_;
    CompiledNetlist compiled_;      ///< all nodes preserved: slot == node id
    std::vector<Word> values_;      ///< one-word-per-node workspace
    std::vector<Word> scalarIn_;    ///< reused by evaluateScalar
    std::vector<Word> scalarOut_;
};

/// Per-node toggle counter for the activity-based power models.
///
/// `accumulate` runs a block and counts, per node, in how many of the lane
/// pairs (lane i of the previous block vs lane i of this block) the node
/// value toggled.  Feeding consecutive random blocks approximates the
/// switching activity a synthesis tool derives from default toggle rates.
class ActivityCounter {
public:
    explicit ActivityCounter(const Netlist& netlist);

    void accumulate(std::span<const Simulator::Word> inputWords);

    /// Toggle probability per node in [0, 1]; meaningful after >= 2 blocks.
    std::vector<double> toggleRates() const;
    std::size_t blocksSeen() const { return blocks_; }

    /// Raw per-node toggle counts accumulated so far (ordered-merge hook
    /// for the chunk-parallel estimator and its differential tests).
    std::span<const std::uint64_t> toggleCounts() const { return toggles_; }

private:
    const Netlist& netlist_;
    Simulator simulator_;
    std::vector<Simulator::Word> previous_;
    std::vector<Simulator::Word> outputScratch_;
    std::vector<std::uint64_t> toggles_;
    std::size_t blocks_ = 0;
};

/// Fills the 64-lane stimulus block `b` of the activity-estimation stream
/// derived from `seed`: every lane bit an independent fair coin, the block
/// a pure function of (seed, b).  Addressable blocks are what make the
/// estimation chunk-parallel — any worker can regenerate any block,
/// including a chunk's predecessor, without replaying the whole stream.
void fillActivityBlock(std::uint64_t seed, std::uint64_t b,
                       std::span<Simulator::Word> inputWords);

/// Per-node toggle rates over `blocks` stimulus blocks (see
/// `fillActivityBlock`), estimated thread-parallel with the same
/// chunk-deterministic pattern as `error::analyzeError`: the transition
/// sequence is cut into fixed-size chunks (never derived from the thread
/// count), each chunk re-evaluates its predecessor block and counts its
/// own transitions on a private counter, and the per-chunk counts merge in
/// block order — so the result is bit-identical at any thread count, and
/// identical to feeding the same blocks through one `ActivityCounter`.
///
/// `pool` selects the thread pool (nullptr = the process-global pool); the
/// netlist is compiled once and shared read-only across workers.
std::vector<double> estimateToggleRates(const Netlist& netlist, std::uint64_t seed, int blocks,
                                        util::ThreadPool* pool = nullptr);

}  // namespace axf::circuit
