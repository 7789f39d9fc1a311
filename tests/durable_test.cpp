// Durability substrate: the AXFK checkpoint container (round-trip,
// corruption detection, audit), IslandSearch checkpoint/resume determinism
// (a run killed at any epoch and resumed — at any thread count — is
// bit-identical to an uninterrupted run), cooperative cancellation
// (a tripped token flushes a resumable snapshot before raising), and the
// flow-level torture: a multi-island mixed-strategy AutoAxFpgaFlow DSE
// killed at a chosen scenario/epoch resumes to the uninterrupted Result,
// including under the portable kernel backend.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/autoax/dse.hpp"
#include "src/autoax/sobel.hpp"
#include "src/circuit/kernels.hpp"
#include "src/durable/checkpoint.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/adders.hpp"
#include "src/search/island_search.hpp"
#include "src/search/toy_problem.hpp"
#include "src/synth/fpga.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/thread_pool.hpp"

namespace axf {
namespace {

/// Per-test scratch directory under the system temp root.
class DurableTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (std::filesystem::temp_directory_path() /
                ("axf_durable_test_" +
                 std::string(::testing::UnitTest::GetInstance()->current_test_info()->name())))
                   .string();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const char* name) const { return dir_ + "/" + name; }

    std::string dir_;
};

/// The exception tests throw from epoch hooks to simulate a hard kill at
/// a chosen boundary (distinct from OperationCancelled on purpose: a kill
/// is not a cooperative stop).
struct KillSignal {
    int done = 0;
};

// --- AXFK container ------------------------------------------------------

TEST_F(DurableTest, CheckpointRoundTripsAndAudits) {
    const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};
    const std::uint64_t digest = 0xDEADBEEFCAFEF00Dull;
    ASSERT_TRUE(durable::writeCheckpoint(path("a.axfk"), digest, payload));

    const auto loaded = durable::loadCheckpoint(path("a.axfk"));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->digest, digest);
    EXPECT_EQ(loaded->payload, payload);

    const durable::CheckpointAudit audit = durable::auditCheckpoint(path("a.axfk"), digest);
    EXPECT_TRUE(audit.ok) << audit.message;
    EXPECT_EQ(audit.version, durable::kCheckpointVersion);
    EXPECT_EQ(audit.digest, digest);
    EXPECT_EQ(audit.payloadBytes, payload.size());

    // Audit with the wrong expected digest fails without throwing.
    const durable::CheckpointAudit bad = durable::auditCheckpoint(path("a.axfk"), digest + 1);
    EXPECT_FALSE(bad.ok);
}

TEST_F(DurableTest, MissingCheckpointIsNulloptNotError) {
    EXPECT_FALSE(durable::loadCheckpoint(path("nope.axfk")).has_value());
    EXPECT_FALSE(durable::auditCheckpoint(path("nope.axfk")).ok);
}

TEST_F(DurableTest, EveryCorruptionClassIsDetected) {
    const std::vector<std::uint8_t> payload(200, 0x5A);
    ASSERT_TRUE(durable::writeCheckpoint(path("c.axfk"), 7, payload));

    const auto corrupt = [&](const char* name, std::uintmax_t offset, char byte) {
        std::filesystem::copy_file(path("c.axfk"), path(name));
        std::fstream f(path(name), std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(offset));
        f.put(byte);
    };
    corrupt("magic.axfk", 0, 'X');          // wrong magic
    corrupt("version.axfk", 4, '\x7F');     // unknown version
    corrupt("payload.axfk", 40, '\x00');    // payload bit rot (was 0x5A)
    corrupt("digest.axfk", 13, '\x01');     // digest byte — covered by the CRC
    std::filesystem::copy_file(path("c.axfk"), path("trunc.axfk"));
    std::filesystem::resize_file(path("trunc.axfk"),
                                 std::filesystem::file_size(path("c.axfk")) / 2);

    for (const char* name :
         {"magic.axfk", "version.axfk", "payload.axfk", "digest.axfk", "trunc.axfk"}) {
        EXPECT_FALSE(durable::auditCheckpoint(path(name)).ok) << name;
        EXPECT_THROW(durable::loadCheckpoint(path(name)), durable::CheckpointError) << name;
    }
}

// --- IslandSearch checkpoint/resume --------------------------------------

using TestToyProblem = search::ToyProblem<6, 10>;
using ToySearch = search::IslandSearch<TestToyProblem>;

ToySearch::Options toyOptions() {
    ToySearch::Options o;
    o.islands = 4;
    o.generations = 48;
    o.batch = 3;
    o.seedsPerIsland = 5;
    o.migrationInterval = 8;
    o.migrants = 3;
    o.archiveCap = 32;
    o.seed = 0xD0C;
    o.islandStrategies = {search::Strategy::HillClimb, search::Strategy::Anneal,
                          search::Strategy::Genetic};
    return o;
}

void expectSameResult(const ToySearch::Result& a, const ToySearch::Result& b) {
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.islandEvaluations, b.islandEvaluations);
    ASSERT_EQ(a.archive.size(), b.archive.size());
    for (std::size_t i = 0; i < a.archive.size(); ++i) {
        EXPECT_EQ(a.archive[i].genome, b.archive[i].genome) << "entry " << i;
        EXPECT_EQ(a.archive[i].objectives, b.archive[i].objectives) << "entry " << i;
    }
    // The RNG streams are part of the contract too: callers continue
    // drawing from them (the DSE random baseline).
    ASSERT_EQ(a.islandRngs.size(), b.islandRngs.size());
    for (std::size_t i = 0; i < a.islandRngs.size(); ++i)
        EXPECT_TRUE(a.islandRngs[i] == b.islandRngs[i]) << "island " << i;
}

TEST_F(DurableTest, KillAtEveryEpochResumesBitIdentical) {
    const TestToyProblem problem;
    const ToySearch::Result reference = ToySearch(problem, toyOptions()).run();

    // 48 generations at interval 8 = 6 epoch boundaries; kill at each one
    // in turn, resume at a different thread count, expect the reference.
    util::ThreadPool narrow(2);
    for (int killEpoch = 1; killEpoch <= 6; ++killEpoch) {
        ToySearch::Options o = toyOptions();
        o.checkpointPath = path("toy.axfk");
        o.onEpoch = [&](int done) {
            if (done >= killEpoch * 8) throw KillSignal{done};
        };
        std::filesystem::remove(o.checkpointPath);
        bool killed = false;
        try {
            ToySearch(problem, o).run();
        } catch (const KillSignal&) {
            killed = true;
        }
        // The final boundary's snapshot is written before the hook runs, so
        // even a kill at the last epoch leaves a complete checkpoint.
        ASSERT_TRUE(killed) << "kill epoch " << killEpoch;
        ASSERT_TRUE(durable::auditCheckpoint(o.checkpointPath).ok);

        SCOPED_TRACE("kill epoch " + std::to_string(killEpoch));
        ToySearch::Options resumeOptions = toyOptions();
        resumeOptions.checkpointPath = o.checkpointPath;
        resumeOptions.threads = killEpoch % 2 == 0 ? 1 : 0;
        resumeOptions.pool = killEpoch % 2 == 0 ? nullptr : &narrow;
        const ToySearch search(problem, resumeOptions);
        expectSameResult(reference, search.runOrResume());
    }
}

TEST_F(DurableTest, CancellationFlushesAResumableSnapshot) {
    const TestToyProblem problem;
    const ToySearch::Result reference = ToySearch(problem, toyOptions()).run();

    util::CancellationToken cancel;
    ToySearch::Options o = toyOptions();
    o.checkpointPath = path("cancelled.axfk");
    o.cancel = &cancel;
    o.onEpoch = [&](int done) {
        if (done >= 16) cancel.requestStop();
    };
    EXPECT_THROW(ToySearch(problem, o).run(), util::OperationCancelled);

    // The snapshot written on the way out is valid and carries this
    // configuration's digest...
    const ToySearch search(problem, toyOptions());
    ASSERT_TRUE(durable::auditCheckpoint(o.checkpointPath, search.checkpointDigest()).ok);

    // ...and a resume without the token finishes to the reference bits.
    ToySearch::Options resumeOptions = toyOptions();
    resumeOptions.checkpointPath = o.checkpointPath;
    expectSameResult(reference, ToySearch(problem, resumeOptions).runOrResume());
}

TEST_F(DurableTest, PreTrippedTokenStopsBeforeAnyEpoch) {
    const TestToyProblem problem;
    util::CancellationToken cancel;
    cancel.requestStop();
    ToySearch::Options o = toyOptions();
    o.checkpointPath = path("early.axfk");
    o.cancel = &cancel;
    EXPECT_THROW(ToySearch(problem, o).run(), util::OperationCancelled);
    // Even the immediate stop leaves a resumable generation-0 snapshot.
    ASSERT_TRUE(durable::auditCheckpoint(o.checkpointPath).ok);
    ToySearch::Options resumeOptions = toyOptions();
    resumeOptions.checkpointPath = o.checkpointPath;
    expectSameResult(ToySearch(problem, toyOptions()).run(),
                     ToySearch(problem, resumeOptions).runOrResume());
}

TEST_F(DurableTest, CompletedCheckpointFastForwards) {
    const TestToyProblem problem;
    ToySearch::Options o = toyOptions();
    o.checkpointPath = path("complete.axfk");
    const ToySearch search(problem, o);
    const ToySearch::Result reference = search.run();
    // The final snapshot is always written; a rerun does zero generations
    // (no new evaluations beyond the recorded ones) and returns the bits.
    expectSameResult(reference, search.runOrResume());
}

TEST_F(DurableTest, ForeignCheckpointIsRejectedLoudly) {
    const TestToyProblem problem;
    ToySearch::Options o = toyOptions();
    o.checkpointPath = path("mine.axfk");
    ToySearch(problem, o).run();

    // Same file, different result-affecting configuration -> digest
    // mismatch, loud error (never a silent fresh start).
    ToySearch::Options other = toyOptions();
    other.checkpointPath = o.checkpointPath;
    other.seed ^= 1;
    EXPECT_THROW(ToySearch(problem, other).resume(other.checkpointPath),
                 durable::CheckpointError);
    EXPECT_THROW(ToySearch(problem, other).runOrResume(), durable::CheckpointError);

    // A valid container with a mangled payload is also loud.
    ASSERT_TRUE(durable::writeCheckpoint(o.checkpointPath,
                                         ToySearch(problem, o).checkpointDigest(),
                                         {1, 2, 3}));
    EXPECT_THROW(ToySearch(problem, o).resume(o.checkpointPath), durable::CheckpointError);
}

TEST_F(DurableTest, CheckpointDigestIsPinned) {
    // Exact header digests, recorded before the epsilon-dominance and
    // single-strategy options were removed: the constants the digest now
    // mixes in their place keep older snapshots resumable.
    const TestToyProblem problem;
    EXPECT_EQ(ToySearch(problem, ToySearch::Options{}).checkpointDigest(),
              0x512FA71A79E84E42ull);
    EXPECT_EQ(ToySearch(problem, toyOptions()).checkpointDigest(), 0x0652845EB2126B38ull);
}

/// A Problem without genome-serialization hooks: the checkpoint API must
/// be rejected at construction, not fail mysteriously later.
struct OpaqueToyProblem {
    using Genome = TestToyProblem::Genome;
    TestToyProblem inner;

    std::size_t objectiveCount() const { return inner.objectiveCount(); }
    Genome random(util::Rng& rng) const { return inner.random(rng); }
    Genome mutate(const Genome& g, util::Rng& rng) const { return inner.mutate(g, rng); }
    Genome crossover(const Genome& a, const Genome& b, util::Rng& rng) const {
        return inner.crossover(a, b, rng);
    }
    void evaluate(std::span<const Genome> batch, std::span<search::Objectives> out) const {
        inner.evaluate(batch, out);
    }
};

TEST_F(DurableTest, NonCheckpointableProblemRejectsCheckpointPath) {
    static_assert(!search::CheckpointableProblem<OpaqueToyProblem>);
    const OpaqueToyProblem problem;
    search::IslandSearch<OpaqueToyProblem>::Options o;
    o.checkpointPath = path("nope.axfk");
    EXPECT_THROW(search::IslandSearch<OpaqueToyProblem>(problem, o),
                 std::invalid_argument);
}

// --- flow-level torture: AutoAxFpgaFlow kill/resume ----------------------

autoax::Component makeComponent(circuit::Netlist netlist) {
    autoax::Component c;
    c.name = netlist.name();
    c.signature = gen::adderSignature(16);
    c.error = error::analyzeError(netlist, c.signature);
    c.fpga = synth::FpgaFlow().implement(netlist);
    c.netlist = std::move(netlist);
    return c;
}

const autoax::SobelAccelerator& sobel() {
    static const autoax::SobelAccelerator kSobel([] {
        std::vector<autoax::Component> menu;
        menu.push_back(makeComponent(gen::rippleCarryAdder(16)));
        for (int k : {4, 8, 10}) menu.push_back(makeComponent(gen::loaAdder(16, k)));
        return menu;
    }());
    return kSobel;
}

autoax::AutoAxFpgaFlow::Config flowConfig() {
    autoax::AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 16;
    cfg.hillIterations = 240;
    cfg.archiveSeed = 8;
    cfg.archiveCap = 40;
    cfg.imageSize = 32;
    cfg.sceneCount = 1;
    cfg.islands = 3;
    cfg.searchBatch = 4;
    cfg.migrationInterval = 8;  // 240/(3*4) = 20 generations: epochs at 8, 16, 20
    cfg.islandStrategies = {search::Strategy::HillClimb, search::Strategy::Anneal,
                            search::Strategy::Genetic};
    return cfg;
}

void expectSameFlowResult(const autoax::AutoAxFpgaFlow::Result& a,
                          const autoax::AutoAxFpgaFlow::Result& b) {
    EXPECT_EQ(a.totalRealEvaluations, b.totalRealEvaluations);
    ASSERT_EQ(a.trainingSet.size(), b.trainingSet.size());
    for (std::size_t i = 0; i < a.trainingSet.size(); ++i) {
        EXPECT_EQ(a.trainingSet[i].config, b.trainingSet[i].config);
        EXPECT_EQ(a.trainingSet[i].ssim, b.trainingSet[i].ssim);
    }
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
    for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
        const auto& x = a.scenarios[s];
        const auto& y = b.scenarios[s];
        EXPECT_EQ(x.param, y.param);
        EXPECT_EQ(x.estimatorQueries, y.estimatorQueries);
        EXPECT_EQ(x.realEvaluations, y.realEvaluations);
        ASSERT_EQ(x.autoax.size(), y.autoax.size());
        for (std::size_t i = 0; i < x.autoax.size(); ++i) {
            EXPECT_EQ(x.autoax[i].config, y.autoax[i].config);
            EXPECT_EQ(x.autoax[i].ssim, y.autoax[i].ssim);
            EXPECT_EQ(x.autoax[i].cost.lutCount, y.autoax[i].cost.lutCount);
        }
        ASSERT_EQ(x.random.size(), y.random.size());
        for (std::size_t i = 0; i < x.random.size(); ++i) {
            EXPECT_EQ(x.random[i].config, y.random[i].config);
            EXPECT_EQ(x.random[i].ssim, y.random[i].ssim);
        }
    }
}

TEST_F(DurableTest, FlowKilledAtRandomEpochResumesBitIdentical) {
    const autoax::AutoAxFpgaFlow::Result reference =
        autoax::AutoAxFpgaFlow(flowConfig()).run(sobel());
    ASSERT_EQ(reference.scenarios.size(), 3u);

    // Kill points spread over scenarios and epochs, including the very
    // first boundary of the first scenario and the final boundary of the
    // last; resume runs alternate the worker cap.
    struct KillPoint {
        core::FpgaParam param;
        int done;
    };
    const std::vector<KillPoint> kills = {{core::FpgaParam::Latency, 8},
                                          {core::FpgaParam::Latency, 20},
                                          {core::FpgaParam::Power, 16},
                                          {core::FpgaParam::Area, 8},
                                          {core::FpgaParam::Area, 20}};
    for (std::size_t k = 0; k < kills.size(); ++k) {
        SCOPED_TRACE("kill point " + std::to_string(k));
        const std::string checkpointDir = path("flow") + std::to_string(k);
        autoax::AutoAxFpgaFlow::Config killed = flowConfig();
        killed.checkpointDirectory = checkpointDir;
        killed.onSearchEpoch = [&, k](core::FpgaParam param, int done) {
            if (param == kills[k].param && done >= kills[k].done) throw KillSignal{done};
        };
        bool interrupted = false;
        try {
            autoax::AutoAxFpgaFlow(killed).run(sobel());
        } catch (const KillSignal&) {
            interrupted = true;
        }
        ASSERT_TRUE(interrupted) << "kill point " << k;

        autoax::AutoAxFpgaFlow::Config resumed = flowConfig();
        resumed.checkpointDirectory = checkpointDir;
        resumed.threads = k % 2 == 0 ? 1 : 0;
        expectSameFlowResult(reference, autoax::AutoAxFpgaFlow(resumed).run(sobel()));
    }
}

TEST_F(DurableTest, FlowResumeBitIdenticalUnderPortableBackend) {
    // Interrupt under the auto-detected backend, resume under the portable
    // kernels: gate-level simulation is bit-exact across backends, so the
    // resumed Result must still match the reference bits.
    const autoax::AutoAxFpgaFlow::Result reference =
        autoax::AutoAxFpgaFlow(flowConfig()).run(sobel());

    autoax::AutoAxFpgaFlow::Config killed = flowConfig();
    killed.checkpointDirectory = path("flow_portable");
    killed.onSearchEpoch = [](core::FpgaParam param, int done) {
        if (param == core::FpgaParam::Power && done >= 8) throw KillSignal{done};
    };
    EXPECT_THROW(autoax::AutoAxFpgaFlow(killed).run(sobel()), KillSignal);

    const circuit::kernels::Backend* portable = circuit::kernels::backendByName("portable");
    ASSERT_NE(portable, nullptr);
    circuit::kernels::ScopedBackendOverride scoped(portable);
    autoax::AutoAxFpgaFlow::Config resumed = flowConfig();
    resumed.checkpointDirectory = killed.checkpointDirectory;
    expectSameFlowResult(reference, autoax::AutoAxFpgaFlow(resumed).run(sobel()));
}

TEST_F(DurableTest, FlowCancellationExitsWithValidCheckpoints) {
    util::CancellationToken cancel;
    autoax::AutoAxFpgaFlow::Config cfg = flowConfig();
    cfg.checkpointDirectory = path("flow_cancel");
    cfg.cancel = &cancel;
    cfg.onSearchEpoch = [&](core::FpgaParam, int done) {
        if (done >= 16) cancel.requestStop();
    };
    EXPECT_THROW(autoax::AutoAxFpgaFlow(cfg).run(sobel()), util::OperationCancelled);
    // The scenario that was cancelled left an epoch-boundary snapshot.
    ASSERT_TRUE(
        durable::auditCheckpoint(cfg.checkpointDirectory + "/scenario_latency.axfk").ok);

    autoax::AutoAxFpgaFlow::Config resumed = flowConfig();
    resumed.checkpointDirectory = cfg.checkpointDirectory;
    expectSameFlowResult(autoax::AutoAxFpgaFlow(flowConfig()).run(sobel()),
                         autoax::AutoAxFpgaFlow(resumed).run(sobel()));
}

}  // namespace
}  // namespace axf
