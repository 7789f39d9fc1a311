#include "src/autoax/eval_engine.hpp"

#include <stdexcept>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::autoax {

namespace {

// Resolved once; recording afterwards is striped relaxed adds (or one
// branch with metrics disabled), so the hot evaluation path stays clean.
struct EvalMetrics {
    obs::Counter& requested = obs::Registry::global().counter("eval.configs_requested");
    obs::Counter& evaluated = obs::Registry::global().counter("eval.configs_evaluated");
    obs::Counter& memoHits = obs::Registry::global().counter("eval.memo_hits");
    obs::Histogram& batchSeconds = obs::Registry::global().histogram("eval.batch_seconds");
    obs::Histogram& filterSeconds = obs::Registry::global().histogram("eval.filter_seconds");
    obs::Histogram& ssimSeconds = obs::Registry::global().histogram("eval.ssim_seconds");
};

EvalMetrics& evalMetrics() {
    static EvalMetrics* m = new EvalMetrics();
    return *m;
}

}  // namespace

/// Mutex-guarded free list of model workspaces.  Workers check one out per
/// work item; the list grows to the high-water concurrency and the scratch
/// inside (simulator workspaces, word buffers) is reused for the lifetime
/// of the engine.  Which worker gets which workspace never affects results
/// (workspaces carry no cross-call state visible in outputs), so handing
/// them out in contention order preserves determinism.
class EvalEngine::WorkspacePool {
public:
    explicit WorkspacePool(const AcceleratorModel& model) : model_(model) {}

    std::unique_ptr<AcceleratorModel::Workspace> acquire() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!free_.empty()) {
                auto ws = std::move(free_.back());
                free_.pop_back();
                return ws;
            }
        }
        return model_.makeWorkspace();
    }

    void release(std::unique_ptr<AcceleratorModel::Workspace> ws) {
        std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(std::move(ws));
    }

private:
    const AcceleratorModel& model_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<AcceleratorModel::Workspace>> free_;
};

EvalEngine::EvalEngine(const AcceleratorModel& model, std::vector<img::Image> scenes)
    : EvalEngine(model, std::move(scenes), Options{}) {}

EvalEngine::~EvalEngine() = default;

EvalEngine::EvalEngine(const AcceleratorModel& model, std::vector<img::Image> scenes,
                       Options options)
    : model_(model), scenes_(std::move(scenes)), options_(options),
      workspaces_(std::make_unique<WorkspacePool>(model)) {
    if (scenes_.empty()) throw std::invalid_argument("EvalEngine: no scenes");
    // The exact reference (and its SSIM window statistics) is a pure
    // function of the scene: compute both exactly once per engine.
    exact_.reserve(scenes_.size());
    ssimRefs_.reserve(scenes_.size());
    for (const img::Image& scene : scenes_) {
        exact_.push_back(model_.filterExact(scene));
        ssimRefs_.emplace_back(exact_.back());
    }
}

std::vector<EvaluatedConfig> EvalEngine::evaluateBatch(
    std::span<const AcceleratorConfig> configs) {
    obs::Span span("eval_batch");
    obs::ScopedTimer batchTimer(evalMetrics().batchSeconds);
    evalMetrics().requested.add(configs.size());
    // Collect the configs that still need simulation, in first-appearance
    // order (in-batch duplicates and memo hits are served from the memo).
    std::vector<const AcceleratorConfig*> fresh;
    std::vector<std::uint64_t> freshHashes;
    {
        std::unordered_map<std::uint64_t, std::size_t> inBatch;
        for (const AcceleratorConfig& c : configs) {
            const std::uint64_t h = c.hash();
            if (options_.memoize && memo_.contains(h)) continue;
            if (inBatch.emplace(h, fresh.size()).second) {
                fresh.push_back(&c);
                freshHashes.push_back(h);
            }
        }
    }

    // Served from the memo (or an in-batch duplicate): everything we were
    // asked for but do not have to simulate.
    evalMetrics().memoHits.add(configs.size() - fresh.size());
    evalMetrics().evaluated.add(fresh.size());

    // Fan the (config x scene) grid out over the pool.  One work item per
    // pair, indexed so item -> (config, scene) is a fixed function of the
    // batch alone; every result lands in its own slot, so no write order
    // dependence exists and the later scene-order reduction is serial.
    const std::size_t sceneCount = scenes_.size();
    std::vector<double> grid(fresh.size() * sceneCount, 0.0);
    util::ThreadPool& pool =
        options_.pool != nullptr ? *options_.pool : util::ThreadPool::global();
    pool.parallelFor(
        fresh.size() * sceneCount,
        [&](std::size_t item) {
            const std::size_t ci = item / sceneCount;
            const std::size_t si = item % sceneCount;
            std::unique_ptr<AcceleratorModel::Workspace> ws = workspaces_->acquire();
            img::Image out;
            {
                obs::ScopedTimer filterTimer(evalMetrics().filterSeconds);
                out = model_.filter(scenes_[si], *fresh[ci], *ws);
            }
            workspaces_->release(std::move(ws));
            obs::ScopedTimer ssimTimer(evalMetrics().ssimSeconds);
            grid[item] = ssimRefs_[si].compare(out);
        },
        options_.threads, options_.cancel);

    // Serial, ordered merge: mean over scenes in scene order per config,
    // memo insert in batch order.
    std::unordered_map<std::uint64_t, EvaluatedConfig> batchOnly;  // non-memoized mode
    auto& table = options_.memoize ? memo_ : batchOnly;
    for (std::size_t ci = 0; ci < fresh.size(); ++ci) {
        EvaluatedConfig e;
        e.config = *fresh[ci];
        double acc = 0.0;
        for (std::size_t si = 0; si < sceneCount; ++si) acc += grid[ci * sceneCount + si];
        e.ssim = acc / static_cast<double>(sceneCount);
        e.cost = model_.cost(*fresh[ci]);
        table.emplace(freshHashes[ci], std::move(e));
    }
    fresh_ += fresh.size();

    std::vector<EvaluatedConfig> results;
    results.reserve(configs.size());
    for (const AcceleratorConfig& c : configs) results.push_back(table.at(c.hash()));
    return results;
}

EvaluatedConfig EvalEngine::evaluate(const AcceleratorConfig& config) {
    return evaluateBatch({&config, 1}).front();
}

}  // namespace axf::autoax
