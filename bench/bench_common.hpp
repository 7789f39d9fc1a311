#pragma once

// Shared configuration of the experiment harnesses.  Every bench prints the
// rows/series of one table or figure of the DAC'20 ApproxFPGAs paper.
//
// Scale: benches default to proportionally smaller CGP libraries than the
// paper's corpus so the whole suite runs in minutes.  Set AXF_SCALE=paper
// to grow the libraries toward paper scale (slower), or AXF_SCALE=ci for
// the smallest smoke configuration.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "src/cache/characterization_cache.hpp"
#include "src/gen/library.hpp"
#include "src/util/cancellation.hpp"

namespace axf::bench {

/// The process-wide SIGINT/SIGTERM cancellation token (installs the
/// handlers on first use).  Library builds configured via `libraryConfig`
/// check it, so ^C on a bench stops at the next characterization batch
/// instead of being killed mid-write.
inline const util::CancellationToken* signalCancel() { return &util::signalToken(); }

/// Bench main wrapper: installs the signal token up front and converts a
/// cooperative cancellation into the distinct exit status 75
/// (`util::kCancelledExitCode`), so harnesses can tell "interrupted" from
/// "crashed".  Usage: `int main() { return bench::guardedMain(benchMain); }`.
inline int guardedMain(int (*body)()) {
    signalCancel();
    try {
        return body();
    } catch (const util::OperationCancelled& cancelled) {
        std::fprintf(stderr, "bench interrupted: %s\n", cancelled.what());
        return util::kCancelledExitCode;
    }
}

enum class Scale { Ci, Default, Paper };

inline Scale scaleFromEnv() {
    const char* env = std::getenv("AXF_SCALE");
    if (env == nullptr) return Scale::Default;
    const std::string v(env);
    if (v == "ci") return Scale::Ci;
    if (v == "paper") return Scale::Paper;
    return Scale::Default;
}

/// Process-wide characterization cache shared by every bench stage.
///
/// `AXF_CACHE_DIR` selects the backing store:
///   - unset        -> `.axf_cache` in the working directory (persistent, so
///                     repeated bench runs and multi-process fleets share
///                     one characterization corpus);
///   - a path       -> that directory;
///   - `mem`        -> in-memory only (no files written);
///   - `off`/`none`/`0`/empty -> disabled (every run recomputes).
///
/// Cached results are bit-identical to recomputation, so bench output never
/// depends on the cache state — only wall time does.
inline cache::CharacterizationCache* sharedCache() {
    static const std::unique_ptr<cache::CharacterizationCache> instance = [] {
        const char* env = std::getenv("AXF_CACHE_DIR");
        std::string dir = env == nullptr ? ".axf_cache" : env;
        if (dir.empty() || dir == "off" || dir == "none" || dir == "0")
            return std::unique_ptr<cache::CharacterizationCache>();
        cache::CharacterizationCache::Options options;
        if (dir != "mem") options.directory = dir;
        return std::make_unique<cache::CharacterizationCache>(options);
    }();
    return instance.get();
}

/// Flushes the shared cache and prints its hit/miss/store counters (the
/// benches call this once at the end of their report).
inline void printCacheStats(std::ostream& os) {
    cache::CharacterizationCache* cache = sharedCache();
    if (cache == nullptr) {
        os << "[characterization cache: off]\n";
        return;
    }
    cache->flush();
    os << "[characterization cache: " << cache->stats().summary();
    if (!cache->directory().empty()) os << "; store: " << cache->directory();
    os << "]\n";
}

/// Library-generation policy for one operator/width at the chosen scale.
/// The returned config routes characterization through `sharedCache()`.
inline gen::LibraryConfig libraryConfig(circuit::ArithOp op, int width, Scale scale) {
    gen::LibraryConfig cfg;
    cfg.op = op;
    cfg.width = width;
    cfg.seed = 0xA90F5 + static_cast<std::uint64_t>(width) * 7 +
               (op == circuit::ArithOp::Multiplier ? 1 : 0);
    switch (scale) {
        case Scale::Ci:
            cfg.medBudgets = {0.001, 0.01};
            cfg.cgpGenerations = 60;
            break;
        case Scale::Default:
            cfg.medBudgets = {0.0005, 0.001, 0.002, 0.005, 0.01, 0.03};
            cfg.cgpGenerations = width >= 16 ? 90 : 150;
            break;
        case Scale::Paper:
            cfg.medBudgets = {0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05};
            cfg.cgpGenerations = width >= 16 ? 220 : 450;
            break;
    }
    // Wide operators: sampled error analysis keeps reports comparable.
    if (width >= 12) {
        cfg.errorConfig.exhaustiveLimit = 1u << 16;
        cfg.errorConfig.sampleCount = 1u << 15;
    }
    cfg.cache = sharedCache();
    cfg.cancel = signalCancel();
    return cfg;
}

}  // namespace axf::bench
