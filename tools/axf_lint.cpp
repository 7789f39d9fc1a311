// axf-lint — static verification front door for the approximate-circuit
// stack.  Lints gate-level netlists (structural invariants, unreachable
// logic, duplicate cones, provably constant gates) and statically
// verifies their compiled programs (dataflow discipline, schedule claims,
// fusion semantics) without evaluating a single vector.
//
// Modes (combinable):
//   axf-lint --library adder|multiplier --width N [--full]
//       Lint + compile-verify every netlist of the generated structural
//       families (--full adds the CGP-evolved designs).
//   axf-lint --cache DIR
//       Audit a characterization-cache directory: every netlist payload
//       must decode and pass the linter.
//   axf-lint --audit-checkpoint FILE [--expect-digest HEX]
//       Validate a campaign checkpoint ("AXFK"): magic, container version,
//       CRC-32, size framing — and digest equality when --expect-digest is
//       given.  Nonzero exit on any mismatch.
//   axf-lint FILE...
//       Lint serialized netlist files (the Netlist::serialize format).
//
// Flags: --werror (warnings fail), --quiet (findings only), --no-verify
// (skip program verification), --stats (print per-netlist compiled-plan
// statistics: backend, instructions, runs, fusion), --json
// (with --stats: machine-readable axf-lint-stats.v3 JSON on stdout instead
// of text rows — schema documented in the README), --max-diag N.
//
// Exit status: 0 clean, 1 error-severity findings (or warnings under
// --werror) or a failed checkpoint audit, 2 usage/io failure, 75 when
// interrupted (SIGINT/SIGTERM cancels the library build cooperatively).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/characterization_cache.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/netlist.hpp"
#include "src/durable/checkpoint.hpp"
#include "src/gen/library.hpp"
#include "src/util/bytes.hpp"
#include "src/util/cancellation.hpp"
#include "src/verify/verify.hpp"

namespace {

using axf::circuit::CompiledNetlist;
using axf::circuit::Netlist;
using axf::verify::Diagnostics;

struct CliOptions {
    std::string library;        // "adder" | "multiplier" | ""
    int width = 8;
    bool full = false;          // include CGP designs, not just structural families
    std::string cacheDirectory;
    std::vector<std::string> auditCheckpoints;
    std::optional<std::uint64_t> expectDigest;
    std::vector<std::string> files;
    bool werror = false;
    bool quiet = false;
    bool verifyPrograms = true;
    bool showStats = false;
    bool json = false;  // with --stats: axf-lint-stats.v3 JSON on stdout
    std::size_t maxDiagnostics = 64;
};

/// One --stats row, buffered so --json can emit the whole document at the
/// end (text mode prints rows as they are produced).
struct StatsRow {
    std::string subject;
    CompiledNetlist::Stats stats;
    std::size_t lintErrors = 0;
    std::size_t lintWarnings = 0;
};

struct Tally {
    std::size_t netlists = 0;
    std::size_t programs = 0;
    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::vector<StatsRow> statsRows;
};

void appendJsonString(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

/// The `axf-lint-stats.v3` document (schema in README): per-netlist
/// compiled-plan statistics + lint counts, then the run summary.
void printStatsJson(const Tally& tally) {
    std::string out = "{\"schema\":\"axf-lint-stats.v3\",\"netlists\":[";
    bool first = true;
    for (const StatsRow& row : tally.statsRows) {
        if (!first) out += ',';
        first = false;
        out += "{\"name\":";
        appendJsonString(out, row.subject);
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      ",\"backend\":\"%s\",\"instructions\":%zu,"
                      "\"runs\":%zu,\"longest_run\":%zu,\"fused_ops\":%zu,"
                      "\"gates_folded\":%zu,\"lint_errors\":%zu,\"lint_warnings\":%zu}",
                      row.stats.backend, row.stats.instructions,
                      row.stats.runs, row.stats.longestRun, row.stats.fusedOps,
                      row.stats.gatesFused, row.lintErrors, row.lintWarnings);
        out += buf;
    }
    char summary[192];
    std::snprintf(summary, sizeof summary,
                  "],\"summary\":{\"netlists\":%zu,\"programs\":%zu,\"errors\":%zu,"
                  "\"warnings\":%zu}}\n",
                  tally.netlists, tally.programs, tally.errors, tally.warnings);
    out += summary;
    std::fputs(out.c_str(), stdout);
}

void printDiagnostics(const std::string& subject, const Diagnostics& diags,
                      const CliOptions& cli) {
    for (const auto& d : diags.all()) {
        if (cli.quiet && d.severity == axf::verify::Severity::Info) continue;
        std::fprintf(stderr, "%s: %s [%s %s]", subject.c_str(), d.message.c_str(),
                     axf::verify::ruleId(d.rule), axf::verify::severityName(d.severity));
        if (d.where != axf::verify::kNoLocation) std::fprintf(stderr, " @%u", d.where);
        std::fprintf(stderr, "\n");
    }
    if (diags.truncated())
        std::fprintf(stderr, "%s: ... further findings suppressed\n", subject.c_str());
}

void checkNetlist(const std::string& subject, const Netlist& netlist, const CliOptions& cli,
                  Tally& tally) {
    axf::verify::LintOptions lintOptions;
    lintOptions.maxDiagnostics = cli.maxDiagnostics;
    const Diagnostics lint = axf::verify::lintNetlist(netlist, lintOptions);
    ++tally.netlists;
    tally.errors += lint.errorCount();
    tally.warnings += lint.warningCount();
    printDiagnostics(subject, lint, cli);

    if ((!cli.verifyPrograms && !cli.showStats) || lint.hasErrors()) return;
    const CompiledNetlist compiled = CompiledNetlist::compile(netlist);
    if (cli.showStats) {
        const CompiledNetlist::Stats s = compiled.stats();
        if (cli.json) {
            tally.statsRows.push_back(
                StatsRow{subject, s, lint.errorCount(), lint.warningCount()});
        } else {
            std::printf(
                "%s: backend=%s instrs=%zu runs=%zu longest=%zu fused=%zu "
                "gates-folded=%zu\n",
                subject.c_str(), s.backend, s.instructions, s.runs, s.longestRun, s.fusedOps,
                s.gatesFused);
        }
    }
    if (!cli.verifyPrograms) return;
    axf::verify::VerifyOptions verifyOptions;
    verifyOptions.maxDiagnostics = cli.maxDiagnostics;
    const Diagnostics prog = axf::verify::verifyProgram(compiled, &netlist, verifyOptions);
    ++tally.programs;
    tally.errors += prog.errorCount();
    tally.warnings += prog.warningCount();
    printDiagnostics(subject + " [compiled]", prog, cli);
}

int auditCheckpointFile(const std::string& path, const CliOptions& cli, Tally& tally) {
    const axf::durable::CheckpointAudit audit =
        axf::durable::auditCheckpoint(path, cli.expectDigest);
    if (audit.ok) {
        if (!cli.quiet)
            std::printf("%s: ok (version %u, digest %016llx, %llu payload bytes)\n",
                        path.c_str(), audit.version,
                        static_cast<unsigned long long>(audit.digest),
                        static_cast<unsigned long long>(audit.payloadBytes));
    } else {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), audit.message.c_str());
        ++tally.errors;
    }
    return 0;
}

int lintLibrary(const CliOptions& cli, Tally& tally) {
    axf::gen::LibraryConfig config;
    config.op = cli.library == "adder" ? axf::circuit::ArithOp::Adder
                                       : axf::circuit::ArithOp::Multiplier;
    config.width = cli.width;
    config.structuralOnly = !cli.full;
    config.cancel = &axf::util::signalToken();
    const axf::gen::AcLibrary library = cli.full ? axf::gen::buildLibrary(config)
                                                 : axf::gen::buildStructuralFamilies(config);
    for (const auto& entry : library)
        checkNetlist(entry.name.empty() ? entry.origin : entry.name, entry.netlist, cli, tally);
    if (!cli.quiet)
        std::fprintf(stderr, "axf-lint: %zu %s-library netlists checked\n", library.size(),
                     cli.library.c_str());
    return 0;
}

int lintCacheDirectory(const CliOptions& cli, Tally& tally) {
    axf::cache::CharacterizationCache::Options options;
    options.directory = cli.cacheDirectory;
    axf::cache::CharacterizationCache cache(options);
    std::size_t blobs = 0;
    cache.forEachEntry([&](const axf::cache::CacheKey& key,
                           const std::vector<std::uint8_t>& payload) {
        if (key.kind != static_cast<std::uint32_t>(axf::cache::PayloadKind::Blob)) return;
        // Netlist blobs are hash-prefixed (see putNetlist); anything that
        // does not decode as one is some other blob family — not ours to
        // judge.
        axf::util::ByteReader reader(payload);
        std::uint64_t storedHash = 0;
        if (!reader.u64(storedHash)) return;
        std::optional<Netlist> net = Netlist::deserialize(reader);
        if (!net) return;
        ++blobs;
        char subject[64];
        std::snprintf(subject, sizeof subject, "cache blob %016llx",
                      static_cast<unsigned long long>(key.structuralHash));
        if (net->structuralHash() != storedHash) {
            std::fprintf(stderr, "%s: embedded hash disagrees with the payload\n", subject);
            ++tally.errors;
        }
        checkNetlist(subject, *net, cli, tally);
    });
    if (!cli.quiet)
        std::fprintf(stderr, "axf-lint: %zu cached netlist blob(s) checked in %s\n", blobs,
                     cli.cacheDirectory.c_str());
    return 0;
}

int lintFile(const std::string& path, const CliOptions& cli, Tally& tally) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "axf-lint: cannot open %s\n", path.c_str());
        return 2;
    }
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                          std::istreambuf_iterator<char>());
    axf::util::ByteReader reader(bytes);
    std::optional<Netlist> net = Netlist::deserialize(reader);
    if (!net) {
        std::fprintf(stderr, "%s: not a serialized netlist (or invariant-breaking)\n",
                     path.c_str());
        ++tally.errors;
        return 0;
    }
    checkNetlist(path, *net, cli, tally);
    return 0;
}

int usage() {
    std::fprintf(stderr,
                 "usage: axf-lint [--library adder|multiplier] [--width N] [--full]\n"
                 "                [--cache DIR] [--audit-checkpoint FILE]\n"
                 "                [--expect-digest HEX] [--werror] [--quiet]\n"
                 "                [--no-verify] [--stats] [--json] [--max-diag N] [FILE...]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    CliOptions cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--library") {
            const char* v = next();
            if (v == nullptr || (std::strcmp(v, "adder") != 0 && std::strcmp(v, "multiplier") != 0))
                return usage();
            cli.library = v;
        } else if (arg == "--width") {
            const char* v = next();
            if (v == nullptr || std::atoi(v) <= 0) return usage();
            cli.width = std::atoi(v);
        } else if (arg == "--full") {
            cli.full = true;
        } else if (arg == "--cache") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.cacheDirectory = v;
        } else if (arg == "--audit-checkpoint") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.auditCheckpoints.push_back(v);
        } else if (arg == "--expect-digest") {
            const char* v = next();
            if (v == nullptr) return usage();
            char* end = nullptr;
            const unsigned long long digest = std::strtoull(v, &end, 16);
            if (end == v || *end != '\0') return usage();
            cli.expectDigest = static_cast<std::uint64_t>(digest);
        } else if (arg == "--werror") {
            cli.werror = true;
        } else if (arg == "--quiet") {
            cli.quiet = true;
        } else if (arg == "--no-verify") {
            cli.verifyPrograms = false;
        } else if (arg == "--stats") {
            cli.showStats = true;
        } else if (arg == "--json") {
            // --json implies --stats: the document IS the stats output.
            cli.json = true;
            cli.showStats = true;
        } else if (arg == "--max-diag") {
            const char* v = next();
            if (v == nullptr || std::atoi(v) <= 0) return usage();
            cli.maxDiagnostics = static_cast<std::size_t>(std::atoi(v));
        } else if (arg == "--help" || arg == "-h") {
            return usage();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            cli.files.push_back(arg);
        }
    }
    if (cli.library.empty() && cli.cacheDirectory.empty() && cli.auditCheckpoints.empty() &&
        cli.files.empty())
        return usage();

    Tally tally;
    try {
        if (!cli.library.empty()) lintLibrary(cli, tally);
        if (!cli.cacheDirectory.empty()) lintCacheDirectory(cli, tally);
        for (const std::string& file : cli.auditCheckpoints)
            auditCheckpointFile(file, cli, tally);
        for (const std::string& file : cli.files) {
            const int rc = lintFile(file, cli, tally);
            if (rc != 0) return rc;
        }
    } catch (const axf::util::OperationCancelled&) {
        std::fprintf(stderr, "axf-lint: interrupted\n");
        return axf::util::kCancelledExitCode;
    }

    if (cli.json) printStatsJson(tally);
    if (!cli.quiet)
        std::fprintf(stderr, "axf-lint: %zu netlist(s), %zu program(s): %zu error(s), %zu warning(s)\n",
                     tally.netlists, tally.programs, tally.errors, tally.warnings);
    if (tally.errors != 0) return 1;
    if (cli.werror && tally.warnings != 0) return 1;
    return 0;
}
