#pragma once

// Benchmark-side spans: wall-clock intervals recorded around calls into
// the program's layers, from the benchmark's own code and on its main
// thread only.  Written as Chrome trace-event JSON (the same format as the
// program's AXF_TRACE output) so trace_summary.py reads both.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t nowNs() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

class SpanLog {
public:
    SpanLog() : originNs_(nowNs()) {}

    void record(std::string name, std::uint64_t beginNs, std::uint64_t endNs) {
        events_.push_back({std::move(name), beginNs, endNs});
    }

    /// Writes `{"traceEvents":[...]}` with microsecond timestamps relative
    /// to the log's creation.  Returns false when the file cannot be written.
    bool write(const std::string& path) const {
        std::ofstream out(path);
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < events_.size(); ++i) {
            const Event& e = events_[i];
            char num[96];
            std::snprintf(num, sizeof num, "\"ts\":%.3f,\"dur\":%.3f",
                          static_cast<double>(e.beginNs - originNs_) / 1000.0,
                          static_cast<double>(e.endNs - e.beginNs) / 1000.0);
            out << (i ? "," : "") << "{\"name\":\"" << e.name
                << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,\"tid\":0," << num << "}";
        }
        out << "],\"displayTimeUnit\":\"ms\"}\n";
        return static_cast<bool>(out.flush());
    }

private:
    struct Event {
        std::string name;
        std::uint64_t beginNs = 0;
        std::uint64_t endNs = 0;
    };
    std::uint64_t originNs_;
    std::vector<Event> events_;
};

/// RAII span; a null log makes it a no-op, which is how untraced passes
/// run the same code as traced ones.  `seconds()` reads the elapsed time
/// so far whether or not a log is attached.
class Span {
public:
    Span(SpanLog* log, const char* name) : log_(log), name_(name), beginNs_(nowNs()) {}
    ~Span() {
        if (log_ != nullptr) log_->record(name_, beginNs_, nowNs());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    double seconds() const { return static_cast<double>(nowNs() - beginNs_) * 1e-9; }

private:
    SpanLog* log_;
    const char* name_;
    std::uint64_t beginNs_;
};

}  // namespace perfbench
