#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/search/objectives.hpp"
#include "src/util/select.hpp"

namespace axf::search {

/// Non-dominated archive over any genome type — the generalization of the
/// 2-objective `ArchiveEntry` archive that used to live inside the AutoAx
/// DSE, now k-objective (up to `Objectives::kMaxObjectives`, all
/// minimized).
///
/// Semantics (kept bit-compatible with the legacy `archiveInsert` for 2
/// objectives):
///  - a candidate equal (by `operator==`) to an archived genome is
///    rejected;
///  - a candidate dominated by any archived entry is rejected;
///  - an accepted candidate erases every entry it dominates and is
///    appended, so entry order is insertion order compacted by erasures;
///  - when a nonzero `cap` overflows, entries are sorted along the LAST
///    objective axis (the cost-like axis by convention) and thinned
///    uniformly with the endpoint-exact stride (`util::thinUniform`), so
///    both extremes always survive.
///
/// The archive is a plain value type: copying it snapshots a search state
/// (island migration does exactly that), and no member allocates beyond
/// the entry vector.
template <typename Genome>
class ParetoArchive {
public:
    struct Entry {
        Genome genome;
        Objectives objectives;
    };

    ParetoArchive() = default;
    explicit ParetoArchive(std::size_t cap) : cap_(cap) {}

    std::size_t cap() const { return cap_; }
    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    const std::vector<Entry>& entries() const { return entries_; }
    const Entry& operator[](std::size_t i) const { return entries_[i]; }

    /// Inserts a candidate under the rules above; returns true when the
    /// candidate entered the archive.
    bool insert(Genome genome, const Objectives& objectives) {
        for (const Entry& e : entries_) {
            if (e.genome == genome) return false;  // already archived
            if (dominates(e.objectives, objectives)) return false;
        }
        std::erase_if(entries_, [&](const Entry& e) {
            return dominates(objectives, e.objectives);
        });
        entries_.push_back(Entry{std::move(genome), objectives});
        if (cap_ > 0 && entries_.size() > cap_) thin();
        return true;
    }

    /// Inserts every entry of `other` in its order (block-ordered merges
    /// over islands call this island by island).
    void merge(const ParetoArchive& other) {
        for (const Entry& e : other.entries_) insert(e.genome, e.objectives);
    }

    /// Adopt `entries` verbatim as the archive contents — the checkpoint
    /// restore path.  Bypasses insert(): a snapshot is by construction
    /// mutually non-dominated, so replaying it would only redo the
    /// dominance scans.  Entry order is preserved (it is part of search
    /// state).
    void restoreEntries(std::vector<Entry> entries) { entries_ = std::move(entries); }

private:
    void thin() {
        const std::size_t axis = entries_.front().objectives.size() - 1;
        std::sort(entries_.begin(), entries_.end(), [axis](const Entry& a, const Entry& b) {
            return a.objectives[axis] < b.objectives[axis];
        });
        util::thinUniform(entries_, cap_);
    }

    std::vector<Entry> entries_;
    std::size_t cap_ = 0;
};

}  // namespace axf::search
