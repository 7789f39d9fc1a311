#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>

namespace axf::search {

/// Small fixed-capacity objective vector (all objectives MINIMIZED by
/// convention — adapters negate quality-like metrics).  Inline storage so
/// archive inserts and dominance scans never allocate; every entry of one
/// archive carries the same objective count.
class Objectives {
public:
    static constexpr std::size_t kMaxObjectives = 4;

    Objectives() = default;
    Objectives(std::initializer_list<double> values) {
        if (values.size() > kMaxObjectives)
            throw std::invalid_argument("Objectives: too many objectives");
        for (double v : values) values_[size_++] = v;
    }
    explicit Objectives(std::span<const double> values) {
        if (values.size() > kMaxObjectives)
            throw std::invalid_argument("Objectives: too many objectives");
        for (double v : values) values_[size_++] = v;
    }

    std::size_t size() const { return size_; }
    double operator[](std::size_t i) const { return values_[i]; }
    double& operator[](std::size_t i) { return values_[i]; }

    // Unused tail slots are value-initialized, so whole-array comparison
    // is well-defined.
    friend bool operator==(const Objectives&, const Objectives&) = default;

private:
    std::array<double, kMaxObjectives> values_{};
    std::size_t size_ = 0;
};

/// Pareto dominance over minimized objectives: `a` dominates `b` when no
/// objective of `a` exceeds `b`'s and at least one is strictly smaller.
inline bool dominates(const Objectives& a, const Objectives& b) {
    bool strict = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] > b[i]) return false;
        if (a[i] < b[i]) strict = true;
    }
    return strict;
}

}  // namespace axf::search
