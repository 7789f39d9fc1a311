#include <algorithm>
#include <cmath>

#include "src/ml/models.hpp"
#include "src/util/stats.hpp"

namespace axf::ml {

namespace {

double rbf(std::span<const double> a, std::span<const double> b, double gamma) {
    return std::exp(-gamma * squaredDistance(a, b));
}

/// Median pairwise squared distance heuristic for the RBF length scale.
double medianGamma(const Matrix& x) {
    std::vector<double> d2;
    const std::size_t n = x.rows();
    const std::size_t step = std::max<std::size_t>(1, n / 64);  // subsample pairs
    for (std::size_t i = 0; i < n; i += step)
        for (std::size_t j = i + 1; j < n; j += step)
            d2.push_back(squaredDistance(x.row(i), x.row(j)));
    const double med = util::median(std::move(d2));
    return med > 1e-12 ? 1.0 / med : 1.0;
}

}  // namespace

void KernelRidge::fit(const Matrix& x, const Vector& y) {
    trainX_ = x;
    yMean_ = util::mean(y);
    gammaUsed_ = gamma_ > 0.0 ? gamma_ : medianGamma(x);

    const std::size_t n = x.rows();
    Matrix k(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            const double v = rbf(x.row(i), x.row(j), gammaUsed_);
            k.at(i, j) = v;
            k.at(j, i) = v;
        }
        k.at(i, i) += alpha_;
    }
    Vector yc(n);
    for (std::size_t i = 0; i < n; ++i) yc[i] = y[i] - yMean_;
    dual_ = solveSpd(std::move(k), std::move(yc));
}

double KernelRidge::predict(std::span<const double> x) const {
    double acc = yMean_;
    for (std::size_t i = 0; i < trainX_.rows(); ++i)
        acc += dual_[i] * rbf(trainX_.row(i), x, gammaUsed_);
    return acc;
}

}  // namespace axf::ml
