#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/ml/regressor.hpp"
#include "src/util/rng.hpp"

namespace axf::ml {

// ---------------------------------------------------------------------------
// Linear family
// ---------------------------------------------------------------------------

/// Ridge regression (ML14) in closed form over an intercept-augmented
/// design matrix; alpha -> 0 degenerates to ordinary least squares.
class RidgeRegression : public Regressor {
public:
    explicit RidgeRegression(double alpha = 1.0) : alpha_(alpha) {}
    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

    const Vector& weights() const { return weights_; }  ///< last entry = bias

private:
    double alpha_;
    Vector weights_;
};

/// ML1-ML3: ordinary regression of the FPGA parameter against a *single*
/// known ASIC metric column (power/latency/area) of the feature vector.
class SingleFeatureRegression final : public Regressor {
public:
    explicit SingleFeatureRegression(std::size_t column) : column_(column) {}
    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    std::size_t column_;
    double intercept_ = 0.0;
    double slope_ = 0.0;
};

/// Bayesian ridge regression (ML11): evidence-approximation iteration over
/// the noise precision alpha and weight precision lambda (sklearn-style).
class BayesianRidge final : public Regressor {
public:
    explicit BayesianRidge(int iterations = 30) : iterations_(iterations) {}
    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    int iterations_;
    Vector weights_;
    double bias_ = 0.0;
};

/// Lasso (ML12): L1-regularized least squares by cyclic coordinate descent
/// on centered data.
class LassoRegression final : public Regressor {
public:
    explicit LassoRegression(double alpha = 0.01, int iterations = 400)
        : alpha_(alpha), iterations_(iterations) {}
    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    double alpha_;
    int iterations_;
    Vector weights_;
    double bias_ = 0.0;
};

/// Least-angle regression (ML13): the classic equiangular-direction path,
/// stopped after `maxActive` predictors (full OLS when unrestricted).
class LarsRegression final : public Regressor {
public:
    explicit LarsRegression(int maxActive = 0) : maxActive_(maxActive) {}
    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    int maxActive_;
    Vector weights_;
    double bias_ = 0.0;
    Vector mean_;
};

/// Linear model trained by stochastic gradient descent (ML15) with an
/// inverse-scaling learning-rate schedule.  Expects standardized features
/// (the registry wraps it in ScaledRegressor).
class SgdRegressor final : public Regressor {
public:
    SgdRegressor(int epochs = 120, double eta0 = 0.02, double l2 = 1e-4,
                 std::uint64_t seed = 15)
        : epochs_(epochs), eta0_(eta0), l2_(l2), seed_(seed) {}
    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    int epochs_;
    double eta0_;
    double l2_;
    std::uint64_t seed_;
    Vector weights_;
    double bias_ = 0.0;
};

/// Partial least squares PLS1 (ML4) via NIPALS with deflation.
class PlsRegression final : public Regressor {
public:
    explicit PlsRegression(int components = 4) : components_(components) {}
    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    int components_;
    Vector weights_;  ///< collapsed to an equivalent linear model
    double bias_ = 0.0;
};

// ---------------------------------------------------------------------------
// Kernel family
// ---------------------------------------------------------------------------

/// Kernel ridge regression (ML10) with an RBF kernel; the length scale
/// defaults to the median pairwise distance heuristic.  ML8's Gaussian
/// process is the same predictor: its posterior mean under a white-noise
/// term `noise` is kernel ridge with `alpha = noise`.
class KernelRidge final : public Regressor {
public:
    explicit KernelRidge(double alpha = 0.08, double gamma = 0.0)
        : alpha_(alpha), gamma_(gamma) {}
    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    double alpha_;
    double gamma_;  ///< 0 = median heuristic
    Matrix trainX_;
    Vector dual_;
    double yMean_ = 0.0;
    double gammaUsed_ = 1.0;
};

// ---------------------------------------------------------------------------
// Instance / tree / ensemble family
// ---------------------------------------------------------------------------

/// Distance-weighted k-nearest-neighbour regression (ML16).
class KnnRegressor final : public Regressor {
public:
    explicit KnnRegressor(int k = 5) : k_(k) {}
    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    int k_;
    Matrix trainX_;
    Vector trainY_;
};

/// CART regression tree (ML18): variance-reduction splits, depth and
/// minimum-leaf bounds, optional per-split feature subsampling (used by
/// the forest).
class DecisionTree final : public Regressor {
public:
    struct Params {
        int maxDepth = 10;
        int minSamplesLeaf = 2;
        int featuresPerSplit = 0;  ///< 0 = all features
        std::uint64_t seed = 18;
    };

    DecisionTree() = default;
    explicit DecisionTree(Params params) : params_(params) {}

    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

    /// Fits on a row subset (bootstrap support for ensembles).
    void fitSubset(const Matrix& x, const Vector& y, const std::vector<std::size_t>& rows);

private:
    struct Node {
        int feature = -1;  ///< -1 = leaf
        double threshold = 0.0;
        double value = 0.0;
        int left = -1;
        int right = -1;
    };
    Params params_{};
    std::vector<Node> nodes_;

    int build(const Matrix& x, const Vector& y, std::vector<std::size_t>& rows, int depth,
              util::Rng& rng);
};

/// Bagged forest of decision trees (ML5).
class RandomForest final : public Regressor {
public:
    struct Params {
        int trees = 40;
        DecisionTree::Params tree{};
        std::uint64_t seed = 5;
    };
    RandomForest() = default;
    explicit RandomForest(Params params) : params_(params) {}

    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    Params params_{};
    std::vector<DecisionTree> trees_;
};

/// Least-squares gradient boosting over shallow trees (ML6).
class GradientBoosting final : public Regressor {
public:
    struct Params {
        int stages = 120;
        double learningRate = 0.08;
        int maxDepth = 3;
        std::uint64_t seed = 6;
    };
    GradientBoosting() = default;
    explicit GradientBoosting(Params params) : params_(params) {}

    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    Params params_{};
    double base_ = 0.0;
    std::vector<DecisionTree> stages_;
};

/// AdaBoost.R2 (ML7, Drucker 1997): weighted resampling of weak tree
/// learners with weighted-median aggregation.
class AdaBoostR2 final : public Regressor {
public:
    struct Params {
        int stages = 40;
        int maxDepth = 4;
        std::uint64_t seed = 7;
    };
    AdaBoostR2() = default;
    explicit AdaBoostR2(Params params) : params_(params) {}

    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    Params params_{};
    std::vector<DecisionTree> stages_;
    Vector stageWeights_;  ///< ln(1/beta)
};

// ---------------------------------------------------------------------------
// Neural / symbolic
// ---------------------------------------------------------------------------

/// One-hidden-layer multi-layer perceptron (ML17): tanh units trained with
/// Adam on standardized features and a normalized target.
class MlpRegressor final : public Regressor {
public:
    struct Params {
        int hidden = 16;
        int epochs = 400;
        double learningRate = 0.01;
        std::uint64_t seed = 17;
    };
    MlpRegressor() = default;
    explicit MlpRegressor(Params params) : params_(params) {}

    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

private:
    Params params_{};
    Matrix w1_;   // hidden x d
    Vector b1_;
    Vector w2_;   // hidden
    double b2_ = 0.0;
    double yMean_ = 0.0;
    double yScale_ = 1.0;
};

/// Symbolic regression (ML9): genetic programming over arithmetic
/// expression trees with linear output scaling.
class SymbolicRegression final : public Regressor {
public:
    struct Params {
        int population = 96;
        int generations = 28;
        int maxDepth = 5;
        int tournament = 4;
        std::uint64_t seed = 9;
    };
    SymbolicRegression();
    explicit SymbolicRegression(Params params);
    ~SymbolicRegression() override;
    SymbolicRegression(SymbolicRegression&&) noexcept;
    SymbolicRegression& operator=(SymbolicRegression&&) noexcept;

    void fit(const Matrix& x, const Vector& y) override;
    double predict(std::span<const double> x) const override;

    /// Printable form of the evolved expression (after fit()).
    std::string expression() const;

private:
    struct Impl;
    Params params_{};
    std::unique_ptr<Impl> impl_;
};

}  // namespace axf::ml
