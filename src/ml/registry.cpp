#include "src/ml/registry.hpp"

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <stdexcept>

#include "src/ml/models.hpp"

namespace axf::ml {

namespace {

template <typename Model, typename... Args>
std::function<RegressorPtr()> plain(const Args&... args) {
    return [=] { return RegressorPtr(std::make_unique<Model>(args...)); };
}

/// A model fitted on standardized features.
template <typename Model, typename... Args>
std::function<RegressorPtr()> scaled(const Args&... args) {
    return [=] {
        return RegressorPtr(std::make_unique<ScaledRegressor>(std::make_unique<Model>(args...)));
    };
}

/// A model without knobs: its grid is the single "default" variant.
ModelSpec fixed(std::string id, std::string name, std::function<RegressorPtr()> make) {
    return ModelSpec{std::move(id), std::move(name), {{"default", make}}, 0, make};
}

/// A model whose grid sweeps one knob over `values`, described as
/// "knob=value"; `defaultValue` (one of `values`) is the Table-I default.
template <typename T, typename Make>
ModelSpec sweep(std::string id, std::string name, const std::string& knob,
                std::initializer_list<T> values, T defaultValue, const Make& make) {
    ModelSpec spec{std::move(id), std::move(name), {}, 0, {}};
    for (const T value : values)
        spec.grid.push_back({knob + "=" + std::to_string(value), make(value)});
    spec.defaultVariant = static_cast<std::size_t>(
        std::find(values.begin(), values.end(), defaultValue) - values.begin());
    spec.make = spec.grid.at(spec.defaultVariant).make;
    return spec;
}

}  // namespace

std::vector<ModelSpec> tableOneModels(const AsicColumns& asic) {
    std::vector<ModelSpec> specs;
    specs.push_back(fixed("ML1", "Regression w.r.t ASIC-AC Power",
                          plain<SingleFeatureRegression>(asic.power)));
    specs.push_back(fixed("ML2", "Regression w.r.t ASIC-AC Latency",
                          plain<SingleFeatureRegression>(asic.delay)));
    specs.push_back(fixed("ML3", "Regression w.r.t ASIC-AC Area",
                          plain<SingleFeatureRegression>(asic.area)));
    specs.push_back(sweep("ML4", "PLS Regression", "components", {2, 4, 6}, 4,
                          [](int c) { return scaled<PlsRegression>(c); }));
    specs.push_back(sweep("ML5", "Random Forest", "trees", {20, 40, 80}, 40, [](int trees) {
        RandomForest::Params p;
        p.trees = trees;
        return plain<RandomForest>(p);
    }));
    specs.push_back(sweep("ML6", "Gradient Boosting", "lr", {0.05, 0.08, 0.15}, 0.08,
                          [](double lr) {
                              GradientBoosting::Params p;
                              p.learningRate = lr;
                              return plain<GradientBoosting>(p);
                          }));
    specs.push_back(sweep("ML7", "Adaptive Boosting (AdaBoost)", "depth", {3, 4, 6}, 4,
                          [](int depth) {
                              AdaBoostR2::Params p;
                              p.maxDepth = depth;
                              return plain<AdaBoostR2>(p);
                          }));
    specs.push_back(sweep("ML8", "Gaussian Process", "noise", {0.01, 0.05, 0.2}, 0.05,
                          [](double noise) { return scaled<KernelRidge>(noise); }));
    specs.push_back(sweep("ML9", "Symbolic Regression", "generations", {16, 28}, 28,
                          [](int generations) {
                              SymbolicRegression::Params p;
                              p.generations = generations;
                              return scaled<SymbolicRegression>(p);
                          }));
    specs.push_back(sweep("ML10", "Kernel Ridge", "alpha", {0.01, 0.08, 0.5}, 0.08,
                          [](double alpha) { return scaled<KernelRidge>(alpha); }));
    specs.push_back(sweep("ML11", "Bayesian Ridge", "iterations", {10, 30}, 30,
                          [](int iterations) { return scaled<BayesianRidge>(iterations); }));
    specs.push_back(sweep("ML12", "Coordinate Descent (Lasso)", "alpha", {0.001, 0.01, 0.1}, 0.01,
                          [](double alpha) { return scaled<LassoRegression>(alpha); }));
    specs.push_back(sweep("ML13", "Least Angle Regression", "maxActive", {0, 6, 10}, 0,
                          [](int active) { return scaled<LarsRegression>(active); }));
    specs.push_back(sweep("ML14", "Ridge Regression", "alpha", {0.1, 1.0, 10.0}, 1.0,
                          [](double alpha) { return scaled<RidgeRegression>(alpha); }));
    specs.push_back(sweep("ML15", "Stochastic Gradient Descent", "eta0", {0.005, 0.02, 0.05}, 0.02,
                          [](double eta) { return scaled<SgdRegressor>(120, eta); }));
    specs.push_back(sweep("ML16", "K-Nearest Neighbours", "k", {3, 5, 9}, 5,
                          [](int k) { return scaled<KnnRegressor>(k); }));
    specs.push_back(sweep("ML17", "Multi-Layer Perceptron (MLP)", "hidden", {8, 16, 32}, 16,
                          [](int hidden) {
                              MlpRegressor::Params p;
                              p.hidden = hidden;
                              return scaled<MlpRegressor>(p);
                          }));
    specs.push_back(sweep("ML18", "Decision Tree", "depth", {6, 10, 14}, 10, [](int depth) {
        DecisionTree::Params p;
        p.maxDepth = depth;
        return plain<DecisionTree>(p);
    }));
    return specs;
}

const ModelSpec& findModel(const std::vector<ModelSpec>& specs, const std::string& id) {
    for (const ModelSpec& spec : specs)
        if (spec.id == id) return spec;
    throw std::out_of_range("findModel: unknown model id " + id);
}

}  // namespace axf::ml
