#pragma once

#include <functional>
#include <span>
#include <vector>

#include "src/ml/registry.hpp"

namespace axf::ml {

/// The hyperparameter grid of one Table-I model (`ModelSpec::grid`);
/// throws std::out_of_range for unknown ids.
std::vector<ModelVariant> hyperparameterGrid(const std::string& modelId,
                                             const AsicColumns& asic);

/// The variant a validation score selected.
struct TunedModel {
    std::string variantDescription;
    std::function<RegressorPtr()> make;
    double validationScore = 0.0;
};

/// Fits every entry of `variants` (non-empty) on (xTrain, yTrain) and
/// keeps the one whose validation predictions maximize `score(yVal,
/// yEst)` — the flow passes the fidelity metric here.  Ties resolve to
/// the earlier variant: a later one wins only with a strictly higher score.
TunedModel fitBestVariant(std::span<const ModelVariant> variants, const Matrix& xTrain,
                          const Vector& yTrain, const Matrix& xVal, const Vector& yVal,
                          const std::function<double(const Vector&, const Vector&)>& score);

/// `fitBestVariant` over the model's whole grid.
TunedModel tuneModel(const std::string& modelId, const AsicColumns& asic, const Matrix& xTrain,
                     const Vector& yTrain, const Matrix& xVal, const Vector& yVal,
                     const std::function<double(const Vector&, const Vector&)>& score);

}  // namespace axf::ml
