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

/// Validation score of one variant: a fresh model fitted on (xTrain,
/// yTrain), scored as `score(yVal, predictions on xVal)`.  A pure function
/// of its arguments, so variants may be scored concurrently.
double scoreVariant(const ModelVariant& variant, const Matrix& xTrain, const Vector& yTrain,
                    const Matrix& xVal, const Vector& yVal,
                    const std::function<double(const Vector&, const Vector&)>& score);

/// The best of `variants` (non-empty) given `scores[i]`, the validation
/// score of `variants[i]`.  Ties resolve to the earlier variant: a later
/// one wins only with a strictly higher score.
TunedModel bestVariant(std::span<const ModelVariant> variants, std::span<const double> scores);

/// Scores every variant of the model's grid in order and keeps the
/// `bestVariant`.
TunedModel tuneModel(const std::string& modelId, const AsicColumns& asic, const Matrix& xTrain,
                     const Vector& yTrain, const Matrix& xVal, const Vector& yVal,
                     const std::function<double(const Vector&, const Vector&)>& score);

}  // namespace axf::ml
