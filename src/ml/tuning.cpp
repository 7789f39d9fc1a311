#include "src/ml/tuning.hpp"

namespace axf::ml {

std::vector<ModelVariant> hyperparameterGrid(const std::string& modelId,
                                             const AsicColumns& asic) {
    return findModel(tableOneModels(asic), modelId).grid;
}

double scoreVariant(const ModelVariant& variant, const Matrix& xTrain, const Vector& yTrain,
                    const Matrix& xVal, const Vector& yVal,
                    const std::function<double(const Vector&, const Vector&)>& score) {
    RegressorPtr model = variant.make();
    model->fit(xTrain, yTrain);
    return score(yVal, model->predictAll(xVal));
}

TunedModel bestVariant(std::span<const ModelVariant> variants, std::span<const double> scores) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < variants.size(); ++i)
        if (scores[i] > scores[best]) best = i;
    return TunedModel{variants[best].description, variants[best].make, scores[best]};
}

TunedModel tuneModel(const std::string& modelId, const AsicColumns& asic, const Matrix& xTrain,
                     const Vector& yTrain, const Matrix& xVal, const Vector& yVal,
                     const std::function<double(const Vector&, const Vector&)>& score) {
    const std::vector<ModelVariant> grid = hyperparameterGrid(modelId, asic);
    std::vector<double> scores(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        scores[i] = scoreVariant(grid[i], xTrain, yTrain, xVal, yVal, score);
    return bestVariant(grid, scores);
}

}  // namespace axf::ml
