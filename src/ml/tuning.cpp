#include "src/ml/tuning.hpp"

namespace axf::ml {

std::vector<ModelVariant> hyperparameterGrid(const std::string& modelId,
                                             const AsicColumns& asic) {
    return findModel(tableOneModels(asic), modelId).grid;
}

TunedModel fitBestVariant(std::span<const ModelVariant> variants, const Matrix& xTrain,
                          const Vector& yTrain, const Matrix& xVal, const Vector& yVal,
                          const std::function<double(const Vector&, const Vector&)>& score) {
    TunedModel best;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        RegressorPtr model = variants[i].make();
        model->fit(xTrain, yTrain);
        const double s = score(yVal, model->predictAll(xVal));
        if (i == 0 || s > best.validationScore)
            best = TunedModel{variants[i].description, variants[i].make, s};
    }
    return best;
}

TunedModel tuneModel(const std::string& modelId, const AsicColumns& asic, const Matrix& xTrain,
                     const Vector& yTrain, const Matrix& xVal, const Vector& yVal,
                     const std::function<double(const Vector&, const Vector&)>& score) {
    return fitBestVariant(hyperparameterGrid(modelId, asic), xTrain, yTrain, xVal, yVal, score);
}

}  // namespace axf::ml
