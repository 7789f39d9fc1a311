#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/ml/regressor.hpp"

namespace axf::ml {

/// Feature-vector positions of the known ASIC metrics (appended to the
/// structural features by the core layer); models ML1-ML3 regress against
/// exactly one of these columns.
struct AsicColumns {
    std::size_t area = 0;
    std::size_t delay = 0;
    std::size_t power = 0;
};

/// One hyperparameter variant of a Table-I model.
struct ModelVariant {
    std::string description;  ///< e.g. "alpha=0.100000"; "default" for knob-free models
    std::function<RegressorPtr()> make;
};

/// One Table-I entry: stable id ("ML11"), human-readable name, and the
/// small hyperparameter grid behind the paper's "modification of ML
/// parameters" loop (Fig. 2).  The model's Table-I default is one named
/// member of that grid.
struct ModelSpec {
    std::string id;
    std::string name;
    std::vector<ModelVariant> grid;
    std::size_t defaultVariant = 0;  ///< index of the Table-I default in `grid`
    std::function<RegressorPtr()> make;  ///< `grid[defaultVariant].make`
};

/// The 18 statistical/ML models of Table I, in paper order ML1..ML18.
std::vector<ModelSpec> tableOneModels(const AsicColumns& asic);

/// Lookup by id; throws std::out_of_range for unknown ids.
const ModelSpec& findModel(const std::vector<ModelSpec>& specs, const std::string& id);

}  // namespace axf::ml
