#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/ml/models.hpp"
#include "src/ml/registry.hpp"
#include "src/ml/tuning.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

namespace axf::ml {
namespace {

/// Synthetic regression task: nonlinear signal with three extra columns
/// that act like the appended ASIC metrics (noisy views of the target).
struct Task {
    Matrix xTrain, xTest;
    Vector yTrain, yTest;
    static constexpr std::size_t kDims = 6;

    static Task make(std::uint64_t seed) {
        util::Rng rng(seed);
        const std::size_t n = 240;
        Matrix x(n, kDims);
        Vector y(n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < 3; ++c) x.at(r, c) = rng.uniformReal(0.0, 10.0);
            const double t = 3.0 * x.at(r, 0) + 0.4 * x.at(r, 1) * x.at(r, 1) +
                             2.0 * std::sqrt(x.at(r, 2) + 1.0) + rng.gaussian(0.0, 0.8);
            x.at(r, 3) = 0.8 * t + rng.gaussian(0.0, 2.0);
            x.at(r, 4) = 0.5 * t + rng.gaussian(0.0, 4.0);
            x.at(r, 5) = 1.2 * t + rng.gaussian(0.0, 1.0);
            y[r] = t;
        }
        Task task;
        const std::size_t split = 180;
        task.xTrain = Matrix(split, kDims);
        task.yTrain.resize(split);
        task.xTest = Matrix(n - split, kDims);
        task.yTest.resize(n - split);
        for (std::size_t r = 0; r < split; ++r) {
            for (std::size_t c = 0; c < kDims; ++c) task.xTrain.at(r, c) = x.at(r, c);
            task.yTrain[r] = y[r];
        }
        for (std::size_t r = split; r < n; ++r) {
            for (std::size_t c = 0; c < kDims; ++c) task.xTest.at(r - split, c) = x.at(r, c);
            task.yTest[r - split] = y[r];
        }
        return task;
    }
};

class AllTableOneModels : public ::testing::TestWithParam<std::string> {};

TEST_P(AllTableOneModels, LearnsMonotonicSignal) {
    const Task task = Task::make(0x7A5);
    const std::vector<ModelSpec> specs = tableOneModels(AsicColumns{3, 4, 5});
    const ModelSpec& spec = findModel(specs, GetParam());
    RegressorPtr model = spec.make();
    model->fit(task.xTrain, task.yTrain);
    const Vector pred = model->predictAll(task.xTest);
    // Every Table-I model must at least preserve ranking strongly on this
    // easy, well-correlated task (fidelity is rank-based in the paper).
    EXPECT_GT(util::spearman(task.yTest, pred), 0.75) << spec.name;
}

TEST_P(AllTableOneModels, DeterministicAcrossFits) {
    const Task task = Task::make(0x7A6);
    const std::vector<ModelSpec> specs = tableOneModels(AsicColumns{3, 4, 5});
    const ModelSpec& spec = findModel(specs, GetParam());
    RegressorPtr m1 = spec.make();
    RegressorPtr m2 = spec.make();
    m1->fit(task.xTrain, task.yTrain);
    m2->fit(task.xTrain, task.yTrain);
    for (std::size_t r = 0; r < 20; ++r)
        EXPECT_DOUBLE_EQ(m1->predict(task.xTest.row(r)), m2->predict(task.xTest.row(r)))
            << spec.name;
}

INSTANTIATE_TEST_SUITE_P(Registry, AllTableOneModels,
                         ::testing::Values("ML1", "ML2", "ML3", "ML4", "ML5", "ML6", "ML7", "ML8",
                                           "ML9", "ML10", "ML11", "ML12", "ML13", "ML14", "ML15",
                                           "ML16", "ML17", "ML18"),
                         [](const auto& info) { return info.param; });

TEST(Registry, HasEighteenModelsInPaperOrder) {
    const std::vector<ModelSpec> specs = tableOneModels(AsicColumns{3, 4, 5});
    ASSERT_EQ(specs.size(), 18u);
    EXPECT_EQ(specs[0].id, "ML1");
    EXPECT_EQ(specs[10].id, "ML11");
    EXPECT_EQ(specs[10].name, "Bayesian Ridge");
    EXPECT_EQ(specs[17].name, "Decision Tree");
    EXPECT_THROW(findModel(specs, "ML19"), std::out_of_range);
}

TEST(RidgeRegression, RecoversExactLinearModel) {
    Matrix x = Matrix::fromRows({{1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 3}});
    Vector y(5);
    for (std::size_t r = 0; r < 5; ++r) y[r] = 2.0 * x.at(r, 0) - 3.0 * x.at(r, 1) + 5.0;
    RidgeRegression ridge(1e-9);
    ridge.fit(x, y);
    EXPECT_NEAR(ridge.predict(std::vector<double>{4.0, 2.0}), 2.0 * 4 - 3.0 * 2 + 5, 1e-5);
}

TEST(RidgeRegression, RegularizationShrinksWeights) {
    const Task task = Task::make(1);
    RidgeRegression weak(1e-6), strong(1e5);
    weak.fit(task.xTrain, task.yTrain);
    strong.fit(task.xTrain, task.yTrain);
    double weakNorm = 0, strongNorm = 0;
    for (std::size_t c = 0; c + 1 < weak.weights().size(); ++c) {
        weakNorm += std::abs(weak.weights()[c]);
        strongNorm += std::abs(strong.weights()[c]);
    }
    EXPECT_LT(strongNorm, weakNorm);
}

TEST(SingleFeatureRegression, UsesOnlyItsColumn) {
    Matrix x = Matrix::fromRows({{100, 1}, {200, 2}, {300, 3}});
    const Vector y = {10.0, 20.0, 30.0};
    SingleFeatureRegression model(1);  // second column
    model.fit(x, y);
    // Prediction must ignore column 0 entirely.
    EXPECT_NEAR(model.predict(std::vector<double>{-999.0, 4.0}), 40.0, 1e-9);
}

TEST(LassoRegression, ProducesSparseSolution) {
    // y depends only on feature 0; lasso should zero out the pure-noise
    // feature 1 at sufficient regularization.
    util::Rng rng(2);
    Matrix x(60, 2);
    Vector y(60);
    for (std::size_t r = 0; r < 60; ++r) {
        x.at(r, 0) = rng.uniformReal(-1, 1);
        x.at(r, 1) = rng.uniformReal(-1, 1);
        y[r] = 3.0 * x.at(r, 0);
    }
    LassoRegression lasso(0.5);
    lasso.fit(x, y);
    const double onSignal = lasso.predict(std::vector<double>{1.0, 0.0});
    const double onNoise = lasso.predict(std::vector<double>{0.0, 1.0});
    const double base = lasso.predict(std::vector<double>{0.0, 0.0});
    EXPECT_GT(std::abs(onSignal - base), 1.0);
    EXPECT_LT(std::abs(onNoise - base), 0.2);
}

TEST(KnnRegressor, ExactMatchReturnsTrainTarget) {
    Matrix x = Matrix::fromRows({{0, 0}, {1, 1}, {2, 2}});
    KnnRegressor knn(2);
    knn.fit(x, {5.0, 6.0, 7.0});
    EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{1.0, 1.0}), 6.0);
}

TEST(DecisionTree, FitsStepFunctionExactly) {
    Matrix x(20, 1);
    Vector y(20);
    for (std::size_t r = 0; r < 20; ++r) {
        x.at(r, 0) = static_cast<double>(r);
        y[r] = r < 10 ? 1.0 : 9.0;
    }
    DecisionTree tree;
    tree.fit(x, y);
    EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{3.0}), 1.0);
    EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{15.0}), 9.0);
}

TEST(DecisionTree, RespectsDepthLimit) {
    const Task task = Task::make(3);
    DecisionTree::Params p;
    p.maxDepth = 1;  // a stump: at most 3 nodes
    DecisionTree stump(p);
    stump.fit(task.xTrain, task.yTrain);
    std::set<double> outputs;
    for (std::size_t r = 0; r < task.xTest.rows(); ++r)
        outputs.insert(stump.predict(task.xTest.row(r)));
    EXPECT_LE(outputs.size(), 2u);
}

TEST(KernelRidge, InterpolatesSmoothFunction) {
    Matrix x(30, 1);
    Vector y(30);
    for (std::size_t r = 0; r < 30; ++r) {
        x.at(r, 0) = static_cast<double>(r) / 5.0;
        y[r] = std::sin(x.at(r, 0));
    }
    KernelRidge kr(1e-4, 2.0);
    kr.fit(x, y);
    EXPECT_NEAR(kr.predict(std::vector<double>{1.55}), std::sin(1.55), 0.05);
}

TEST(ScaledRegressor, InvariantToFeatureScaling) {
    // KNN is scale-sensitive; wrapped in ScaledRegressor, multiplying one
    // feature by 1000 must not change the neighbourhood structure.
    const Task task = Task::make(4);
    Matrix scaledTrain = task.xTrain;
    Matrix scaledTest = task.xTest;
    for (std::size_t r = 0; r < scaledTrain.rows(); ++r) scaledTrain.at(r, 0) *= 1000.0;
    for (std::size_t r = 0; r < scaledTest.rows(); ++r) scaledTest.at(r, 0) *= 1000.0;

    ScaledRegressor a{std::make_unique<KnnRegressor>(3)};
    ScaledRegressor b{std::make_unique<KnnRegressor>(3)};
    a.fit(task.xTrain, task.yTrain);
    b.fit(scaledTrain, task.yTrain);
    for (std::size_t r = 0; r < 10; ++r)
        EXPECT_NEAR(a.predict(task.xTest.row(r)), b.predict(scaledTest.row(r)), 1e-6);
}

TEST(SymbolicRegression, DiscoversSimpleLaw) {
    util::Rng rng(5);
    Matrix x(80, 2);
    Vector y(80);
    for (std::size_t r = 0; r < 80; ++r) {
        x.at(r, 0) = rng.uniformReal(0.0, 5.0);
        x.at(r, 1) = rng.uniformReal(0.0, 5.0);
        y[r] = 2.0 * x.at(r, 0) + x.at(r, 1);
    }
    SymbolicRegression sr;
    sr.fit(x, y);
    EXPECT_FALSE(sr.expression().empty());
    Vector pred(80);
    for (std::size_t r = 0; r < 80; ++r) pred[r] = sr.predict(x.row(r));
    EXPECT_GT(util::pearson(y, pred), 0.95);
}

TEST(EnsembleModels, BoostingOutperformsSingleStump) {
    const Task task = Task::make(6);
    DecisionTree::Params sp;
    sp.maxDepth = 2;
    DecisionTree shallow(sp);
    shallow.fit(task.xTrain, task.yTrain);
    GradientBoosting boosted;
    boosted.fit(task.xTrain, task.yTrain);

    double sseShallow = 0, sseBoosted = 0;
    for (std::size_t r = 0; r < task.xTest.rows(); ++r) {
        const double ds = shallow.predict(task.xTest.row(r)) - task.yTest[r];
        const double db = boosted.predict(task.xTest.row(r)) - task.yTest[r];
        sseShallow += ds * ds;
        sseBoosted += db * db;
    }
    EXPECT_LT(sseBoosted, sseShallow);
}

TEST(Tuning, GridsExistForAllModels) {
    const AsicColumns asic{3, 4, 5};
    for (int i = 1; i <= 18; ++i) {
        const std::string id = "ML" + std::to_string(i);
        const std::vector<ModelVariant> grid = hyperparameterGrid(id, asic);
        ASSERT_FALSE(grid.empty()) << id;
        for (const ModelVariant& v : grid) {
            EXPECT_FALSE(v.description.empty());
            EXPECT_TRUE(static_cast<bool>(v.make));
        }
        // ML1-ML3 are knob-free; everything else has a real grid.
        if (i > 3) {
            EXPECT_GE(grid.size(), 2u) << id;
        }
    }
    EXPECT_THROW(hyperparameterGrid("ML99", asic), std::out_of_range);
}

TEST(Tuning, PicksBestVariantByValidationScore) {
    const Task task = Task::make(0x71);
    const AsicColumns asic{3, 4, 5};
    // Score = negative validation MSE, so higher is better.
    const auto score = [](const Vector& mes, const Vector& est) {
        double sse = 0.0;
        for (std::size_t i = 0; i < mes.size(); ++i)
            sse += (mes[i] - est[i]) * (mes[i] - est[i]);
        return -sse;
    };
    const TunedModel tuned = tuneModel("ML14", asic, task.xTrain, task.yTrain, task.xTest,
                                       task.yTest, score);
    ASSERT_TRUE(static_cast<bool>(tuned.make));
    EXPECT_FALSE(tuned.variantDescription.empty());

    // The tuned variant must score at least as well as every grid entry.
    for (ModelVariant& v : hyperparameterGrid("ML14", asic)) {
        RegressorPtr model = v.make();
        model->fit(task.xTrain, task.yTrain);
        EXPECT_GE(tuned.validationScore + 1e-12,
                  score(task.yTest, model->predictAll(task.xTest)))
            << v.description;
    }
}

TEST(Tuning, BestVariantKeepsTheFirstOfEqualScores) {
    const std::vector<ModelVariant> grid = hyperparameterGrid("ML16", AsicColumns{3, 4, 5});
    ASSERT_GE(grid.size(), 3u);
    const std::vector<double> tied(grid.size(), 0.5);
    EXPECT_EQ(bestVariant(grid, tied).variantDescription, grid[0].description);

    std::vector<double> scores(grid.size(), 0.25);
    scores[1] = 0.75;
    scores[2] = 0.75;
    const TunedModel best = bestVariant(grid, scores);
    EXPECT_EQ(best.variantDescription, grid[1].description);
    EXPECT_EQ(best.validationScore, 0.75);
}

TEST(Tuning, TunedModelIsUsableAfterwards) {
    const Task task = Task::make(0x72);
    const AsicColumns asic{3, 4, 5};
    const auto score = [](const Vector& mes, const Vector& est) {
        return util::pearson(mes, est);
    };
    const TunedModel tuned =
        tuneModel("ML16", asic, task.xTrain, task.yTrain, task.xTest, task.yTest, score);
    RegressorPtr model = tuned.make();
    model->fit(task.xTrain, task.yTrain);
    EXPECT_GT(util::spearman(task.yTest, model->predictAll(task.xTest)), 0.75);
}

TEST(Mlp, LearnsLinearMapClosely) {
    util::Rng rng(8);
    Matrix x(100, 2);
    Vector y(100);
    for (std::size_t r = 0; r < 100; ++r) {
        x.at(r, 0) = rng.uniformReal(-1, 1);
        x.at(r, 1) = rng.uniformReal(-1, 1);
        y[r] = x.at(r, 0) - 2.0 * x.at(r, 1);
    }
    MlpRegressor mlp;
    mlp.fit(x, y);
    double sse = 0.0;
    for (std::size_t r = 0; r < 100; ++r) {
        const double d = mlp.predict(x.row(r)) - y[r];
        sse += d * d;
    }
    EXPECT_LT(sse / 100.0, 0.05);
}

}  // namespace
}  // namespace axf::ml
