// Unit tests of the benchmark's result digests (perfbench/src/digest.hpp).

#include <gtest/gtest.h>

#include <cmath>

#include "perfbench/src/digest.hpp"

using perfbench::Digest;

TEST(Digest, EmptyIsTheCampaignDigestBasis) {
    // axf-campaign's resultDigest starts from this basis too, so a DSE
    // digest here and there fold identically.
    EXPECT_EQ(Digest().value(), 1469598103934665603ull);
    EXPECT_EQ(Digest().hex(), "14650fb0739d0383");
}

TEST(Digest, MixFoldsEightLittleEndianBytes) {
    // FNV-1a of the bytes 01 00 00 00 00 00 00 00, computed by hand.
    std::uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < 8; ++i) {
        h ^= i == 0 ? 1u : 0u;
        h *= 1099511628211ull;
    }
    Digest d;
    d.mix(1);
    EXPECT_EQ(d.value(), h);
}

TEST(Digest, OrderMatters) {
    Digest a, b;
    a.mix(1);
    a.mix(2);
    b.mix(2);
    b.mix(1);
    EXPECT_NE(a.value(), b.value());
}

TEST(Digest, DoublesFoldByBitPattern) {
    Digest zero, negZero, nan1, nan2;
    zero.mixDouble(0.0);
    negZero.mixDouble(-0.0);
    EXPECT_NE(zero.value(), negZero.value());
    nan1.mixDouble(std::nan("1"));
    nan2.mixDouble(std::nan("1"));
    EXPECT_EQ(nan1.value(), nan2.value());
    Digest ulp;
    ulp.mixDouble(std::nextafter(0.0, 1.0));
    EXPECT_NE(zero.value(), ulp.value());
}

TEST(Digest, StringsAreLengthPrefixed) {
    Digest a, b;
    a.mixString("ab");
    a.mixString("c");
    b.mixString("a");
    b.mixString("bc");
    EXPECT_NE(a.value(), b.value());
}

TEST(Digest, FlowDigestSeesCoverageAndFronts) {
    axf::core::FlowResult r;
    r.targets.push_back({});
    r.targets[0].finalParetoIndices = {1, 2};
    r.targets[0].coverageOfTrueFront = 0.5;
    Digest base;
    perfbench::mixFlow(base, r);

    axf::core::FlowResult coverage = r;
    coverage.targets[0].coverageOfTrueFront = 0.75;
    Digest d1;
    perfbench::mixFlow(d1, coverage);
    EXPECT_NE(base.value(), d1.value());

    axf::core::FlowResult front = r;
    front.targets[0].finalParetoIndices = {1, 3};
    Digest d2;
    perfbench::mixFlow(d2, front);
    EXPECT_NE(base.value(), d2.value());

    Digest again;
    perfbench::mixFlow(again, r);
    EXPECT_EQ(base.value(), again.value());
}

TEST(Digest, DseDigestSeesEveryEvaluatedConfig) {
    axf::autoax::AutoAxFpgaFlow::Result r;
    axf::autoax::EvaluatedConfig e;
    e.config.choice = {0, 1, 2};
    e.ssim = 0.9;
    r.trainingSet.push_back(e);
    r.totalRealEvaluations = 1;
    Digest base;
    perfbench::mixDse(base, r);

    axf::autoax::AutoAxFpgaFlow::Result ssim = r;
    ssim.trainingSet[0].ssim = std::nextafter(0.9, 1.0);
    Digest d1;
    perfbench::mixDse(d1, ssim);
    EXPECT_NE(base.value(), d1.value());

    axf::autoax::AutoAxFpgaFlow::Result choice = r;
    choice.trainingSet[0].config.choice = {0, 2, 1};
    Digest d2;
    perfbench::mixDse(d2, choice);
    EXPECT_NE(base.value(), d2.value());
}
