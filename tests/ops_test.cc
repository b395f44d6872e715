/**
 * @file
 * Tests for the operator library: functional correctness of dense,
 * sparse, and attention ops, and the cost-model behaviours the
 * co-design story depends on (fusion savings, TBE hit rates, MHA
 * custom transpose).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "chip/device.h"
#include "chip/kernel_cost_model.h"
#include "ops/attention_ops.h"
#include "ops/dense_ops.h"
#include "ops/sparse_ops.h"

namespace mtia {
namespace {

class OpsTest : public ::testing::Test
{
  protected:
    OpsTest() : dev_(ChipConfig::mtia2i()), km_(dev_) {}

    Device dev_;
    KernelCostModel km_;
    OpContext ctx_{};
    Rng rng_{42};
};

TEST_F(OpsTest, FcComputesLinearLayer)
{
    ctx_.rng = &rng_;
    FullyConnectedOp fc(4, 8, 3, DType::FP32);
    Tensor x(Shape{4, 8}, DType::FP32);
    x.fillGaussian(rng_);
    const Tensor y = fc.run({x}, ctx_);
    EXPECT_EQ(y.shape(), (Shape{4, 3}));
    // Check one element against a manual dot product.
    double expect = 0.0;
    for (std::int64_t k = 0; k < 8; ++k)
        expect += static_cast<double>(x.at2(1, k)) *
            fc.weights().at2(k, 2);
    EXPECT_NEAR(y.at2(1, 2), expect, 1e-4);
}

TEST_F(OpsTest, FcDeterministicWeightsPerSeed)
{
    FullyConnectedOp a(2, 4, 4, DType::FP16, false, Nonlinearity::Relu,
                       99);
    FullyConnectedOp b(2, 4, 4, DType::FP16, false, Nonlinearity::Relu,
                       99);
    EXPECT_DOUBLE_EQ(Tensor::maxAbsDiff(a.weights(), b.weights()), 0.0);
}

TEST_F(OpsTest, FusedActivationClampsNegatives)
{
    ctx_.rng = &rng_;
    FullyConnectedOp fc(8, 16, 16, DType::FP32, true,
                        Nonlinearity::Relu);
    Tensor x(Shape{8, 16}, DType::FP32);
    x.fillGaussian(rng_);
    const Tensor y = fc.run({x}, ctx_);
    for (std::int64_t i = 0; i < y.numel(); ++i)
        EXPECT_GE(y.at(i), 0.0f);
}

TEST_F(OpsTest, LayerNormNormalizesRows)
{
    ctx_.rng = &rng_;
    LayerNormOp ln(4, 64);
    Tensor x(Shape{4, 64}, DType::FP32);
    x.fillGaussian(rng_, 5.0f, 3.0f);
    const Tensor y = ln.run({x}, ctx_);
    for (std::int64_t r = 0; r < 4; ++r) {
        double mean = 0.0;
        double var = 0.0;
        for (std::int64_t c = 0; c < 64; ++c)
            mean += y.at2(r, c);
        mean /= 64.0;
        for (std::int64_t c = 0; c < 64; ++c)
            var += (y.at2(r, c) - mean) * (y.at2(r, c) - mean);
        var /= 64.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST_F(OpsTest, BatchedLayerNormMatchesIndividuals)
{
    ctx_.rng = &rng_;
    Tensor a(Shape{4, 32}, DType::FP32);
    Tensor b(Shape{4, 32}, DType::FP32);
    a.fillGaussian(rng_, 1.0f, 2.0f);
    b.fillGaussian(rng_, -3.0f, 0.5f);

    LayerNormOp single(4, 32);
    const Tensor ya = single.run({a}, ctx_);
    const Tensor yb = single.run({b}, ctx_);

    LayerNormOp batched(4, 32, 2);
    const Tensor y = batched.run({a, b}, ctx_);
    for (std::int64_t r = 0; r < 4; ++r) {
        for (std::int64_t c = 0; c < 32; ++c) {
            EXPECT_FLOAT_EQ(y.at2(r, c), ya.at2(r, c));
            EXPECT_FLOAT_EQ(y.at2(r, 32 + c), yb.at2(r, c));
        }
    }
    // And one batched launch is cheaper than two separate ones.
    CostContext cc;
    const Tick two = 2 * single.cost(km_, cc).total;
    const Tick one = batched.cost(km_, cc).total;
    EXPECT_LT(one, two);
}

TEST_F(OpsTest, BroadcastTilesRows)
{
    ctx_.rng = &rng_;
    BroadcastOp bc(Shape{2, 3}, 3);
    Tensor x(Shape{2, 3}, DType::FP32);
    x.fillGaussian(rng_);
    const Tensor y = bc.run({x}, ctx_);
    EXPECT_EQ(y.shape(), (Shape{6, 3}));
    EXPECT_FLOAT_EQ(y.at2(0, 1), y.at2(2, 1));
    EXPECT_FLOAT_EQ(y.at2(1, 2), y.at2(5, 2));
}

TEST_F(OpsTest, TbeOutputBoundedByPooling)
{
    ctx_.rng = &rng_;
    TbeTableSpec spec{.tables = 4,
                      .rows_per_table = 1024,
                      .dim = 8,
                      .dtype = DType::FP16,
                      .zipf_alpha = 0.9};
    TbeOp tbe(spec, 16, 10, false);
    const Tensor y = tbe.run({}, ctx_);
    EXPECT_EQ(y.shape(), (Shape{16, 32}));
    // Pooled sums of 10 rows with |value| <= 0.17 stay within 1.7.
    for (std::int64_t i = 0; i < y.numel(); ++i)
        EXPECT_LE(std::abs(y.at(i)), 1.7f);
}

TEST_F(OpsTest, TbeHitRateMatchesCacheScaling)
{
    TbeTableSpec spec{.tables = 16,
                      .rows_per_table = 1 << 20,
                      .dim = 64,
                      .dtype = DType::FP16,
                      .zipf_alpha = 0.9};
    TbeOp tbe(spec, 512, 32, false);
    const double small = tbe.expectedHitRate(16_MiB);
    const double large = tbe.expectedHitRate(128_MiB);
    EXPECT_LT(small, large);
    // Production regime: 40-60% hits with a sizeable LLC share.
    EXPECT_GT(large, 0.35);
    EXPECT_LT(large, 0.75);
}

TEST_F(OpsTest, WeightedTbeCostsMore)
{
    TbeTableSpec spec{.tables = 32,
                      .rows_per_table = 1 << 20,
                      .dim = 64,
                      .dtype = DType::FP16,
                      .zipf_alpha = 0.9};
    TbeOp unweighted(spec, 512, 32, false);
    TbeOp weighted(spec, 512, 32, true);
    CostContext cc;
    cc.tbe_hit_rate = 0.99; // make compute visible
    EXPECT_GE(weighted.cost(km_, cc).compute,
              unweighted.cost(km_, cc).compute);
}

TEST_F(OpsTest, MhaPreservesShapeAndIsFinite)
{
    ctx_.rng = &rng_;
    MhaOp mha(2, 4, 16, 2, DType::FP32);
    Tensor x(Shape{8, 16}, DType::FP32);
    x.fillGaussian(rng_);
    const Tensor y = mha.run({x}, ctx_);
    EXPECT_EQ(y.shape(), x.shape());
    EXPECT_FALSE(y.hasNonFinite());
}

TEST_F(OpsTest, MhaAcceptsFoldedView)
{
    ctx_.rng = &rng_;
    MhaOp mha(2, 4, 16, 2, DType::FP32);
    Tensor x(Shape{2, 64}, DType::FP32); // [B, S*D] view
    x.fillGaussian(rng_);
    const Tensor y = mha.run({x}, ctx_);
    EXPECT_EQ(y.shape(), x.shape());
}

TEST_F(OpsTest, MhaCustomTransposeIsCheaper)
{
    MhaOp naive(64, 16, 128, 4);
    MhaOp custom(64, 16, 128, 4);
    custom.useCustomTranspose(true);
    CostContext cc;
    EXPECT_LT(custom.cost(km_, cc).total, naive.cost(km_, cc).total);
}

TEST_F(OpsTest, FusedTransposeFcMatchesUnfusedPipeline)
{
    ctx_.rng = &rng_;
    // Reference: transpose -> two FCs -> concat.
    Tensor x(Shape{6, 10}, DType::FP32);
    x.fillGaussian(rng_);

    FusedTransposeFcOp fused(Shape{6, 10}, {4, 8}, DType::FP32);
    const Tensor y = fused.run({x}, ctx_);
    EXPECT_EQ(y.shape(), (Shape{10, 12}));
    EXPECT_FALSE(y.hasNonFinite());
    // Cost: one launch instead of four.
    CostContext cc;
    const Tick fused_t = fused.cost(km_, cc).total;
    EXPECT_GT(fused_t, 0u);
}

} // namespace
} // namespace mtia
