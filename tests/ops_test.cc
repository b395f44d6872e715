/**
 * @file
 * Tests for the operator library: functional correctness of dense,
 * sparse, and attention ops, and the cost-model behaviours the
 * co-design story depends on (fusion savings, TBE hit rates, MHA
 * custom transpose), and the GEMM drivers' flop counter and degenerate
 * shapes.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "chip/device.h"
#include "chip/kernel_cost_model.h"
#include "core/check.h"
#include "core/numerics_stats.h"
#include "core/simd_gemm.h"
#include "ops/gemm_kernels.h"
#include "ops/attention_ops.h"
#include "ops/dense_ops.h"
#include "ops/sparse_ops.h"
#include "telemetry/metrics.h"

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

/**
 * Checks every element of @p y, the output of tbe.run() on an rng
 * seeded @p seed, against the rowValue oracle, bit for bit, and
 * returns the number of distinct (table, row) pairs it looked up.
 * Replays the op's rng order: batch-major, then table, and each
 * lookup draws its row and then its weight.
 */
std::size_t
expectMatchesRowValueOracle(const TbeOp &tbe, const Tensor &y,
                            std::uint64_t seed)
{
    const TbeTableSpec &spec = tbe.spec();
    EXPECT_EQ(y.shape(), (Shape{tbe.batch(), spec.tables * spec.dim}));
    Rng ref_rng(seed);
    const ZipfSampler zipf(
        static_cast<std::uint64_t>(spec.rows_per_table), spec.zipf_alpha);
    std::set<std::pair<std::int64_t, std::int64_t>> distinct;
    std::vector<std::int64_t> rows(static_cast<std::size_t>(tbe.pooling()));
    std::vector<float> weights(rows.size());
    for (std::int64_t b = 0; b < tbe.batch(); ++b) {
        for (std::int64_t t = 0; t < spec.tables; ++t) {
            for (std::size_t p = 0; p < rows.size(); ++p) {
                rows[p] = static_cast<std::int64_t>(zipf.sample(ref_rng));
                weights[p] = tbe.weighted()
                    ? static_cast<float>(ref_rng.uniform(0.5, 1.5))
                    : 1.0f;
                distinct.emplace(t, rows[p]);
            }
            for (std::int64_t d = 0; d < spec.dim; ++d) {
                float want = 0.0f;
                for (std::size_t p = 0; p < rows.size(); ++p)
                    want += weights[p] * tbe.rowValue(t, rows[p], d);
                const auto got = std::bit_cast<std::uint32_t>(
                    y.at2(b, t * spec.dim + d));
                if (got != std::bit_cast<std::uint32_t>(want)) {
                    ADD_FAILURE() << "b=" << b << " t=" << t << " d=" << d;
                    return distinct.size();
                }
            }
        }
    }
    return distinct.size();
}

Tensor
runTbe(const TbeOp &tbe, std::uint64_t seed)
{
    Rng rng(seed);
    OpContext ctx{};
    ctx.rng = &rng;
    return tbe.run({}, ctx);
}

// A near-uniform index stream over 16M rows: 49,152 lookups touch more
// distinct rows than the 32,768-row cache TbeOp::run keeps, so the
// tail is synthesized into its overflow region.
const TbeTableSpec kBeyondCacheSpec{.tables = 2,
                                    .rows_per_table = 1 << 24,
                                    .dim = 8,
                                    .dtype = DType::FP16,
                                    .zipf_alpha = 0.5};

TEST_F(OpsTest, TbeBeyondRowCacheMatchesRowValueOracle)
{
    const TbeOp tbe(kBeyondCacheSpec, 256, 96, /*weighted=*/true);
    const Tensor y = runTbe(tbe, 42);
    EXPECT_GT(expectMatchesRowValueOracle(tbe, y, 42), 32768u);
}

TEST_F(OpsTest, TbeRowCacheIsolatedAcrossOpsRunsAndThreads)
{
    // Each thread keeps one row cache across runs. Op B (other spec,
    // table seed and rng seed, keys overlapping A's) runs between two
    // runs of op A: a slot left over from an earlier run would hand
    // A a row of the wrong op. Then the same sequence on two threads
    // at once, each with its own cache.
    const TbeOp op_a(kBeyondCacheSpec, 256, 96, /*weighted=*/true);
    const TbeOp op_b(TbeTableSpec{.tables = 3,
                                  .rows_per_table = 4096,
                                  .dim = 16,
                                  .dtype = DType::FP16,
                                  .zipf_alpha = 0.9},
                     64, 20, /*weighted=*/false, /*table_seed=*/7);
    struct Outputs
    {
        Tensor a1, b, a2;
    };
    auto sequence = [&](Outputs &out) {
        out.a1 = runTbe(op_a, 42);
        out.b = runTbe(op_b, 9);
        out.a2 = runTbe(op_a, 42);
    };
    Outputs serial;
    sequence(serial);
    std::array<Outputs, 2> threaded;
    {
        std::thread t0(sequence, std::ref(threaded[0]));
        std::thread t1(sequence, std::ref(threaded[1]));
        t0.join();
        t1.join();
    }
    EXPECT_GT(expectMatchesRowValueOracle(op_a, serial.a1, 42), 32768u);
    expectMatchesRowValueOracle(op_b, serial.b, 9);
    for (const Outputs *o : {&serial, &threaded[0], &threaded[1]}) {
        EXPECT_EQ(o->a1.raw(), serial.a1.raw());
        EXPECT_EQ(o->a2.raw(), serial.a1.raw());
        EXPECT_EQ(o->b.raw(), serial.b.raw());
    }
}

TEST_F(OpsTest, TbeRunRejectsRowKeysBeyond32Bits)
{
    // The row cache keys table * rows_per_table + row in 32 bits.
    ScopedCheckThrow guard;
    constexpr std::int64_t kHalf = std::int64_t{1} << 31;
    const TbeOp fits(TbeTableSpec{.tables = 2, .rows_per_table = kHalf}, 1,
                     1, false);
    EXPECT_NO_THROW(runTbe(fits, 1));
    const TbeOp beyond(
        TbeTableSpec{.tables = 2, .rows_per_table = kHalf + 1}, 1, 1, false);
    EXPECT_THROW(runTbe(beyond, 1), CheckFailedError);
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

// ------------------------------------------------------------- GEMM

TEST(GemmKernelsTest, GemmFlopsCounterTracksWork)
{
    numerics::resetStats();
    Rng rng(107);
    Tensor a(Shape{12, 34}, DType::FP32);
    Tensor b(Shape{34, 56}, DType::FP32);
    a.fillGaussian(rng);
    b.fillGaussian(rng);
    (void)gemm_kernels::gemm(a, b, DType::FP32);
    EXPECT_EQ(numerics::gemmFlops(), 2ull * 12 * 34 * 56);
    (void)gemm_kernels::fusedGemmActivation(
        a, b, DType::FP32, Nonlinearity::Relu, /*use_lut=*/true);
    EXPECT_EQ(numerics::gemmFlops(), 2ull * 2ull * 12 * 34 * 56);

    telemetry::MetricRegistry metrics;
    numerics::publishNumericsMetrics(metrics);
    EXPECT_EQ(metrics.counter("numerics.gemm_flops").value(),
              2ull * 2ull * 12 * 34 * 56);
}

TEST(GemmKernelsTest, RawPointerGemmHandlesDegenerateShapes)
{
    // m == 0 / n == 0 are no-ops; k == 0 zero-fills C.
    std::vector<float> c(6, 42.0f);
    simd::gemmF32(nullptr, nullptr, c.data(), 0, 3, 4,
                  simd::SimdIsa::Scalar, simd::GemmBlocking{});
    EXPECT_EQ(c[0], 42.0f);
    simd::gemmF32(nullptr, nullptr, c.data(), 2, 3, 0,
                  simd::SimdIsa::Scalar, simd::GemmBlocking{});
    for (const float v : c)
        EXPECT_EQ(v, 0.0f);
}

} // namespace
} // namespace mtia
