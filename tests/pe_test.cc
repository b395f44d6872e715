/**
 * @file
 * Tests for the processing-element units: DPE functional GEMM and
 * utilization model, SIMD LUT approximation, MLU layout ops,
 * command-processor instruction accounting, and the eager-mode
 * work-queue engine.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/parallel.h"
#include "pe/command_processor.h"
#include "pe/dpe.h"
#include "pe/mlu.h"
#include "pe/simd_engine.h"
#include "pe/work_queue_engine.h"
#include "sim/random.h"
#include "tensor/quantize.h"

namespace mtia {
namespace {

Tensor
randomTensor(Rng &rng, Shape shape, float stddev = 1.0f)
{
    Tensor t(std::move(shape), DType::FP32);
    t.fillGaussian(rng, 0.0f, stddev);
    return t;
}

/** Naive double-precision reference GEMM. */
Tensor
refGemm(const Tensor &a, const Tensor &b)
{
    const std::int64_t m = a.shape().dim(0);
    const std::int64_t k = a.shape().dim(1);
    const std::int64_t n = b.shape().dim(1);
    Tensor c(Shape{m, n}, DType::FP32);
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t x = 0; x < k; ++x)
                acc += static_cast<double>(a.at2(i, x)) * b.at2(x, j);
            c.set2(i, j, static_cast<float>(acc));
        }
    }
    return c;
}

TEST(Dpe, Fp16GemmTracksReference)
{
    Rng rng(1);
    DotProductEngine dpe;
    const Tensor a = randomTensor(rng, Shape{16, 64});
    const Tensor b = randomTensor(rng, Shape{64, 24});
    const Tensor c = dpe.gemm(a, b, DType::FP16);
    const Tensor ref = refGemm(a, b);
    // FP16 inputs with FP32 accumulation: relative error ~2^-11 * K.
    EXPECT_LT(Tensor::rmse(c, ref) / 8.0, 3e-3);
}

TEST(Dpe, Fp32GemmIsNearExact)
{
    Rng rng(2);
    DotProductEngine dpe;
    const Tensor a = randomTensor(rng, Shape{8, 32});
    const Tensor b = randomTensor(rng, Shape{32, 8});
    EXPECT_LT(Tensor::maxAbsDiff(dpe.gemm(a, b, DType::FP32),
                                 refGemm(a, b)),
              1e-4);
}

TEST(Dpe, Bf16LosesMorePrecisionThanFp16)
{
    Rng rng(3);
    DotProductEngine dpe;
    const Tensor a = randomTensor(rng, Shape{16, 128});
    const Tensor b = randomTensor(rng, Shape{128, 16});
    const Tensor ref = refGemm(a, b);
    const double err16 = Tensor::rmse(dpe.gemm(a, b, DType::FP16), ref);
    const double errbf = Tensor::rmse(dpe.gemm(a, b, DType::BF16), ref);
    EXPECT_GT(errbf, err16);
}

TEST(Dpe, Int8PathMatchesDequantizedReference)
{
    Rng rng(4);
    DotProductEngine dpe;
    const Tensor a = randomTensor(rng, Shape{8, 64}, 2.0f);
    const Tensor w = randomTensor(rng, Shape{64, 16}, 0.5f);
    const QuantizedTensor qa =
        quantizeDynamic(a, QuantGranularity::PerRow);
    const QuantizedTensor qw = quantizeStatic(w);
    const Tensor c = dpe.gemmInt8(qa, qw);
    const Tensor ref = refGemm(a, w);
    // INT8 quantization noise, but clearly correlated with reference.
    double ref_mag = 0.0;
    for (std::int64_t i = 0; i < ref.numel(); ++i)
        ref_mag += std::abs(ref.at(i));
    ref_mag /= static_cast<double>(ref.numel());
    EXPECT_LT(Tensor::rmse(c, ref), 0.1 * ref_mag + 0.2);
}

TEST(Dpe, ShapeUtilization)
{
    DotProductEngine dpe;
    EXPECT_DOUBLE_EQ(dpe.shapeUtilization(2048, 2048, 2048), 1.0);
    EXPECT_DOUBLE_EQ(dpe.shapeUtilization(64, 64, 64), 1.0);
    // 48 columns pad to 64: three quarters used.
    EXPECT_DOUBLE_EQ(dpe.shapeUtilization(64, 48, 64), 0.75);
    // Tiny M wastes the stream pipeline.
    EXPECT_DOUBLE_EQ(dpe.shapeUtilization(8, 64, 64), 0.25);
    // Utilization is monotone in padding waste.
    EXPECT_GT(dpe.shapeUtilization(64, 33, 64),
              dpe.shapeUtilization(64, 1, 64));
}

TEST(Dpe, PeakFlopsTable2)
{
    DotProductEngine dpe; // MTIA 2i config
    // Per PE at 1.35 GHz: 2.76 TFLOPS FP16.
    EXPECT_NEAR(dpe.peakFlops(1.35, DType::FP16, false) / 1e12, 2.76,
                0.01);
    EXPECT_NEAR(dpe.peakFlops(1.35, DType::INT8, false) / 1e12, 5.53,
                0.01);
    EXPECT_NEAR(dpe.peakFlops(1.35, DType::INT8, true) / 1e12, 11.06,
                0.02);
}

class SimdLut : public ::testing::TestWithParam<Nonlinearity>
{
};

TEST_P(SimdLut, ApproximationErrorSmallInRange)
{
    SimdEngine se;
    const Nonlinearity f = GetParam();
    float lo = -4.0f;
    float hi = 4.0f;
    if (f == Nonlinearity::Rsqrt) {
        lo = 0.25f;
        hi = 4.0f;
    }
    double bound = 5e-3;
    if (f == Nonlinearity::Exp)
        bound = 0.05; // exp grows; absolute error largest near hi
    EXPECT_LT(se.maxLutError(f, lo, hi), bound)
        << nonlinearityName(f);
}

INSTANTIATE_TEST_SUITE_P(
    Functions, SimdLut,
    ::testing::Values(Nonlinearity::Relu, Nonlinearity::Sigmoid,
                      Nonlinearity::Tanh, Nonlinearity::Gelu,
                      Nonlinearity::Silu));

TEST(Simd, ReluIsExact)
{
    SimdEngine se;
    EXPECT_DOUBLE_EQ(se.maxLutError(Nonlinearity::Relu, -10.0f, 10.0f),
                     0.0);
}

TEST(Simd, LutAndExactDivergeMeasurably)
{
    // The LUT path is an approximation: A/B parity experiments must
    // see a real, nonzero numeric difference.
    SimdEngine se;
    Rng rng(5);
    Tensor x(Shape{1024}, DType::FP32);
    x.fillGaussian(rng, 0.0f, 2.0f);
    const Tensor lut = se.apply(Nonlinearity::Sigmoid, x);
    const Tensor exact = SimdEngine::applyExact(Nonlinearity::Sigmoid, x);
    const double diff = Tensor::maxAbsDiff(lut, exact);
    EXPECT_GT(diff, 0.0);
    EXPECT_LT(diff, 1e-3);
}

TEST(Simd, LutMemoryFitsTheSmallBudget)
{
    SimdEngine se;
    LookupTable lut([](float x) { return x; }, 0.0f, 1.0f,
                    se.config().lut_entries);
    EXPECT_LE(lut.sizeBytes(), 4096u);
}

/** applyOne of @p se at every point of a dense sweep, as bit patterns. */
std::vector<std::uint32_t>
denseSweep(const SimdEngine &se, Nonlinearity f)
{
    std::vector<std::uint32_t> bits;
    for (int i = -25000; i <= 25000; ++i) {
        bits.push_back(std::bit_cast<std::uint32_t>(
            se.applyOne(f, static_cast<float>(i) * 1e-3f)));
    }
    return bits;
}

constexpr Nonlinearity kAllNonlinearities[] = {
    Nonlinearity::Relu, Nonlinearity::Sigmoid, Nonlinearity::Tanh,
    Nonlinearity::Gelu, Nonlinearity::Exp,     Nonlinearity::Rsqrt,
    Nonlinearity::Silu};

TEST(SimdLutCache, SameLutEntriesGiveBitEqualResults)
{
    const SimdEngine a(SimdConfig{.lanes = 64, .lut_entries = 257});
    const SimdEngine b(SimdConfig{.lanes = 8, .lut_entries = 257});
    const SimdEngine other(SimdConfig{.lanes = 64, .lut_entries = 258});
    for (Nonlinearity f : kAllNonlinearities) {
        EXPECT_EQ(denseSweep(a, f), denseSweep(b, f)) << nonlinearityName(f);
        // A different lut_entries must get its own tables.
        if (f != Nonlinearity::Relu) {
            EXPECT_NE(denseSweep(a, f), denseSweep(other, f))
                << nonlinearityName(f);
        }
    }
}

TEST(SimdLutCache, ParallelFirstTouchMatchesSerial)
{
    // A lut_entries no other test uses, so its tables are first built
    // inside the 8-lane fan-out.
    const SimdConfig cfg{.lanes = 64, .lut_entries = 333};
    constexpr std::size_t kTasks = 64;
    std::vector<float> got(kTasks);
    {
        const ScopedParallelism lanes(8);
        parallelFor(kTasks, [&](std::size_t i) {
            const SimdEngine se(cfg);
            got[i] = se.applyOne(Nonlinearity::Gelu,
                                 -4.0f + 0.125f * static_cast<float>(i));
        });
    }
    const SimdEngine serial(cfg);
    for (std::size_t i = 0; i < kTasks; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(serial.applyOne(
                      Nonlinearity::Gelu,
                      -4.0f + 0.125f * static_cast<float>(i))))
            << "task " << i;
    }
}

TEST(Mlu, TransposeInvolution)
{
    Rng rng(6);
    const Tensor t = randomTensor(rng, Shape{5, 9});
    const Tensor tt =
        MemoryLayoutUnit::transpose(MemoryLayoutUnit::transpose(t));
    EXPECT_DOUBLE_EQ(Tensor::maxAbsDiff(t, tt), 0.0);
}

TEST(Mlu, Permute3RoundTrip)
{
    Rng rng(7);
    const Tensor t = randomTensor(rng, Shape{3, 4, 5});
    const Tensor p = MemoryLayoutUnit::permute3(t, {2, 0, 1});
    EXPECT_EQ(p.shape(), (Shape{5, 3, 4}));
    const Tensor back = MemoryLayoutUnit::permute3(p, {1, 2, 0});
    EXPECT_DOUBLE_EQ(Tensor::maxAbsDiff(t, back), 0.0);
}

TEST(Mlu, ConcatSliceRoundTrip)
{
    Rng rng(8);
    const Tensor a = randomTensor(rng, Shape{3, 4});
    const Tensor b = randomTensor(rng, Shape{2, 4});
    const Tensor c = MemoryLayoutUnit::concat({a, b}, 0);
    EXPECT_EQ(c.shape(), (Shape{5, 4}));
    EXPECT_DOUBLE_EQ(
        Tensor::maxAbsDiff(MemoryLayoutUnit::sliceRows(c, 0, 3), a), 0.0);
    EXPECT_DOUBLE_EQ(
        Tensor::maxAbsDiff(MemoryLayoutUnit::sliceRows(c, 3, 5), b), 0.0);
}

TEST(Mlu, ConcatAxis1)
{
    Rng rng(9);
    const Tensor a = randomTensor(rng, Shape{2, 3});
    const Tensor b = randomTensor(rng, Shape{2, 2});
    const Tensor c = MemoryLayoutUnit::concat({a, b}, 1);
    EXPECT_EQ(c.shape(), (Shape{2, 5}));
    EXPECT_FLOAT_EQ(c.at2(1, 3), b.at2(1, 0));
}

TEST(Mlu, ReshapePreservesData)
{
    Rng rng(10);
    const Tensor t = randomTensor(rng, Shape{4, 6});
    const Tensor r = MemoryLayoutUnit::reshape(t, Shape{2, 12});
    EXPECT_EQ(r.numel(), t.numel());
    EXPECT_FLOAT_EQ(r.at(13), t.at(13));
}

TEST(CommandProc, FeatureBitsReduceGemmInstructions)
{
    CommandProcessor modern{IsaFeatures{}};
    CommandProcessor legacy{IsaFeatures::mtia1()};
    const auto modern_count = modern.gemmInstructions(256, 256, 2048);
    const auto legacy_count = legacy.gemmInstructions(256, 256, 2048);
    EXPECT_EQ(legacy_count, 5 * modern_count);
}

TEST(CommandProc, TbeInstructionReduction)
{
    CommandProcessor modern{IsaFeatures{}};
    CommandProcessor legacy{IsaFeatures::mtia1()};
    const std::uint64_t rows = 100000;
    // Modern: 1 instr/row + rows/128 accums. Legacy: 5/row + rows/32.
    EXPECT_EQ(modern.tbeInstructions(rows), rows + (rows + 127) / 128);
    EXPECT_EQ(legacy.tbeInstructions(rows),
              5 * rows + (rows + 31) / 32);
    EXPECT_GT(legacy.tbeInstructions(rows),
              4 * modern.tbeInstructions(rows));
}

TEST(CommandProc, IssueTimeScalesWithClock)
{
    CommandProcessor cp{IsaFeatures{}};
    const Tick slow = cp.issueTime(100000, 1.1);
    const Tick fast = cp.issueTime(100000, 1.35);
    EXPECT_NEAR(static_cast<double>(slow) / fast, 1.35 / 1.1, 0.01);
}

TEST(Wqe, EagerLaunchMeetsPaperBudgets)
{
    WorkQueueEngine modern{WorkQueueConfig{}};
    WorkQueueEngine legacy{WorkQueueConfig::mtia1()};
    const Tick launch = modern.launchTime(64);
    const Tick replace = modern.replaceTime(64);
    const Tick old_launch = legacy.launchTime(64);
    // Section 3.3: launch < 1 us, replace < 0.5 us, ~80% reduction.
    EXPECT_LT(toMicros(launch), 1.0);
    EXPECT_LT(toMicros(replace), 0.5);
    const double reduction =
        1.0 - static_cast<double>(launch) / old_launch;
    EXPECT_GE(reduction, 0.75);
}

} // namespace
} // namespace mtia
