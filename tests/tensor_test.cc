/**
 * @file
 * Tests for the tensor layer: bit-exact FP16/BF16 conversion, dense
 * tensors, dynamic/static INT8 quantization, and 2:4 sparsity.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/random.h"
#include "tensor/dtype.h"
#include "tensor/quantize.h"
#include "tensor/tensor.h"

namespace mtia {
namespace {

TEST(DTypeTest, Sizes)
{
    EXPECT_EQ(dtypeSize(DType::FP32), 4u);
    EXPECT_EQ(dtypeSize(DType::FP16), 2u);
    EXPECT_EQ(dtypeSize(DType::BF16), 2u);
    EXPECT_EQ(dtypeSize(DType::INT8), 1u);
    EXPECT_EQ(dtypeSize(DType::INT32), 4u);
}

TEST(Fp16, KnownValues)
{
    EXPECT_EQ(fp32ToFp16Bits(0.0f), 0x0000u);
    EXPECT_EQ(fp32ToFp16Bits(-0.0f), 0x8000u);
    EXPECT_EQ(fp32ToFp16Bits(1.0f), 0x3c00u);
    EXPECT_EQ(fp32ToFp16Bits(-2.0f), 0xc000u);
    EXPECT_EQ(fp32ToFp16Bits(65504.0f), 0x7bffu);      // fp16 max
    EXPECT_EQ(fp32ToFp16Bits(65536.0f), 0x7c00u);      // overflow -> inf
    EXPECT_EQ(fp32ToFp16Bits(5.9604645e-8f), 0x0001u); // smallest denorm
    EXPECT_FLOAT_EQ(fp16BitsToFp32(0x3c00u), 1.0f);
    EXPECT_FLOAT_EQ(fp16BitsToFp32(0x7bffu), 65504.0f);
    EXPECT_FLOAT_EQ(fp16BitsToFp32(0x0001u), 5.9604645e-8f);
    EXPECT_TRUE(std::isinf(fp16BitsToFp32(0x7c00u)));
    EXPECT_TRUE(std::isnan(fp16BitsToFp32(0x7c01u)));
    EXPECT_TRUE(
        std::isnan(fp16BitsToFp32(fp32ToFp16Bits(std::nanf("")))));
}

TEST(Fp16, AllBitPatternsRoundTripExactly)
{
    // Every finite fp16 value converts to fp32 and back unchanged
    // (modulo NaN payloads and the denorm sign of zero).
    for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
        const auto h = static_cast<std::uint16_t>(bits);
        const float f = fp16BitsToFp32(h);
        if (std::isnan(f))
            continue;
        EXPECT_EQ(fp32ToFp16Bits(f), h) << "bits=" << bits;
    }
}

TEST(Fp16, RoundToNearestEven)
{
    // 1.0 + 2^-11 is exactly halfway between fp16(1.0) and the next
    // representable value; round-to-nearest-even keeps the even one.
    const float halfway = 1.0f + std::ldexp(1.0f, -11);
    EXPECT_EQ(fp32ToFp16Bits(halfway), 0x3c00u);
    // Slightly above halfway rounds up.
    const float above = 1.0f + std::ldexp(1.0f, -11) * 1.01f;
    EXPECT_EQ(fp32ToFp16Bits(above), 0x3c01u);
}

TEST(Bf16, KnownValuesAndRoundTrip)
{
    EXPECT_EQ(fp32ToBf16Bits(1.0f), 0x3f80u);
    EXPECT_EQ(fp32ToBf16Bits(-1.0f), 0xbf80u);
    EXPECT_FLOAT_EQ(bf16BitsToFp32(0x3f80u), 1.0f);
    // bf16 keeps fp32 range: large magnitudes survive.
    const float big = 3.0e38f;
    EXPECT_TRUE(std::isfinite(bf16BitsToFp32(fp32ToBf16Bits(big))));
    EXPECT_TRUE(std::isnan(bf16BitsToFp32(fp32ToBf16Bits(
        std::numeric_limits<float>::quiet_NaN()))));
}

TEST(Bf16, RelativeErrorBound)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const float f = static_cast<float>(rng.uniform(-100.0, 100.0));
        const float r = bf16BitsToFp32(fp32ToBf16Bits(f));
        if (std::abs(f) > 1e-30f) {
            EXPECT_LE(std::abs(r - f) / std::abs(f), 1.0f / 128.0f);
        }
    }
}

class DTypePrecision : public ::testing::TestWithParam<DType>
{
};

TEST_P(DTypePrecision, RoundTripIsIdempotent)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const float f = static_cast<float>(rng.gaussian(0.0, 10.0));
        const float once = roundTrip(f, GetParam());
        const float twice = roundTrip(once, GetParam());
        EXPECT_EQ(once, twice);
    }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, DTypePrecision,
                         ::testing::Values(DType::FP32, DType::FP16,
                                           DType::BF16, DType::INT8));

TEST(TensorTest, ShapeBasics)
{
    Shape s{2, 3, 4};
    EXPECT_EQ(s.rank(), 3u);
    EXPECT_EQ(s.numel(), 24);
    EXPECT_EQ(s.toString(), "[2x3x4]");
}

TEST(TensorTest, SetGetAcrossDtypes)
{
    for (DType t : {DType::FP32, DType::FP16, DType::BF16}) {
        Tensor x(Shape{4, 4}, t);
        x.set2(1, 2, 3.5f);
        EXPECT_FLOAT_EQ(x.at2(1, 2), 3.5f) << dtypeName(t);
        EXPECT_EQ(x.sizeBytes(), 16 * dtypeSize(t));
    }
}

TEST(TensorTest, CastReducesPrecision)
{
    Rng rng(9);
    Tensor x(Shape{32, 32}, DType::FP32);
    x.fillGaussian(rng);
    const Tensor h = x.cast(DType::FP16);
    const Tensor back = h.cast(DType::FP32);
    EXPECT_GT(Tensor::maxAbsDiff(x, back), 0.0);
    EXPECT_LT(Tensor::rmse(x, back), 1e-3);
}

TEST(TensorTest, FlipBitChangesValue)
{
    Tensor x(Shape{8}, DType::FP32);
    x.fill(1.0f);
    x.flipBit(23); // mantissa MSB region of element 0
    EXPECT_NE(x.at(0), 1.0f);
    EXPECT_FLOAT_EQ(x.at(1), 1.0f);
}

TEST(TensorTest, FlipExponentBitCanProduceHugeError)
{
    Tensor x(Shape{1}, DType::FP32);
    x.set(0, 1.0f);
    x.flipBit(30); // high exponent bit: 1.0 -> 2^128-ish territory
    EXPECT_TRUE(std::abs(x.at(0)) > 1e30f || !std::isfinite(x.at(0)));
}

TEST(TensorTest, NonFiniteDetection)
{
    Tensor x(Shape{4}, DType::FP32);
    EXPECT_FALSE(x.hasNonFinite());
    x.set(2, std::numeric_limits<float>::quiet_NaN());
    EXPECT_TRUE(x.hasNonFinite());
}

class QuantScheme : public ::testing::TestWithParam<QuantGranularity>
{
};

TEST_P(QuantScheme, ReconstructionErrorBounded)
{
    Rng rng(41);
    Tensor x(Shape{64, 128}, DType::FP32);
    x.fillGaussian(rng, 0.0f, 2.0f);
    const QuantizedTensor q = quantizeDynamic(x, GetParam(), 8);
    const Tensor deq = dequantize(q);
    // Symmetric INT8 max error is scale/2 per element.
    for (std::int64_t r = 0; r < 64; ++r) {
        for (std::int64_t c = 0; c < 128; ++c) {
            EXPECT_LE(std::abs(x.at2(r, c) - deq.at2(r, c)),
                      q.scaleFor(r) * 0.5f + 1e-6f);
        }
    }
    EXPECT_GT(sqnrDb(x, deq), 25.0);
}

INSTANTIATE_TEST_SUITE_P(Granularities, QuantScheme,
                         ::testing::Values(QuantGranularity::PerTensor,
                                           QuantGranularity::PerRow,
                                           QuantGranularity::PerRowGroup));

TEST(QuantTest, RowWiseBeatsPerTensorOnSkewedRows)
{
    // Rows with very different magnitudes: one scale for all rows
    // crushes the small rows (they quantize to zero); row-wise scales
    // preserve them. This is the Section 4.4 finding that row-wise
    // activation quantization matches FP16 quality.
    Rng rng(43);
    Tensor x(Shape{32, 64}, DType::FP32);
    for (std::int64_t r = 0; r < 32; ++r) {
        const float mag = (r % 2 == 0) ? 100.0f : 0.1f;
        for (std::int64_t c = 0; c < 64; ++c)
            x.set2(r, c, static_cast<float>(rng.gaussian(0.0, mag)));
    }
    const Tensor pt =
        dequantize(quantizeDynamic(x, QuantGranularity::PerTensor));
    const Tensor pr =
        dequantize(quantizeDynamic(x, QuantGranularity::PerRow)) ;
    // Relative RMSE of a small-magnitude row.
    auto row_rel_rmse = [&](const Tensor &deq, std::int64_t r) {
        double err = 0.0;
        double sig = 0.0;
        for (std::int64_t c = 0; c < 64; ++c) {
            const double d = x.at2(r, c) - deq.at2(r, c);
            err += d * d;
            sig += x.at2(r, c) * x.at2(r, c);
        }
        return std::sqrt(err / sig);
    };
    // Per-tensor quantization flattens the small row almost entirely;
    // per-row keeps it within ~1% relative error.
    EXPECT_GT(row_rel_rmse(pt, 1), 0.5);
    EXPECT_LT(row_rel_rmse(pr, 1), 0.02);
}

TEST(QuantTest, StaticSaturationImprovesHeavyTails)
{
    Rng rng(47);
    Tensor w(Shape{64, 64}, DType::FP32);
    w.fillGaussian(rng);
    w.set2(0, 0, 500.0f); // a single large outlier
    const Tensor full = dequantize(quantizeStatic(w, 100.0));
    const Tensor clipped = dequantize(quantizeStatic(w, 99.9));
    // Clipping the outlier shrinks the step size, so the bulk of the
    // weights (everything except the outlier) reconstructs better.
    auto bulk_rmse = [&](const Tensor &deq) {
        double acc = 0.0;
        for (std::int64_t i = 1; i < w.numel(); ++i) {
            const double d = w.at(i) - deq.at(i);
            acc += d * d;
        }
        return std::sqrt(acc / static_cast<double>(w.numel() - 1));
    };
    EXPECT_LT(bulk_rmse(clipped), bulk_rmse(full) / 10.0);
}

TEST(SparsityTest, TwoFourStructure)
{
    Rng rng(53);
    Tensor w(Shape{16, 32}, DType::FP32);
    w.fillGaussian(rng);
    const double retained = applyTwoFourSparsity(w);
    // Exactly two nonzeros per group of four.
    for (std::int64_t r = 0; r < 16; ++r) {
        for (std::int64_t c0 = 0; c0 < 32; c0 += 4) {
            int nonzero = 0;
            for (std::int64_t j = 0; j < 4; ++j)
                nonzero += (w.at2(r, c0 + j) != 0.0f);
            EXPECT_LE(nonzero, 2);
        }
    }
    // Keeping the two largest of four Gaussians retains most energy.
    EXPECT_GT(retained, 0.75);
    EXPECT_LT(retained, 1.0);
}

TEST(SparsityTest, AlreadySparseLosesNothing)
{
    Tensor w(Shape{4, 8}, DType::FP32);
    for (std::int64_t r = 0; r < 4; ++r)
        for (std::int64_t c = 0; c < 8; c += 4)
            w.set2(r, c, 1.0f); // one nonzero per group
    EXPECT_DOUBLE_EQ(applyTwoFourSparsity(w), 1.0);
}

} // namespace
} // namespace mtia
