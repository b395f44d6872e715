/**
 * Runtime-dispatched blocked GEMM and the fused operator layer: every
 * dispatch tier (scalar / sse2|neon / avx2 / avx512) and every thread
 * count must produce bytes identical to the element-at-a-time
 * references — DotProductEngine::gemm / gemmInt8 and the unfused
 * SimdEngine activation composition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/numerics_stats.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/simd_gemm.h"
#include "ops/gemm_kernels.h"
#include "pe/dpe.h"
#include "pe/simd_engine.h"
#include "sim/random.h"
#include "telemetry/metrics.h"
#include "tensor/quantize.h"
#include "tensor/tensor.h"

namespace mtia {
namespace {

std::vector<simd::SimdIsa>
supportedTiers()
{
    std::vector<simd::SimdIsa> tiers;
    for (const simd::SimdIsa isa :
         {simd::SimdIsa::Scalar, simd::SimdIsa::Sse2,
          simd::SimdIsa::Neon, simd::SimdIsa::Avx2,
          simd::SimdIsa::Avx512}) {
        if (simd::isaSupported(isa))
            tiers.push_back(isa);
    }
    return tiers;
}

Tensor
randomTensor(Shape shape, Rng &rng)
{
    Tensor t(shape, DType::FP32);
    t.fillGaussian(rng);
    return t;
}

struct GemmCase
{
    std::int64_t m, n, k;
};

// Odd extents exercise every partial-tile path of every micro-kernel
// (mr/nr remainders, nc blocks that end mid-strip, kc tails).
constexpr GemmCase kCases[] = {
    {37, 29, 53}, {64, 48, 32}, {1, 7, 5}, {128, 96, 64}, {4, 33, 128},
};

TEST(SimdDispatchTest, ScalarAlwaysSupportedAndBestIsSupported)
{
    EXPECT_TRUE(simd::isaSupported(simd::SimdIsa::Scalar));
    EXPECT_TRUE(simd::isaSupported(simd::detectBestIsa()));
    EXPECT_TRUE(simd::isaSupported(simd::activeIsa()));
}

TEST(SimdDispatchTest, ScopedIsaOverridesAndNests)
{
    const simd::SimdIsa base = simd::activeIsa();
    {
        simd::ScopedIsa outer(simd::SimdIsa::Scalar);
        EXPECT_EQ(simd::activeIsa(), simd::SimdIsa::Scalar);
        for (const simd::SimdIsa isa : supportedTiers()) {
            simd::ScopedIsa inner(isa);
            EXPECT_EQ(simd::activeIsa(), isa);
        }
        EXPECT_EQ(simd::activeIsa(), simd::SimdIsa::Scalar);
    }
    EXPECT_EQ(simd::activeIsa(), base);
}

TEST(SimdDispatchTest, TierNamesRoundTrip)
{
    for (const simd::SimdIsa isa : supportedTiers())
        EXPECT_STRNE(simd::isaName(isa), "");
}

TEST(GemmKernelsTest, EveryTierAndThreadCountMatchesDpeReference)
{
    const DotProductEngine dpe;
    Rng rng(101);
    for (const GemmCase &c : kCases) {
        const Tensor a = randomTensor(Shape{c.m, c.k}, rng);
        const Tensor b = randomTensor(Shape{c.k, c.n}, rng);
        for (const DType dt :
             {DType::FP32, DType::FP16, DType::BF16}) {
            const Tensor ref = dpe.gemm(a, b, dt);
            for (const simd::SimdIsa isa : supportedTiers()) {
                for (const unsigned lanes : {1u, 2u, 8u}) {
                    ScopedParallelism scope(lanes);
                    const Tensor c_out = gemm_kernels::gemm(
                        a, b, dt, isa, simd::GemmBlocking{});
                    EXPECT_EQ(c_out.raw(), ref.raw())
                        << c.m << "x" << c.n << "x" << c.k << " dtype "
                        << dtypeName(dt) << " tier "
                        << simd::isaName(isa) << " lanes " << lanes;
                }
            }
        }
    }
}

/**
 * Writes raw element bits into @p t at flat index @p i: FP32 takes
 * all 32 bits, FP16/BF16 the low 16.
 */
void
setBits(Tensor &t, std::int64_t i, std::uint32_t bits)
{
    std::uint8_t *p = t.raw().data() + i * dtypeSize(t.dtype());
    if (t.dtype() == DType::FP32) {
        std::memcpy(p, &bits, 4);
    } else {
        const auto h = static_cast<std::uint16_t>(bits);
        std::memcpy(p, &h, 2);
    }
}

/** {signalling NaN, quiet NaN, smallest denormal, largest denormal}
 *  bit patterns of @p dt. */
std::array<std::uint32_t, 4>
specialBits(DType dt)
{
    switch (dt) {
    case DType::FP16:
        return {0x7d01u, 0xfe03u, 0x0001u, 0x83ffu};
    case DType::BF16:
        return {0x7f81u, 0xffc3u, 0x0001u, 0x807fu};
    default:
        return {0x7f800101u, 0xffc00003u, 0x00000001u, 0x807fffffu};
    }
}

TEST(GemmKernelsTest, RowSourceMatrixMatchesDpeOnEveryTierAndLaneCount)
{
    // Every stored dtype x compute dtype the row source converts
    // between, on shapes off the mr/nr/kc multiples (n = 1 and k = 0
    // included). Each operand carries a signalling NaN, a quiet NaN
    // and denormals. A NaN sits in only one operand per run and at
    // most once per A row (B column), so no output element meets two
    // NaNs and the result bits do not depend on which one an add
    // keeps.
    const DotProductEngine dpe;
    constexpr GemmCase kEdgeCases[] = {
        {7, 37, 300}, {5, 1, 19}, {6, 33, 0}, {13, 65, 257}, {1, 31, 1},
    };
    const simd::GemmBlocking blockings[] = {{}, {5, 7, 40}};
    constexpr DType kDtypes[] = {DType::FP32, DType::FP16, DType::BF16};
    Rng rng(108);
    for (const GemmCase &c : kEdgeCases) {
        for (const DType stored : kDtypes) {
            for (const bool nan_in_a : {true, false}) {
                Tensor a(Shape{c.m, c.k}, stored);
                Tensor b(Shape{c.k, c.n}, stored);
                a.fillGaussian(rng);
                b.fillGaussian(rng);
                const auto sp = specialBits(stored);
                if (c.k > 0) {
                    // Denormals anywhere; NaNs in distinct A rows or
                    // distinct B columns.
                    setBits(a, 0, sp[2]);
                    setBits(a, c.m * c.k - 1, sp[3]);
                    setBits(b, 0, sp[3]);
                    setBits(b, c.k * c.n - 1, sp[2]);
                    if (nan_in_a) {
                        setBits(a, (c.m / 2) * c.k + c.k / 3, sp[0]);
                        if (c.m > 1)
                            setBits(a, (c.m - 1) * c.k, sp[1]);
                    } else {
                        setBits(b, (c.k / 2) * c.n + c.n / 2, sp[0]);
                        if (c.n > 1)
                            setBits(b, (c.k - 1) * c.n + c.n - 1, sp[1]);
                    }
                }
                for (const DType compute : kDtypes) {
                    const Tensor ref = dpe.gemm(a, b, compute);
                    for (const simd::SimdIsa isa : supportedTiers()) {
                        for (const unsigned lanes : {1u, 2u, 8u}) {
                            ScopedParallelism scope(lanes);
                            for (const simd::GemmBlocking &blk : blockings) {
                                const Tensor out =
                                    gemm_kernels::gemm(a, b, compute, isa,
                                                       blk);
                                EXPECT_EQ(out.raw(), ref.raw())
                                    << c.m << "x" << c.n << "x" << c.k
                                    << " stored " << dtypeName(stored)
                                    << " compute " << dtypeName(compute)
                                    << (nan_in_a ? " nan in a" : " nan in b")
                                    << " tier " << simd::isaName(isa)
                                    << " lanes " << lanes << " kc "
                                    << blk.kc;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(GemmKernelsTest, EdgeShapesMatchDpeOnEveryTierAndLaneCount)
{
    // n = 1, and m and n one past a multiple of each tier's tile:
    // 4k+1 rows (mr = 4 on every tier); 8k+1, 16k+1 and 32k+1 columns
    // (the fp32 nr of vec128, avx2 and avx512, and the int8 nr8 of
    // each). k = 300 and 257 cross the 256-deep panel boundary.
    const DotProductEngine dpe;
    constexpr GemmCase kEdges[] = {
        {5, 1, 37},   {9, 33, 64}, {65, 65, 300}, {4, 17, 19},
        {13, 9, 257}, {1, 1, 1},   {8, 129, 40},
    };
    Rng rng(109);
    for (const GemmCase &c : kEdges) {
        const Tensor a = randomTensor(Shape{c.m, c.k}, rng);
        const Tensor b = randomTensor(Shape{c.k, c.n}, rng);
        const QuantizedTensor w = quantizeStatic(b);
        const Tensor ref_i8 = dpe.gemmInt8(
            quantizeDynamic(a, QuantGranularity::PerRow), w);
        // The fp32 operand also carries an inf and a NaN in distinct
        // rows, so the fused ReLU epilogue meets inf, -inf and NaN.
        Tensor a_special = a;
        if (c.m > 1) {
            setBits(a_special, c.k / 2, 0x7f800000u);
            setBits(a_special, (c.m - 1) * c.k, 0x7fc00001u);
        }
        const Tensor ref = dpe.gemm(a_special, b, DType::FP32);
        const Tensor relu_ref = gemm_kernels::sharedSimdEngine().apply(
            Nonlinearity::Relu, ref);
        for (const simd::SimdIsa isa : supportedTiers()) {
            for (const unsigned lanes : {1u, 2u, 8u}) {
                ScopedParallelism scope(lanes);
                SCOPED_TRACE(::testing::Message()
                             << c.m << "x" << c.n << "x" << c.k << " tier "
                             << simd::isaName(isa) << " lanes " << lanes);
                const simd::GemmBlocking blk;
                EXPECT_EQ(
                    gemm_kernels::gemm(a_special, b, DType::FP32, isa, blk)
                        .raw(),
                    ref.raw());
                EXPECT_EQ(gemm_kernels::fusedGemmActivation(
                              a_special, b, DType::FP32, Nonlinearity::Relu,
                              /*use_lut=*/true, isa, blk)
                              .raw(),
                          relu_ref.raw());
                EXPECT_EQ(gemm_kernels::fusedQuantizedGemm(
                              a, w, /*has_activation=*/false,
                              Nonlinearity::Relu, /*use_lut=*/true, isa,
                              blk)
                              .raw(),
                          ref_i8.raw());
            }
        }
    }
}

TEST(GemmKernelsTest, SmallBlockingsSplitEveryLoopIdentically)
{
    const DotProductEngine dpe;
    Rng rng(102);
    const Tensor a = randomTensor(Shape{65, 47}, rng);
    const Tensor b = randomTensor(Shape{47, 51}, rng);
    const Tensor ref = dpe.gemm(a, b, DType::FP32);
    const simd::GemmBlocking blockings[] = {
        {8, 16, 24}, {1, 1, 1}, {16, 8, 8}, {64, 256, 512}};
    for (const simd::SimdIsa isa : supportedTiers()) {
        for (const simd::GemmBlocking &blk : blockings) {
            const Tensor c =
                gemm_kernels::gemm(a, b, DType::FP32, isa, blk);
            EXPECT_EQ(c.raw(), ref.raw())
                << simd::isaName(isa) << " mc" << blk.mc << " kc"
                << blk.kc << " nc" << blk.nc;
        }
    }
}

TEST(GemmKernelsTest, FusedActivationMatchesUnfusedComposition)
{
    const DotProductEngine dpe;
    Rng rng(103);
    const Tensor a = randomTensor(Shape{45, 37}, rng);
    const Tensor b = randomTensor(Shape{37, 41}, rng);
    const Tensor c_ref = dpe.gemm(a, b, DType::FP16);
    for (const Nonlinearity f :
         {Nonlinearity::Relu, Nonlinearity::Gelu, Nonlinearity::Tanh,
          Nonlinearity::Silu}) {
        const Tensor lut_ref =
            gemm_kernels::sharedSimdEngine().apply(f, c_ref);
        const Tensor exact_ref = SimdEngine::applyExact(f, c_ref);
        for (const simd::SimdIsa isa : supportedTiers()) {
            for (const unsigned lanes : {1u, 8u}) {
                ScopedParallelism scope(lanes);
                const Tensor lut = gemm_kernels::fusedGemmActivation(
                    a, b, DType::FP16, f, /*use_lut=*/true, isa,
                    simd::GemmBlocking{});
                const Tensor exact = gemm_kernels::fusedGemmActivation(
                    a, b, DType::FP16, f, /*use_lut=*/false, isa,
                    simd::GemmBlocking{});
                EXPECT_EQ(lut.raw(), lut_ref.raw())
                    << nonlinearityName(f) << " lut tier "
                    << simd::isaName(isa) << " lanes " << lanes;
                EXPECT_EQ(exact.raw(), exact_ref.raw())
                    << nonlinearityName(f) << " exact tier "
                    << simd::isaName(isa) << " lanes " << lanes;
            }
        }
    }
}

TEST(GemmKernelsTest, FusedQuantizedGemmMatchesUnfusedComposition)
{
    const DotProductEngine dpe;
    Rng rng(104);
    const Tensor a = randomTensor(Shape{33, 61}, rng);
    const Tensor b = randomTensor(Shape{61, 29}, rng);
    const QuantizedTensor w = quantizeStatic(b);
    const QuantizedTensor qa =
        quantizeDynamic(a, QuantGranularity::PerRow);
    const Tensor plain_ref = dpe.gemmInt8(qa, w);
    const Tensor act_ref =
        gemm_kernels::sharedSimdEngine().apply(Nonlinearity::Relu,
                                               plain_ref);
    for (const simd::SimdIsa isa : supportedTiers()) {
        for (const unsigned lanes : {1u, 8u}) {
            ScopedParallelism scope(lanes);
            const Tensor plain = gemm_kernels::fusedQuantizedGemm(
                a, w, /*has_activation=*/false, Nonlinearity::Relu,
                /*use_lut=*/true, isa, simd::GemmBlocking{});
            const Tensor act = gemm_kernels::fusedQuantizedGemm(
                a, w, /*has_activation=*/true, Nonlinearity::Relu,
                /*use_lut=*/true, isa, simd::GemmBlocking{});
            EXPECT_EQ(plain.raw(), plain_ref.raw())
                << "tier " << simd::isaName(isa) << " lanes " << lanes;
            EXPECT_EQ(act.raw(), act_ref.raw())
                << "tier " << simd::isaName(isa) << " lanes " << lanes;
        }
    }
}

// Randomized property sweep mirroring tests/numerics_test.cc: a
// million-element output, Gaussian inputs, every tier and a serial vs
// wide thread count — all byte-identical to the scalar reference.
TEST(GemmKernelsTest, MillionElementPropertySweep)
{
    const DotProductEngine dpe;
    Rng rng(105);
    const Tensor a = randomTensor(Shape{1024, 64}, rng);
    const Tensor b = randomTensor(Shape{64, 1024}, rng);
    const Tensor ref = dpe.gemm(a, b, DType::FP16);
    ASSERT_EQ(ref.shape().numel(), 1024 * 1024);
    for (const simd::SimdIsa isa : supportedTiers()) {
        for (const unsigned lanes : {1u, 8u}) {
            ScopedParallelism scope(lanes);
            const Tensor c = gemm_kernels::gemm(a, b, DType::FP16, isa,
                                                simd::GemmBlocking{});
            EXPECT_EQ(c.raw(), ref.raw())
                << "tier " << simd::isaName(isa) << " lanes " << lanes;
        }
    }
}

TEST(GemmKernelsTest, ActiveIsaDefaultMatchesExplicitTier)
{
    Rng rng(106);
    const Tensor a = randomTensor(Shape{19, 23}, rng);
    const Tensor b = randomTensor(Shape{23, 31}, rng);
    for (const simd::SimdIsa isa : supportedTiers()) {
        simd::ScopedIsa scope(isa);
        const Tensor via_active = gemm_kernels::gemm(a, b, DType::FP32);
        const Tensor via_explicit = gemm_kernels::gemm(
            a, b, DType::FP32, isa, simd::GemmBlocking{});
        EXPECT_EQ(via_active.raw(), via_explicit.raw())
            << simd::isaName(isa);
    }
}

TEST(GemmKernelsTest, GemmFlopsCounterTracksWork)
{
    numerics::resetStats();
    Rng rng(107);
    const Tensor a = randomTensor(Shape{12, 34}, rng);
    const Tensor b = randomTensor(Shape{34, 56}, rng);
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

TEST(GemmKernelsTest, OperandConversionMatchesThreePassRoundTripOnAllHalfPatterns)
{
    // A half operand stored in the compute dtype is widened in one
    // pass per row segment. It must equal the three-pass round trip
    // (widen, narrow, widen) on every bit pattern, signalling NaNs
    // included.
    for (const DType dt : {DType::FP16, DType::BF16}) {
        Tensor t(Shape{256, 256}, dt);
        auto *bits = reinterpret_cast<std::uint16_t *>(t.raw().data());
        for (std::uint32_t i = 0; i < (1u << 16); ++i)
            bits[i] = static_cast<std::uint16_t>(i);
        for (const simd::SimdIsa isa : supportedTiers()) {
            SCOPED_TRACE(simd::isaName(isa));
            const simd::ScopedIsa scope(isa);
            std::vector<float> ref = t.toFloats();
            std::vector<std::uint16_t> narrow(ref.size());
            convertBuffer(ref.data(), narrow.data(), ref.size(), dt);
            convertBuffer(narrow.data(), ref.data(), ref.size(), dt);

            // Read through the row source in ragged column segments,
            // as the pack does.
            const gemm_kernels::OperandRows rows{&t, dt};
            const simd::RowSource src = rows.source();
            std::vector<float> got(ref.size());
            for (std::int64_t r = 0; r < 256; ++r) {
                for (std::int64_t c0 = 0; c0 < 256; c0 += 97) {
                    const std::int64_t len = std::min<std::int64_t>(
                        97, 256 - c0);
                    float *dst = got.data() + r * 256 + c0;
                    const float *row = src.row(r, c0, len, dst);
                    std::copy(row, row + len, dst);
                }
            }
            ASSERT_EQ(got.size(), ref.size());
            std::size_t mismatches = 0;
            for (std::size_t i = 0; i < ref.size(); ++i) {
                const auto g = std::bit_cast<std::uint32_t>(got[i]);
                const auto r = std::bit_cast<std::uint32_t>(ref[i]);
                if (g != r && mismatches++ == 0)
                    ADD_FAILURE() << dtypeName(dt) << " pattern 0x"
                                  << std::hex << i << ": got 0x" << g
                                  << ", three-pass 0x" << r;
            }
            EXPECT_EQ(mismatches, 0u) << dtypeName(dt);
        }
    }
}

} // namespace
} // namespace mtia
