/**
 * Vectorized numerics kernel layer: the SIMD batch paths
 * (tensor/dtype convertBuffer, tensor/quantize, host/compression rANS
 * v2 + hash-chain LZ, ops/sparse_ops gather) must be bit-identical to
 * their element-at-a-time scalar references on every runtime SimdIsa
 * tier this machine supports, scalar included, and must bump the
 * numerics counters by the same amount on each.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "core/check.h"
#include "core/numerics_stats.h"
#include "core/simd.h"
#include "host/compression.h"
#include "host/sha256.h"
#include "ops/sparse_ops.h"
#include "sim/random.h"
#include "telemetry/metrics.h"
#include "tensor/dtype.h"
#include "tensor/quantize.h"
#include "tensor/tensor.h"

namespace mtia {
namespace {

/**
 * Runs @p body under each supported tier, scalar first, and expects
 * every tier to move the bytes_converted and gather_rows counters as
 * far as the scalar tier does.
 */
template <typename Fn>
void
forEachTier(Fn &&body)
{
    std::uint64_t ref_converted = 0, ref_gathered = 0;
    for (const simd::SimdIsa isa :
         {simd::SimdIsa::Scalar, simd::SimdIsa::Sse2, simd::SimdIsa::Neon,
          simd::SimdIsa::Avx2, simd::SimdIsa::Avx512}) {
        if (!simd::isaSupported(isa))
            continue;
        SCOPED_TRACE(simd::isaName(isa));
        simd::ScopedIsa scope(isa);
        const std::uint64_t converted = numerics::bytesConverted();
        const std::uint64_t gathered = numerics::gatherRows();
        body();
        if (isa == simd::SimdIsa::Scalar) {
            ref_converted = numerics::bytesConverted() - converted;
            ref_gathered = numerics::gatherRows() - gathered;
        }
        EXPECT_EQ(numerics::bytesConverted() - converted, ref_converted);
        EXPECT_EQ(numerics::gatherRows() - gathered, ref_gathered);
    }
}

std::uint32_t
floatBits(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, 4);
    return b;
}

std::vector<std::uint16_t>
narrowSimd(const std::vector<float> &src, DType to)
{
    std::vector<std::uint16_t> dst(src.size());
    convertBuffer(src.data(), dst.data(), src.size(), to);
    return dst;
}

std::vector<std::uint16_t>
narrowScalar(const std::vector<float> &src, DType to)
{
    std::vector<std::uint16_t> dst(src.size());
    scalar::convertBuffer(src.data(), dst.data(), src.size(), to);
    return dst;
}

/** The fp32 specials every conversion path must agree on. */
std::vector<float>
specialFloats()
{
    return {
        0.0f,
        -0.0f,
        1.0f,
        -1.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::signaling_NaN(),
        65504.0f,   // fp16 max normal
        -65504.0f,
        65519.9f,   // rounds to fp16 max normal
        65520.0f,   // first value rounding to fp16 inf
        1e30f,      // far overflow
        6.103515625e-5f,  // 2^-14, smallest fp16 normal
        6.0975552e-5f,    // just below: fp16 denormal range
        5.9604645e-8f,    // 2^-24, smallest fp16 denormal
        2.9802322e-8f,    // 2^-25: ties to even (zero)
        2.9802326e-8f,    // just above 2^-25: rounds up
        1e-40f,     // fp32 denormal, flushes to fp16 zero
        std::numeric_limits<float>::denorm_min(),
        0.1f, 0.5f, 1.5f, 2.5f, // RTNE tie patterns after scaling
        3.14159265f,
    };
}

TEST(NumericsDtype, Fp16SpecialsMatchScalarAndPerElement)
{
    forEachTier([&] {
        const std::vector<float> src = specialFloats();
        const auto vec = narrowSimd(src, DType::FP16);
        const auto ref = narrowScalar(src, DType::FP16);
        ASSERT_EQ(vec.size(), ref.size());
        for (std::size_t i = 0; i < src.size(); ++i) {
            EXPECT_EQ(vec[i], ref[i]) << "input " << src[i];
            EXPECT_EQ(vec[i], fp32ToFp16Bits(src[i])) << "input " << src[i];
        }
        // Absolute anchors for the interesting classes.
        EXPECT_EQ(fp32ToFp16Bits(0.0f), 0x0000);
        EXPECT_EQ(fp32ToFp16Bits(-0.0f), 0x8000);
        EXPECT_EQ(fp32ToFp16Bits(65504.0f), 0x7bff);
        EXPECT_EQ(fp32ToFp16Bits(65520.0f), 0x7c00); // rounds to inf
        EXPECT_EQ(fp32ToFp16Bits(2.9802322e-8f), 0x0000); // 2^-25 tie
        EXPECT_EQ(fp32ToFp16Bits(2.9802326e-8f), 0x0001); // rounds up
        EXPECT_EQ(fp32ToFp16Bits(1e-40f), 0x0000); // denormal flush
        const std::uint16_t nan16 =
            fp32ToFp16Bits(std::numeric_limits<float>::quiet_NaN());
        EXPECT_EQ(nan16 & 0x7c00, 0x7c00);
        EXPECT_NE(nan16 & 0x03ff, 0); // NaN payload survives
    });
}

TEST(NumericsDtype, Bf16SpecialsAndTiesMatchScalar)
{
    forEachTier([&] {
        std::vector<float> src = specialFloats();
        // Exact RTNE tie patterns: low half == 0x8000 rounds to even.
        float even_tie, odd_tie, nan_payload;
        std::uint32_t b = 0x3f808000; // tie, upper 0x3f80 even -> stays
        std::memcpy(&even_tie, &b, 4);
        b = 0x3f818000; // tie, upper 0x3f81 odd -> rounds up to 0x3f82
        std::memcpy(&odd_tie, &b, 4);
        b = 0x7fa00001; // NaN with payload
        std::memcpy(&nan_payload, &b, 4);
        src.push_back(even_tie);
        src.push_back(odd_tie);
        src.push_back(nan_payload);

        const auto vec = narrowSimd(src, DType::BF16);
        const auto ref = narrowScalar(src, DType::BF16);
        for (std::size_t i = 0; i < src.size(); ++i) {
            EXPECT_EQ(vec[i], ref[i]) << "input " << src[i];
            EXPECT_EQ(vec[i], fp32ToBf16Bits(src[i])) << "input " << src[i];
        }
        EXPECT_EQ(fp32ToBf16Bits(even_tie), 0x3f80);
        EXPECT_EQ(fp32ToBf16Bits(odd_tie), 0x3f82);
        const std::uint16_t n = fp32ToBf16Bits(nan_payload);
        EXPECT_EQ(n & 0x7f80, 0x7f80);
        EXPECT_NE(n & 0x007f, 0);
    });
}

TEST(NumericsDtype, Fp16WidenExhaustiveAllBitPatterns)
{
    forEachTier([&] {
        std::vector<std::uint16_t> bits(1 << 16);
        for (std::size_t i = 0; i < bits.size(); ++i)
            bits[i] = static_cast<std::uint16_t>(i);
        std::vector<float> vec(bits.size()), ref(bits.size());
        convertBuffer(bits.data(), vec.data(), bits.size(), DType::FP16);
        scalar::convertBuffer(bits.data(), ref.data(), bits.size(),
                              DType::FP16);
        for (std::size_t i = 0; i < bits.size(); ++i) {
            EXPECT_EQ(floatBits(vec[i]), floatBits(ref[i])) << "bits " << i;
            EXPECT_EQ(floatBits(vec[i]), floatBits(fp16BitsToFp32(bits[i])))
                << "bits " << i;
        }
        // Anchors: inf, -0, smallest denormal.
        EXPECT_EQ(fp16BitsToFp32(0x7c00),
                  std::numeric_limits<float>::infinity());
        EXPECT_EQ(floatBits(fp16BitsToFp32(0x8000)), 0x80000000u);
        EXPECT_EQ(fp16BitsToFp32(0x0001), std::ldexp(1.0f, -24));
    });
}

TEST(NumericsDtype, Bf16WidenExhaustiveAllBitPatterns)
{
    forEachTier([&] {
        std::vector<std::uint16_t> bits(1 << 16);
        for (std::size_t i = 0; i < bits.size(); ++i)
            bits[i] = static_cast<std::uint16_t>(i);
        std::vector<float> vec(bits.size()), ref(bits.size());
        convertBuffer(bits.data(), vec.data(), bits.size(), DType::BF16);
        scalar::convertBuffer(bits.data(), ref.data(), bits.size(),
                              DType::BF16);
        for (std::size_t i = 0; i < bits.size(); ++i) {
            EXPECT_EQ(floatBits(vec[i]), floatBits(ref[i])) << "bits " << i;
            EXPECT_EQ(floatBits(vec[i]), floatBits(bf16BitsToFp32(bits[i])))
                << "bits " << i;
        }
    });
}

TEST(NumericsDtype, RandomizedMillionElementEquivalence)
{
    forEachTier([&] {
        constexpr std::size_t kN = std::size_t{1} << 20;
        Rng rng(77);
        std::vector<float> src(kN);
        for (std::size_t i = 0; i < kN; ++i) {
            // Span the whole exponent range, specials included.
            const double mag = rng.uniform(-44.0, 44.0);
            src[i] = static_cast<float>(
                rng.gaussian(0.0, 1.0) * std::pow(10.0, mag));
            if (i % 997 == 0)
                src[i] = std::numeric_limits<float>::quiet_NaN();
            if (i % 991 == 0)
                src[i] = std::numeric_limits<float>::infinity();
        }
        EXPECT_EQ(narrowSimd(src, DType::FP16),
                  narrowScalar(src, DType::FP16));
        EXPECT_EQ(narrowSimd(src, DType::BF16),
                  narrowScalar(src, DType::BF16));

        const auto h = narrowSimd(src, DType::FP16);
        std::vector<float> wide_vec(kN), wide_ref(kN);
        convertBuffer(h.data(), wide_vec.data(), kN, DType::FP16);
        scalar::convertBuffer(h.data(), wide_ref.data(), kN, DType::FP16);
        EXPECT_EQ(std::memcmp(wide_vec.data(), wide_ref.data(), kN * 4), 0);
    });
}

TEST(NumericsDtype, OddLengthsExerciseVectorTails)
{
    forEachTier([&] {
        Rng rng(5);
        for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 15u, 33u}) {
            std::vector<float> src(n);
            for (float &v : src)
                v = static_cast<float>(rng.gaussian(0.0, 100.0));
            EXPECT_EQ(narrowSimd(src, DType::FP16),
                      narrowScalar(src, DType::FP16))
                << "n=" << n;
            EXPECT_EQ(narrowSimd(src, DType::BF16),
                      narrowScalar(src, DType::BF16))
                << "n=" << n;
        }
    });
}

float
bitsFloat(std::uint32_t b)
{
    float f;
    std::memcpy(&f, &b, 4);
    return f;
}

TEST(NumericsDtype, F16cWidenExhaustiveAndNarrowStructuredSweep)
{
    // The F16C kernels (Avx2/Avx512) against the scalar reference, and
    // convertBuffer on every other tier against the same: every half
    // widened at several start offsets and lengths (unaligned loads,
    // every tail length), and a narrowing sweep over each half's
    // value, the exact ties around it, their fp32 neighbours, the
    // subnormal and overflow edges, and NaN payloads of both kinds.
    std::vector<std::uint16_t> halves(1 << 16);
    for (std::size_t i = 0; i < halves.size(); ++i)
        halves[i] = static_cast<std::uint16_t>(i);

    std::vector<float> narrow_in;
    for (std::uint32_t sign = 0; sign <= 0x8000u; sign += 0x8000u) {
        for (std::uint32_t h = 0; h < 0x7c00u; ++h) {
            const float lo = fp16BitsToFp32(static_cast<std::uint16_t>(h));
            const float hi =
                fp16BitsToFp32(static_cast<std::uint16_t>(h + 1));
            const std::uint32_t tie = floatBits((lo + hi) * 0.5f);
            for (const std::uint32_t b :
                 {floatBits(lo), tie - 1, tie, tie + 1})
                narrow_in.push_back(bitsFloat(b | (sign << 16)));
        }
        // Below the smallest subnormal: 2^-25 ties to zero, anything
        // above it rounds up; fp32 denormals flush.
        for (const std::uint32_t b :
             {0x33000000u, 0x33000001u, 0x32ffffffu, 0x00000001u,
              0x007fffffu, 0x387fffffu, 0x38800000u, 0x477fefffu,
              0x477ff000u, 0x477fffffu, 0x47800000u, 0x7f800000u})
            narrow_in.push_back(bitsFloat(b | (sign << 16)));
        // NaNs: every top-ten payload, quiet and signalling, with and
        // without low payload bits the narrowing drops.
        for (std::uint32_t top = 0; top < 0x400u; ++top) {
            for (const std::uint32_t low : {0x0u, 0x1u, 0x1fffu}) {
                const std::uint32_t mant = (top << 13) | low;
                if (mant != 0)
                    narrow_in.push_back(
                        bitsFloat((sign << 16) | 0x7f800000u | mant));
            }
        }
    }
    std::vector<std::uint16_t> narrow_ref(narrow_in.size());
    scalar::convertBuffer(narrow_in.data(), narrow_ref.data(),
                          narrow_in.size(), DType::FP16);
    std::vector<float> widen_ref(halves.size());
    scalar::convertBuffer(halves.data(), widen_ref.data(), halves.size(),
                          DType::FP16);

    forEachTier([&] {
        const simd::SimdIsa isa = simd::activeIsa();
        const bool f16c =
            isa == simd::SimdIsa::Avx2 || isa == simd::SimdIsa::Avx512;
        for (const std::size_t start : {0u, 1u, 3u, 7u}) {
            for (const std::size_t trim : {0u, 1u, 5u}) {
                const std::size_t n = halves.size() - start - trim;
                std::vector<float> wide(n);
                convertBuffer(halves.data() + start, wide.data(), n,
                              DType::FP16);
                EXPECT_EQ(std::memcmp(wide.data(), widen_ref.data() + start,
                                      n * sizeof(float)),
                          0)
                    << "start " << start << " trim " << trim;
                std::vector<float> direct(n);
                EXPECT_EQ(simd::f16cWiden(isa, halves.data() + start,
                                          direct.data(), n),
                          f16c);
                if (f16c) {
                    EXPECT_EQ(std::memcmp(direct.data(), wide.data(),
                                          n * sizeof(float)),
                              0);
                }
            }
        }
        std::size_t mismatches = 0;
        for (const std::size_t start : {0u, 5u}) {
            const std::size_t n = narrow_in.size() - start;
            std::vector<std::uint16_t> got(n);
            convertBuffer(narrow_in.data() + start, got.data(), n,
                          DType::FP16);
            std::vector<std::uint16_t> direct(n);
            EXPECT_EQ(simd::f16cNarrow(isa, narrow_in.data() + start,
                                       direct.data(), n),
                      f16c);
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint16_t want = narrow_ref[start + i];
                if ((got[i] != want || (f16c && direct[i] != want)) &&
                    mismatches++ < 8)
                    ADD_FAILURE() << "input 0x" << std::hex
                                  << floatBits(narrow_in[start + i])
                                  << ": got 0x" << got[i] << ", want 0x"
                                  << want;
            }
        }
        EXPECT_EQ(mismatches, 0u);
    });
}

// ----------------------------------------------------------- quantize

TEST(NumericsQuantize, DynamicMatchesScalarAcrossGranularities)
{
    forEachTier([&] {
        Rng rng(11);
        // Odd shape so every kernel tail path runs; a zero row and an
        // outlier row stress the scale guard and the clamp.
        Tensor act(Shape{37, 129}, DType::FP32);
        act.fillGaussian(rng, 0.0f, 3.0f);
        for (std::int64_t k = 0; k < 129; ++k)
            act.set(5 * 129 + k, 0.0f);
        act.set(7 * 129 + 3, 1e6f);
        // An FP16 source also runs the widening convertBuffer. Its
        // outlier stays finite (1e6 is inf in fp16): non-finite inputs
        // are outside the quantizers' contract.
        Tensor act16 = act.cast(DType::FP16);
        act16.set(7 * 129 + 3, 6e4f);

        struct Case
        {
            QuantGranularity g;
            std::int64_t group_rows;
        };
        for (const Tensor *src : {&act, &act16}) {
            for (const Case c : {Case{QuantGranularity::PerTensor, 1},
                                 Case{QuantGranularity::PerRow, 1},
                                 Case{QuantGranularity::PerRowGroup, 4},
                                 Case{QuantGranularity::PerRowGroup, 16}}) {
                const QuantizedTensor a =
                    quantizeDynamic(*src, c.g, c.group_rows);
                const QuantizedTensor b =
                    scalar::quantizeDynamic(*src, c.g, c.group_rows);
                EXPECT_EQ(a.values.raw(), b.values.raw());
                EXPECT_EQ(a.group_rows, b.group_rows);
                ASSERT_EQ(a.scales.size(), b.scales.size());
                EXPECT_EQ(std::memcmp(a.scales.data(), b.scales.data(),
                                      a.scales.size() * 4),
                          0);
                const Tensor da = dequantize(a);
                const Tensor db = scalar::dequantize(b);
                EXPECT_EQ(da.raw(), db.raw());
            }
        }
    });
}

TEST(NumericsQuantize, StaticPercentileClippedOutliersStaySaturated)
{
    Rng rng(13);
    Tensor w(Shape{64, 64}, DType::FP32);
    w.fillGaussian(rng);
    w.set(0, 1e8f); // outlier far beyond the percentile clip
    Tensor w16 = w.cast(DType::FP16);
    w16.set(0, 6e4f); // finite in fp16, like every quantizer input
    // quantizeStatic has no scalar:: twin: the scalar tier, which
    // forEachTier runs first, is the byte-for-byte reference.
    std::vector<std::vector<std::uint8_t>> ref;
    forEachTier([&] {
        const QuantizedTensor q = quantizeStatic(w, 99.0);
        // The clipped outlier must pin to +127, not wrap (the int32
        // overflow case the float-domain pre-clamp guards against).
        EXPECT_EQ(static_cast<std::int8_t>(q.values.raw()[0]), 127);
        const Tensor deq = dequantize(q);
        EXPECT_GT(sqnrDb(w, deq), 0.0);

        const QuantizedTensor full = quantizeStatic(w16);
        const std::vector<std::vector<std::uint8_t>> got = {
            q.values.raw(), deq.raw(), full.values.raw(),
            dequantize(full).raw()};
        if (ref.empty())
            ref = got;
        EXPECT_EQ(got, ref);
    });
}

// -------------------------------------------------------------- codec

TEST(NumericsCodec, RansV2RoundTripsAcrossPayloads)
{
    Rng rng(17);
    std::vector<ByteBuffer> payloads;
    payloads.push_back({});                      // empty
    payloads.push_back({0x42});                  // single byte
    payloads.push_back(ByteBuffer(5, 0xaa));     // tiny constant
    ByteBuffer gauss(200000);
    for (auto &b : gauss)
        b = static_cast<std::uint8_t>(
            static_cast<std::int8_t>(rng.gaussian(0.0, 9.0)));
    payloads.push_back(gauss);
    ByteBuffer uniform(70000);
    for (auto &b : uniform)
        b = static_cast<std::uint8_t>(rng.below(256));
    payloads.push_back(uniform);

    for (const ByteBuffer &p : payloads) {
        const ByteBuffer v2 =
            RansCodec::compress(p, RansFormat::V2Interleaved);
        EXPECT_EQ(RansCodec::decompress(v2), p) << p.size();
        const ByteBuffer v1 =
            RansCodec::compress(p, RansFormat::V1Scalar);
        EXPECT_EQ(RansCodec::decompress(v1), p) << p.size();
    }
}

TEST(NumericsCodec, LegacyV1StreamsStillDecode)
{
    // A v1 container has no sentinel: its first word is the payload
    // length. decompress must keep reading those (format versioning
    // guarantee for already-written streams).
    Rng rng(19);
    ByteBuffer data(60000);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(
            static_cast<std::int8_t>(rng.gaussian(0.0, 5.0)));
    const ByteBuffer v1 = RansCodec::compress(data, RansFormat::V1Scalar);
    ASSERT_GE(v1.size(), 4u);
    std::uint32_t first_word;
    std::memcpy(&first_word, v1.data(), 4);
    EXPECT_EQ(first_word, data.size()); // no 0xffffffff sentinel
    EXPECT_EQ(RansCodec::decompress(v1), data);

    const ByteBuffer v2 =
        RansCodec::compress(data, RansFormat::V2Interleaved);
    std::memcpy(&first_word, v2.data(), 4);
    EXPECT_EQ(first_word, 0xffffffffu); // sentinel + version byte
    EXPECT_EQ(v2[4], 2);
    EXPECT_EQ(RansCodec::decompress(v2), data);
}

TEST(NumericsCodec, CorruptedFrequencyTableIsRejected)
{
    // A block header holds 256 little-endian u16 frequencies that must
    // sum to the probability scale. The first table starts at byte 8
    // in v1 (payload and block lengths) and at byte 13 in v2 (sentinel
    // and version byte first). One bumped frequency must be rejected,
    // not overflow the decoder's slot table.
    Rng rng(37);
    ByteBuffer data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(16));
    for (const RansFormat format :
         {RansFormat::V1Scalar, RansFormat::V2Interleaved}) {
        ByteBuffer stream = RansCodec::compress(data, format);
        ASSERT_EQ(RansCodec::decompress(stream), data);
        const std::size_t table = format == RansFormat::V1Scalar ? 8 : 13;
        const std::size_t at = table + 2 * std::size_t{data[0]};
        ASSERT_LT(stream[at], 0xff); // bump the low byte without carry
        ++stream[at];
        ScopedCheckThrow guard;
        EXPECT_THROW((void)RansCodec::decompress(stream), CheckFailedError)
            << "table at byte " << table;
    }
}

TEST(NumericsCodec, LzHashChainMatchesGreedySemantics)
{
    Rng rng(23);
    std::vector<ByteBuffer> payloads;
    payloads.push_back({});
    ByteBuffer repetitive(150000);
    for (std::size_t i = 0; i < repetitive.size(); ++i) {
        repetitive[i] = static_cast<std::uint8_t>((i % 96) * 5);
        if (rng.chance(0.01))
            repetitive[i] ^= 0xff;
    }
    payloads.push_back(repetitive);
    ByteBuffer random(50000);
    for (auto &b : random)
        b = static_cast<std::uint8_t>(rng.below(256));
    payloads.push_back(random);
    ByteBuffer overlap; // overlapping matches (run-length style)
    for (int i = 0; i < 5000; ++i)
        overlap.push_back(static_cast<std::uint8_t>(i % 3));
    payloads.push_back(overlap);

    for (const ByteBuffer &p : payloads) {
        const ByteBuffer chain = LzCodec::compress(p);
        const ByteBuffer greedy = LzCodec::compressGreedy(p);
        EXPECT_EQ(LzCodec::decompress(chain), p) << p.size();
        EXPECT_EQ(LzCodec::decompress(greedy), p) << p.size();
        // The stride engages only after 256 failed searches in a row.
        // Matches on the repetitive and overlapping payloads come far
        // sooner, so there the stride never engages and the matcher
        // still searches every position, over more candidates than
        // greedy's one; on the random payload neither finds a match and
        // both write the all-literal stream.
        EXPECT_LE(chain.size(), greedy.size()) << p.size();
    }
}

/** Seeded input of one of six kinds: INT8 narrow (0) and wide (1)
 *  spectrum, FP16 weights (2), 16-byte feature records (3), all-equal
 *  bytes (4) and uniform random bytes (5). */
ByteBuffer
pinnedCodecInput(int kind, std::size_t n)
{
    Rng rng = Rng(4099).fork(static_cast<std::uint64_t>(kind) * 1000003 + n);
    ByteBuffer out(n);
    if (n == 0)
        return out; // an empty buffer's data() may be null

    const auto int8 = [&](double sigma) {
        for (auto &b : out)
            b = static_cast<std::uint8_t>(static_cast<std::int8_t>(
                std::clamp(std::round(rng.gaussian(0.0, sigma)), -128.0,
                           127.0)));
    };
    switch (kind) {
    case 0:
        int8(3.0);
        break;
    case 1:
        int8(45.0);
        break;
    case 2: {
        std::vector<float> w((n + 1) / 2);
        for (float &x : w)
            x = static_cast<float>(rng.gaussian(0.0, 0.02));
        std::vector<std::uint16_t> half(w.size());
        convertBuffer(w.data(), half.data(), w.size(), DType::FP16);
        std::memcpy(out.data(), half.data(), n);
        break;
    }
    case 3: {
        const ZipfSampler users(100'000, 1.1);
        const ZipfSampler items(20'000, 0.9);
        ByteBuffer records((n + 15) / 16 * 16);
        for (std::size_t off = 0; off < records.size(); off += 16) {
            const std::uint32_t fields[4] = {
                static_cast<std::uint32_t>(users.sample(rng)),
                static_cast<std::uint32_t>(items.sample(rng)),
                static_cast<std::uint32_t>(rng.below(24)),
                static_cast<std::uint32_t>(rng.poisson(2.0))};
            std::memcpy(&records[off], fields, 16);
        }
        std::memcpy(out.data(), records.data(), n);
        break;
    }
    case 4:
        std::fill(out.begin(), out.end(), std::uint8_t{0x5a});
        break;
    default:
        for (auto &b : out)
            b = static_cast<std::uint8_t>(rng.below(256));
        break;
    }
    return out;
}

TEST(NumericsCodec, StreamBytesArePinned)
{
    // One SHA-256 per (input kind, stream) over every size's stream,
    // each prefixed by its length. The rANS and greedy LZ digests were
    // recorded from the byte-at-a-time codecs (rANS with per-symbol
    // division, LZ with a byte compare loop), so a fast path that
    // changes any stream byte fails here. The LZ chain digests (column
    // 2) were recorded from the matcher with its miss-run stride: the
    // stride changed kinds 0, 1, 2 and 5, and kinds 3 and 4 kept the
    // digests of the matcher that searched every position. The digests
    // are taken on the scalar tier, so this test does not depend on the
    // SHA-NI path either.
    static constexpr std::size_t kSizes[] = {0,     1,     3,     4,
                                             5,     63,    64,    65,
                                             65535, 65536, 65537, 524288};
    static constexpr const char *kPinned[6][4] = {
        {"34e7203bf72f099d2c6ac6540ca2de61e2fd5d4d1a7144c36e41df9c7470de69",
         "26c62197d0b123dc5e861d87a2df35efa87986c87e6611b20ec31e6a4c682c6d",
         "e28a37bb5512df9219b1d02fba2fa3c8a9543d98ea1bc3b83cd9d3c6ae96a075",
         "48ca76223a9bbcc14c543284d607e4d5a34a643783d585ba58f2b028c88242ce"},
        {"8e023e8cd5936fbbe2b0e4099bc449f9189c68a4de849cb926d168770069faa4",
         "7071a10517983acd9eee5de1a04e873b93e51cba64492583e6d60e76cf67ba3b",
         "6758069140b81f2bd5e73a86c0fb06db3345d17d7afff11b624b9c48e4d606bb",
         "f9a15fc29b212cb271378bb70355e5fa565c72d61095613ac6ebeb480d22b295"},
        {"0a555c6cab83fabfc59218c084ed2fdf59a138573488a458547a61be15d4c32f",
         "0dfeef7919b39185e8c411a739c4e493c42a9ee705dd3c1f7d82bd7fbca48684",
         "69921a440078e9842f34b61b92cd7ea554c15851c8b8d7bf2efd77211aa5d413",
         "ad4fd1087fc73a5761c8c5ecb52bd5f1b489869ef6e9868c92e0e92e56e4e541"},
        {"4aad5cfce2ec14f1a9653061d86583a88039ff67a6d22411922a1df382e5dd64",
         "ab9084e45f5067dfda5df4c94bf3d5895b56e632e9d48643e926da2a2fca0201",
         "23ed1ca329829ee0e570a65596f9faa8d851331ced2a84c5b9c5ba8a79b3aedb",
         "3ad30d61f0ed894882cd8b5ceff9497b0757538cd549c554e28d065046f7cf62"},
        {"5215e38cbc4a81775cc231c617b056b6c30247c8c41403d48eb17a430fb06b32",
         "6d32dddd59d939e94d18979bef637f1a7aa2dde6d435cf9250b6fbfc53c7c128",
         "55ace9c208a286674774e3e9b784f3a4c10c0b2d62059ce09ba79f2994d4fe38",
         "55ace9c208a286674774e3e9b784f3a4c10c0b2d62059ce09ba79f2994d4fe38"},
        {"278bcce7aefca10485296433db3d24844c8fd7c459b2a4efa03984daa2dc5fe8",
         "0e875ff22e93d26ca98263fd7d9582ce33b141d4335a56a022bded1fdea419fd",
         "c7b2b0bcee8d977c14d0f692a5eca1b79a9d7a055e48c98de91ba507f16c3cd3",
         "5fc4e995ce44ea354e3ba37dbc9420f18e88eb842c9d7e093bf3cced4d8dd7a6"},
    };
    for (int kind = 0; kind < 6; ++kind) {
        std::array<Sha256, 4> digest;
        for (const std::size_t n : kSizes) {
            const ByteBuffer in = pinnedCodecInput(kind, n);
            const ByteBuffer streams[4] = {
                RansCodec::compress(in, RansFormat::V2Interleaved),
                RansCodec::compress(in, RansFormat::V1Scalar),
                LzCodec::compress(in), LzCodec::compressGreedy(in)};
            for (int s = 0; s < 4; ++s) {
                const ByteBuffer back = s < 2
                    ? RansCodec::decompress(streams[s])
                    : LzCodec::decompress(streams[s]);
                EXPECT_EQ(back, in) << "kind " << kind << " size " << n
                                    << " stream " << s;
                const simd::ScopedIsa scalar(simd::SimdIsa::Scalar);
                const std::uint64_t len = streams[s].size();
                digest[s].update(reinterpret_cast<const std::uint8_t *>(&len),
                                 sizeof len);
                digest[s].update(streams[s]);
            }
        }
        for (int s = 0; s < 4; ++s) {
            const simd::ScopedIsa scalar(simd::SimdIsa::Scalar);
            EXPECT_EQ(Sha256::hex(digest[s].finish()), kPinned[kind][s])
                << "kind " << kind << " stream " << s
                << " (0 rANS v2, 1 rANS v1, 2 LZ chain, 3 LZ greedy)";
        }
    }
}

TEST(NumericsCodec, LzChainRatioHoldsOnEveryKindAndMixedInputs)
{
    // The chain matcher may skip ahead through a long run of failed
    // searches. This guards what that costs: each stream below may be
    // at most the size the matcher wrote when it searched every
    // position (recorded constants), plus 0.05% of the input for the
    // six pinned kinds and 0.1% for the mixes of random and repetitive
    // bytes, where the skip must wind down at the boundary.
    constexpr std::size_t kBytes = 512 * 1024;
    static constexpr std::size_t kKindBytes[6] = {374550, 526326, 526227,
                                                  263864, 2065,   526345};
    for (int kind = 0; kind < 6; ++kind) {
        const ByteBuffer in = pinnedCodecInput(kind, kBytes);
        const ByteBuffer lz = LzCodec::compress(in);
        EXPECT_EQ(LzCodec::decompress(lz), in) << "kind " << kind;
        EXPECT_LE(lz.size(), kKindBytes[kind] + kBytes * 5 / 10000)
            << "kind " << kind;
    }

    // Mixes of two 256 KiB halves: uniform random bytes and the
    // (i % 96) * 5 pattern with 1% of its bytes flipped.
    constexpr std::size_t kHalf = kBytes / 2;
    Rng rng(4111);
    ByteBuffer random(kHalf), pattern(kHalf);
    for (auto &b : random)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (std::size_t i = 0; i < kHalf; ++i) {
        pattern[i] = static_cast<std::uint8_t>((i % 96) * 5);
        if (rng.chance(0.01))
            pattern[i] ^= 0xff;
    }
    ByteBuffer mixes[3];
    mixes[0] = random; // random, then repetitive
    mixes[0].insert(mixes[0].end(), pattern.begin(), pattern.end());
    mixes[1] = pattern; // repetitive, then random
    mixes[1].insert(mixes[1].end(), random.begin(), random.end());
    constexpr std::size_t kPiece = 4096; // 64 pieces of each, alternating
    for (std::size_t off = 0; off < kHalf; off += kPiece) {
        mixes[2].insert(mixes[2].end(), random.begin() + off,
                        random.begin() + off + kPiece);
        mixes[2].insert(mixes[2].end(), pattern.begin() + off,
                        pattern.begin() + off + kPiece);
    }
    static constexpr std::size_t kMixBytes[3] = {274757, 274758, 275872};
    for (int m = 0; m < 3; ++m) {
        ASSERT_EQ(mixes[m].size(), kBytes);
        const ByteBuffer lz = LzCodec::compress(mixes[m]);
        EXPECT_EQ(LzCodec::decompress(lz), mixes[m]) << "mix " << m;
        EXPECT_LE(lz.size(), kMixBytes[m] + kBytes / 1000) << "mix " << m;
    }
}

// ------------------------------------------------------------- gather

TEST(NumericsGather, AccumulateMatchesScalarAcrossDims)
{
    std::vector<std::uint8_t> tbe_ref;
    forEachTier([&] {
        Rng rng(29);
        for (const std::int64_t dim : {1, 3, 4, 8, 11, 64, 103}) {
            constexpr std::size_t kPool = 64;
            std::vector<float> pool(kPool * static_cast<std::size_t>(dim));
            for (float &v : pool)
                v = static_cast<float>(rng.gaussian(0.0, 0.3));
            for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                            std::size_t{7},
                                            std::size_t{256}}) {
                std::vector<const float *> rows(count);
                std::vector<float> weights(count);
                for (std::size_t p = 0; p < count; ++p) {
                    rows[p] = pool.data() +
                        rng.below(kPool) * static_cast<std::size_t>(dim);
                    weights[p] = static_cast<float>(rng.uniform(0.5, 1.5));
                }
                std::vector<float> a(static_cast<std::size_t>(dim), 0.0f);
                std::vector<float> b(static_cast<std::size_t>(dim), 0.0f);
                tbe_kernels::gatherAccumulate(rows.data(), weights.data(),
                                              count, dim, a.data());
                tbe_kernels::gatherAccumulateScalar(
                    rows.data(), weights.data(), count, dim, b.data());
                EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * 4), 0)
                    << "dim=" << dim << " count=" << count;
            }
        }

        // TbeOp::run resolves the tier once for all of its bags; the
        // scalar tier's output is the reference.
        const TbeOp tbe(
            TbeTableSpec{.tables = 2, .rows_per_table = 1000, .dim = 11},
            3, 5, true);
        Rng op_rng(31);
        OpContext ctx{.rng = &op_rng};
        const Tensor out = tbe.run({}, ctx);
        if (tbe_ref.empty())
            tbe_ref = out.raw();
        EXPECT_EQ(out.raw(), tbe_ref);
    });
}

// ------------------------------------------------------ simd + stats

TEST(NumericsSimd, RtneBasics)
{
#if defined(MTIA_SIMD_VEC128)
    // RTNE through the lane-wide converter: ties go to even.
    alignas(64) float in[4] = {0.5f, 1.5f, 2.5f, -0.5f};
    alignas(64) std::int32_t out[4];
    const auto v = simd::toI32Rtne(simd::VecF32::load(in));
    v.store(out);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1], 2);
    EXPECT_EQ(out[2], 2);
    EXPECT_EQ(out[3], 0);
#endif
}

TEST(NumericsSimd, ReluMatchesStdMaxOnSpecialValues)
{
#if defined(MTIA_SIMD_VEC128)
    // Bit for bit std::max(0.0f, x): NaNs of either sign and payload
    // and -0 give +0; infinities and denormals pass or clamp by sign.
    const std::uint32_t bits[] = {
        0x00000000u, 0x80000000u, 0x7fc00000u, 0xffc00000u,
        0x7f800001u, 0xff800001u, 0x7f800000u, 0xff800000u,
        0x00000001u, 0x80000001u, 0x007fffffu, 0x807fffffu,
        0x3f800000u, 0xbf800000u, 0x7f7fffffu, 0xff7fffffu,
    };
    for (std::size_t i = 0; i < std::size(bits); i += simd::kLanes) {
        alignas(64) float in[simd::kLanes];
        alignas(64) float out[simd::kLanes];
        for (std::size_t l = 0; l < simd::kLanes; ++l)
            in[l] = std::bit_cast<float>(bits[i + l]);
        simd::relu(simd::VecF32::load(in)).store(out);
        for (std::size_t l = 0; l < simd::kLanes; ++l)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(out[l]),
                      std::bit_cast<std::uint32_t>(std::max(0.0f, in[l])))
                << std::hex << "input 0x" << bits[i + l];
    }
#endif
}

TEST(NumericsStats, CountersAccumulateAndPublish)
{
    numerics::resetStats();
    EXPECT_EQ(numerics::bytesConverted(), 0u);

    std::vector<float> src(100, 1.0f);
    std::vector<std::uint16_t> dst(100);
    convertBuffer(src.data(), dst.data(), 100, DType::FP16);
    EXPECT_EQ(numerics::bytesConverted(), 400u); // input floats
    convertBuffer(dst.data(), src.data(), 100, DType::FP16);
    EXPECT_EQ(numerics::bytesConverted(), 600u); // + input halves

    ByteBuffer data(1000, 0x5a);
    (void)RansCodec::compress(data);
    EXPECT_EQ(numerics::bytesCompressed(), 1000u);
    (void)LzCodec::compress(data);
    EXPECT_EQ(numerics::bytesCompressed(), 2000u);

    numerics::noteGatherRows(42);
    EXPECT_EQ(numerics::gatherRows(), 42u);

    telemetry::MetricRegistry registry;
    numerics::publishNumericsMetrics(registry);
    EXPECT_EQ(registry.counter("numerics.bytes_converted").value(),
              600u);
    EXPECT_EQ(registry.counter("numerics.bytes_compressed").value(),
              2000u);
    EXPECT_EQ(registry.counter("numerics.gather_rows").value(), 42u);

    numerics::resetStats();
    EXPECT_EQ(numerics::bytesConverted(), 0u);
    EXPECT_EQ(numerics::bytesCompressed(), 0u);
    EXPECT_EQ(numerics::gatherRows(), 0u);
}

// Tensor-level fast paths ride the same kernels; spot-check the cast
// round trip stays identical to the per-element accessors.
TEST(NumericsTensor, CastFastPathMatchesElementAccessors)
{
    Rng rng(31);
    Tensor t(Shape{9, 13}, DType::FP32);
    t.fillGaussian(rng, 0.0f, 10.0f);
    for (const DType half : {DType::FP16, DType::BF16}) {
        const Tensor h = t.cast(half);
        for (std::int64_t i = 0; i < t.numel(); ++i) {
            const std::uint16_t expect = half == DType::FP16
                ? fp32ToFp16Bits(t.at(i))
                : fp32ToBf16Bits(t.at(i));
            std::uint16_t got;
            std::memcpy(&got,
                        h.raw().data() + static_cast<std::size_t>(i) * 2,
                        2);
            EXPECT_EQ(got, expect) << "i=" << i;
        }
        const Tensor back = h.cast(DType::FP32);
        for (std::int64_t i = 0; i < t.numel(); ++i)
            EXPECT_EQ(floatBits(back.at(i)), floatBits(h.at(i)))
                << "i=" << i;
    }
}

} // namespace
} // namespace mtia
