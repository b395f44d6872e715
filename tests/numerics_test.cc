/**
 * Vectorized numerics kernel layer, outside the tier-by-tier
 * comparisons of conformance_test.cc: codec round trips, stream
 * versioning and corrupt-table rejection, the 128-bit lane helpers,
 * the numerics counters and the tensor cast fast path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "core/check.h"
#include "core/numerics_stats.h"
#include "core/simd.h"
#include "host/compression.h"
#include "sim/random.h"
#include "telemetry/metrics.h"
#include "tensor/dtype.h"
#include "tensor/tensor.h"

namespace mtia {
namespace {

std::uint32_t
floatBits(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, 4);
    return b;
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
