/**
 * @file
 * Tests for the host interface: PCIe link model, real rANS and LZ
 * codecs (round-trip properties across data distributions and the
 * Section 3.3 compression-ratio findings), SHA-256 against FIPS test
 * vectors, and the Control Core deadlock scenario.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "host/compression.h"
#include "host/control_core.h"
#include "host/pcie.h"
#include "host/sha256.h"
#include "sim/random.h"
#include "tensor/dtype.h"

namespace mtia {
namespace {

TEST(Pcie, GenerationBandwidths)
{
    PcieConfig gen5{.generation = 5, .lanes = 8};
    PcieConfig gen4{.generation = 4, .lanes = 8};
    EXPECT_DOUBLE_EQ(gen5.bandwidth(), gbPerSec(32.0));
    EXPECT_DOUBLE_EQ(gen4.bandwidth(), gbPerSec(16.0));
}

TEST(Pcie, CompressedTransferHelpsOnCongestedLinks)
{
    // The decompression engine pays off when the achievable PCIe
    // bandwidth is constrained — e.g. 12 chips sharing a switch
    // uplink leave each chip a few GB/s — which is exactly the
    // retrieval-model regime Section 3.3 describes.
    PcieLink congested(PcieConfig{.generation = 5, .lanes = 2}); // 8 GB/s
    const Bytes logical = 1_GiB;
    const Tick raw = congested.transferTime(logical);
    const Tick comp = congested.compressedTransferTime(
        logical, logical / 2, gbPerSec(25.0));
    EXPECT_LT(comp, raw);
    EXPECT_NEAR(static_cast<double>(raw) / comp, 2.0, 0.05);

    // On an uncongested 32 GB/s link the 25 GB/s engine becomes the
    // bottleneck: compression cannot help there.
    PcieLink fast(PcieConfig{.generation = 5, .lanes = 8});
    const Tick comp2 = fast.compressedTransferTime(
        logical, logical / 2, gbPerSec(25.0));
    const Tick comp4 = fast.compressedTransferTime(
        logical, logical / 4, gbPerSec(25.0));
    EXPECT_EQ(comp2, comp4); // both pinned at the engine rate
}

class RansDistributions
    : public ::testing::TestWithParam<std::string>
{
  protected:
    ByteBuffer
    makeData(const std::string &kind, std::size_t n)
    {
        Rng rng(0xC0FFEE);
        ByteBuffer data(n);
        if (kind == "uniform") {
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.below(256));
        } else if (kind == "int8-weights") {
            // Quantized Gaussian weights: narrow, highly compressible.
            for (auto &b : data) {
                const double g = rng.gaussian(0.0, 12.0);
                b = static_cast<std::uint8_t>(
                    static_cast<std::int8_t>(std::clamp(g, -127.0,
                                                        127.0)));
            }
        } else if (kind == "fp16-weights") {
            for (std::size_t i = 0; i + 1 < n; i += 2) {
                const std::uint16_t h = fp32ToFp16Bits(
                    static_cast<float>(rng.gaussian(0.0, 1.0)));
                data[i] = static_cast<std::uint8_t>(h);
                data[i + 1] = static_cast<std::uint8_t>(h >> 8);
            }
        } else if (kind == "zeros") {
            std::fill(data.begin(), data.end(), 0);
        } else if (kind == "text") {
            const std::string phrase =
                "the quick brown fox jumps over the lazy dog ";
            for (std::size_t i = 0; i < n; ++i)
                data[i] = static_cast<std::uint8_t>(
                    phrase[i % phrase.size()]);
        }
        return data;
    }
};

TEST_P(RansDistributions, RoundTripsExactly)
{
    for (std::size_t n : {0ul, 1ul, 100ul, 65536ul, 200001ul}) {
        const ByteBuffer data = makeData(GetParam(), n);
        const ByteBuffer out =
            RansCodec::decompress(RansCodec::compress(data));
        ASSERT_EQ(out.size(), data.size()) << GetParam() << " n=" << n;
        EXPECT_EQ(out, data) << GetParam() << " n=" << n;
    }
}

TEST_P(RansDistributions, LzRoundTripsExactly)
{
    for (std::size_t n : {0ul, 1ul, 3ul, 100ul, 65536ul, 200001ul}) {
        const ByteBuffer data = makeData(GetParam(), n);
        const ByteBuffer out =
            LzCodec::decompress(LzCodec::compress(data));
        ASSERT_EQ(out.size(), data.size()) << GetParam() << " n=" << n;
        EXPECT_EQ(out, data) << GetParam() << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, RansDistributions,
                         ::testing::Values("uniform", "int8-weights",
                                           "fp16-weights", "zeros",
                                           "text"));

TEST(Rans, CompressionRatiosMatchSection33)
{
    Rng rng(0xBEEF);
    // INT8 quantized weights: ~up to 50% savings.
    ByteBuffer int8(512 * 1024);
    for (auto &b : int8) {
        b = static_cast<std::uint8_t>(static_cast<std::int8_t>(
            std::clamp(rng.gaussian(0.0, 4.0), -127.0, 127.0)));
    }
    const double r_int8 = RansCodec::ratio(int8);
    EXPECT_LT(r_int8, 0.60); // "up to 50%" on narrow weight spectra

    // FP16 weights: mantissa bytes are nearly incompressible.
    ByteBuffer fp16(512 * 1024);
    for (std::size_t i = 0; i + 1 < fp16.size(); i += 2) {
        const std::uint16_t h = fp32ToFp16Bits(
            static_cast<float>(rng.gaussian(0.0, 1.0)));
        fp16[i] = static_cast<std::uint8_t>(h);
        fp16[i + 1] = static_cast<std::uint8_t>(h >> 8);
    }
    const double r_fp16 = RansCodec::ratio(fp16);
    EXPECT_GT(r_fp16, 0.75);
    EXPECT_GT(r_fp16, r_int8 + 0.2);
}

TEST(Rans, RatioApproachesEntropyBound)
{
    Rng rng(0xF00D);
    ByteBuffer data(256 * 1024);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(16)); // 4 bits/byte
    const double entropy = RansCodec::entropyBitsPerByte(data);
    EXPECT_NEAR(entropy, 4.0, 0.01);
    const double ratio = RansCodec::ratio(data);
    // Within a few percent of the entropy bound (0.5) + table overhead.
    EXPECT_LT(ratio, 0.53);
    EXPECT_GT(ratio, 0.49);
}

TEST(Lz, RepetitiveInputCompressesHard)
{
    ByteBuffer data(64 * 1024, 0x42);
    EXPECT_LT(LzCodec::ratio(data), 0.02);
    // Batched feature rows: 64-byte records repeating with noise.
    Rng rng(0xABCD);
    ByteBuffer rows(128 * 1024);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i] = static_cast<std::uint8_t>((i % 64) * 3);
        if (rng.chance(0.01))
            rows[i] ^= 0xff;
    }
    EXPECT_LT(LzCodec::ratio(rows), 0.3);
}

TEST(Lz, RandomInputDoesNotExplode)
{
    Rng rng(0x1234);
    ByteBuffer data(64 * 1024);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_LT(LzCodec::ratio(data), 1.1);
}

TEST(Sha, SingleBitChangeChangesDigest)
{
    std::vector<std::uint8_t> a(1024, 0);
    std::vector<std::uint8_t> b = a;
    b[512] ^= 0x01;
    EXPECT_NE(Sha256::hash(a), Sha256::hash(b));
}

TEST(ControlCoreTest, DeadlockExistsOnlyWithHostWorkingMemory)
{
    ControlCore cc(
        ControlCoreConfig{.working_mem = ControlMemLocation::HostMemory});
    EXPECT_TRUE(cc.buildHighLoadScenario().hasDeadlock());

    cc.relocateWorkingMem(ControlMemLocation::DeviceSram);
    EXPECT_FALSE(cc.buildHighLoadScenario().hasDeadlock());
}

} // namespace
} // namespace mtia
