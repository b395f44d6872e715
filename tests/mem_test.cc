/**
 * @file
 * Tests for the memory substrates: SECDED ECC codec (exhaustive
 * single-bit property sweep), LPDDR bandwidth/error model, LLC model
 * vs Che's approximation, SRAM partitioning, and the memory-error
 * injector.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "mem/ecc.h"
#include "mem/error_injector.h"
#include "mem/llc.h"
#include "mem/lpddr.h"
#include "mem/sram.h"
#include "sim/random.h"

namespace mtia {
namespace {

TEST(Ecc, CleanWordDecodesOk)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t data = rng.next();
        EccCodeword cw = EccCodec::encode(data);
        std::uint64_t out = 0;
        EXPECT_EQ(EccCodec::decode(cw, out), EccResult::Ok);
        EXPECT_EQ(out, data);
    }
}

class EccSingleBit : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EccSingleBit, EverySingleBitFlipIsCorrected)
{
    // Property: for several data words, flipping THIS bit position
    // always corrects back to the original data.
    const unsigned bit = GetParam();
    Rng rng(2 + bit);
    for (int trial = 0; trial < 50; ++trial) {
        const std::uint64_t data = rng.next();
        EccCodeword cw = EccCodec::encode(data);
        cw.flipBit(bit);
        std::uint64_t out = 0;
        ASSERT_EQ(EccCodec::decode(cw, out), EccResult::CorrectedSingle)
            << "bit=" << bit;
        EXPECT_EQ(out, data) << "bit=" << bit;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBits, EccSingleBit, ::testing::Range(0u, 72u));

TEST(Ecc, DoubleBitFlipsAreDetectedNotMiscorrected)
{
    Rng rng(3);
    int detected = 0;
    int trials = 0;
    for (int t = 0; t < 2000; ++t) {
        const std::uint64_t data = rng.next();
        EccCodeword cw = EccCodec::encode(data);
        const unsigned b1 = static_cast<unsigned>(rng.below(72));
        unsigned b2 = b1;
        while (b2 == b1)
            b2 = static_cast<unsigned>(rng.below(72));
        cw.flipBit(b1);
        cw.flipBit(b2);
        std::uint64_t out = 0;
        const EccResult r = EccCodec::decode(cw, out);
        ++trials;
        if (r == EccResult::DetectedDouble)
            ++detected;
        // SECDED guarantee: a double error must never be reported as
        // Ok or silently "corrected" into wrong data being trusted.
        EXPECT_NE(r, EccResult::Ok);
        EXPECT_NE(r, EccResult::CorrectedSingle);
    }
    EXPECT_EQ(detected, trials);
}

TEST(Ecc, StorageOverheadIsTwelvePointFivePercent)
{
    EXPECT_DOUBLE_EQ(EccCodec::storageOverhead(), 0.125);
}

TEST(Lpddr, EccCostsBandwidth)
{
    LpddrConfig cfg;
    cfg.capacity = 64_GiB;
    cfg.peak_bandwidth = gbPerSec(204.8);
    LpddrChannel ch(cfg);

    // Read path: 64/72 of peak = 11.1% loss.
    EXPECT_NEAR(ch.effectiveReadBandwidth() / cfg.peak_bandwidth,
                64.0 / 72.0, 1e-9);
    // Write path is worse due to read-modify-write on partial lines.
    EXPECT_LT(ch.effectiveWriteBandwidth(), ch.effectiveReadBandwidth());

    ch.setEccMode(EccMode::None);
    EXPECT_DOUBLE_EQ(ch.effectiveReadBandwidth(), cfg.peak_bandwidth);
    EXPECT_DOUBLE_EQ(ch.effectiveWriteBandwidth(), cfg.peak_bandwidth);
}

TEST(Lpddr, ReadTimeMatchesBandwidth)
{
    LpddrConfig cfg;
    cfg.peak_bandwidth = gbPerSec(200.0);
    cfg.ecc = EccMode::None;
    LpddrChannel ch(cfg);
    // 200 GB at 200 GB/s = 1 s.
    EXPECT_EQ(ch.readTime(200000000000ull), kTicksPerSec);
}

TEST(Lpddr, ErrorProcessScalesWithResidencyAndTime)
{
    LpddrConfig cfg;
    cfg.peak_bandwidth = gbPerSec(204.8);
    cfg.bit_error_rate = 1e-12;
    LpddrChannel ch(cfg);
    const double e1 = ch.expectedBitErrors(1_GiB, 3600.0);
    const double e2 = ch.expectedBitErrors(2_GiB, 3600.0);
    const double e3 = ch.expectedBitErrors(1_GiB, 7200.0);
    EXPECT_DOUBLE_EQ(e2, 2.0 * e1);
    EXPECT_DOUBLE_EQ(e3, 2.0 * e1);
    Rng rng(5);
    double acc = 0.0;
    for (int i = 0; i < 2000; ++i)
        acc += static_cast<double>(ch.sampleBitErrors(rng, 1_GiB, 3600.0));
    EXPECT_NEAR(acc / 2000.0, e1, e1 * 0.1);
}

TEST(Llc, SmallWorkingSetAlwaysHitsAfterWarmup)
{
    LlcModel llc({.capacity = 1_MiB, .line_size = 64, .associativity = 8});
    // Working set of 512 KiB fits comfortably.
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t a = 0; a < 512 * 1024; a += 64)
            llc.access(a);
    }
    // After the cold pass, everything hits.
    const double expected_hits = 2.0 * 8192.0;
    EXPECT_EQ(llc.stats().hits, expected_hits);
}

TEST(Llc, ThrashingWorkingSetMisses)
{
    LlcModel llc({.capacity = 64_KiB, .line_size = 64, .associativity = 4});
    // Working set 16x the capacity, streamed cyclically: LRU gets no
    // reuse at all.
    std::uint64_t hits = 0;
    for (int pass = 0; pass < 4; ++pass) {
        for (std::uint64_t a = 0; a < 1024 * 1024; a += 64)
            hits += llc.access(a);
    }
    EXPECT_EQ(hits, 0u);
}

TEST(Llc, DirtyWritebacksTracked)
{
    LlcModel llc({.capacity = 4_KiB, .line_size = 64, .associativity = 1});
    for (std::uint64_t a = 0; a < 4096; a += 64)
        llc.access(a, true); // fill with dirty lines
    for (std::uint64_t a = 4096; a < 8192; a += 64)
        llc.access(a, false); // evict them all
    EXPECT_EQ(llc.stats().dirty_writebacks, 64u);
}

class LlcZipf : public ::testing::TestWithParam<double>
{
};

TEST_P(LlcZipf, TraceDrivenHitRateTracksCheApproximation)
{
    const double alpha = GetParam();
    // 100k embedding rows of 128 B each, cache holding 20% of them.
    const std::uint64_t rows = 100000;
    const Bytes row_bytes = 128;
    LlcModel llc({.capacity = 20000 * row_bytes,
                  .line_size = row_bytes,
                  .associativity = 16});
    Rng rng(7);
    ZipfSampler zipf(rows, alpha);
    const int accesses = 400000;
    for (int i = 0; i < accesses; ++i)
        llc.access(zipf.sample(rng) * row_bytes);

    const double analytic = zipfLruHitRate(20000, rows, alpha);
    EXPECT_NEAR(llc.stats().hitRate(), analytic, 0.05)
        << "alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(Alphas, LlcZipf,
                         ::testing::Values(0.7, 0.9, 1.1));

TEST(LlcZipfAnalytic, BoundsAndMonotonicity)
{
    EXPECT_DOUBLE_EQ(zipfLruHitRate(1000, 1000, 0.9), 1.0);
    const double h1 = zipfLruHitRate(100, 10000, 0.9);
    const double h2 = zipfLruHitRate(1000, 10000, 0.9);
    const double h3 = zipfLruHitRate(5000, 10000, 0.9);
    EXPECT_LT(h1, h2);
    EXPECT_LT(h2, h3);
    EXPECT_GT(h1, 0.0);
    EXPECT_LT(h3, 1.0);
}

TEST(LlcZipfAnalytic, MemoizedCallsAreBitEqualToFirstCalls)
{
    // Argument sets no other test uses, so every first call computes.
    // All first calls run before any repeat, so a memo that let one
    // key answer for another would show.
    struct Args
    {
        std::uint64_t cache_items;
        std::uint64_t n_items;
        double alpha;
    };
    const Args sets[] = {
        {123, 4567, 0.83},                       // exact per-rank sums
        {123, 4567, std::nextafter(0.83, 1.0)},  // adjacent alpha bits
        {124, 4567, 0.83},
        {123, 4568, 0.83},
        {50000, 3000000, 1.05},                  // bucketed ranks
        {50000, 3000001, 1.05},
        {4567, 123, 0.83},                       // cache holds all
        {100, 1000, std::nan("")},
    };
    std::vector<double> first;
    for (const Args &a : sets)
        first.push_back(zipfLruHitRate(a.cache_items, a.n_items, a.alpha));
    EXPECT_NE(first[0], first[1]);
    for (std::size_t i = 0; i < std::size(sets); ++i) {
        const Args &a = sets[i];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      zipfLruHitRate(a.cache_items, a.n_items, a.alpha)),
                  std::bit_cast<std::uint64_t>(first[i]))
            << "set " << i;
    }
}

TEST(Sram, PartitionGranularity)
{
    SramConfig cfg; // 256 MB, 32 MB regions
    SramPartition p(cfg, 3);
    EXPECT_EQ(p.llsBytes(), 96_MiB);
    EXPECT_EQ(p.llcBytes(), 160_MiB);
    EXPECT_EQ(p.totalRegions(), 8u);
}

TEST(Sram, FitLlsRoundsUpToRegions)
{
    SramConfig cfg;
    SramPartition p(cfg, 0);
    ASSERT_TRUE(SramPartition::fitLls(cfg, 33_MiB, p));
    EXPECT_EQ(p.llsRegions(), 2u);
    ASSERT_TRUE(SramPartition::fitLls(cfg, 256_MiB, p));
    EXPECT_EQ(p.llsRegions(), 8u);
    EXPECT_EQ(p.llcBytes(), 0u);
    EXPECT_FALSE(SramPartition::fitLls(cfg, 257_MiB, p));
}

TEST(Injector, ExponentBitFlipsInFloatWeightsCauseLargeErrors)
{
    // Section 5.1: specific bits of floating-point weights cause
    // severe corruption with high probability. Statistically, a
    // random bit flip in FP32 data must produce a non-negligible rate
    // of Corrupted/NaN outcomes.
    MemoryErrorInjector inj(11);
    Tensor w(Shape{64, 64}, DType::FP32);
    w.fillGaussian(inj.rng());
    InjectionReport rep;
    rep.region = MemRegion::DenseWeights;
    for (int t = 0; t < 4000; ++t) {
        Tensor copy = w;
        switch (inj.injectAndClassify(copy)) {
          case ErrorOutcome::Benign: ++rep.benign; break;
          case ErrorOutcome::Corrupted: ++rep.corrupted; break;
          case ErrorOutcome::NaN: ++rep.nan; break;
          case ErrorOutcome::OutOfBounds: ++rep.out_of_bounds; break;
        }
        ++rep.trials;
    }
    EXPECT_GT(rep.failureRate(), 0.3);
    EXPECT_GT(rep.nan, 0u);       // exponent-field flips produce NaN/Inf
    EXPECT_GT(rep.benign, 0u);    // low mantissa bits are harmless
}

TEST(Injector, TbeIndexFlipsAreOftenCrashEquivalent)
{
    MemoryErrorInjector inj(13);
    const std::int64_t rows = 1 << 20; // 1M-row table
    int oob = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        std::int64_t idx =
            static_cast<std::int64_t>(inj.rng().below(rows));
        if (inj.injectIndexError(idx, rows) == ErrorOutcome::OutOfBounds)
            ++oob;
    }
    // Bits 20..63 of a 1M-row index all take it out of range: ~69%.
    EXPECT_NEAR(static_cast<double>(oob) / trials, 44.0 / 64.0, 0.05);
}

TEST(Injector, FlipRandomBitsCountsAreHonored)
{
    MemoryErrorInjector inj(17);
    Tensor t(Shape{128}, DType::FP32);
    t.fill(0.0f);
    inj.flipRandomBits(t, 16);
    int set_bits = 0;
    for (std::uint8_t b : t.raw())
        set_bits += __builtin_popcount(b);
    // Collisions are possible but rare: between 14 and 16 bits set.
    EXPECT_GE(set_bits, 14);
    EXPECT_LE(set_bits, 16);
}

} // namespace
} // namespace mtia
