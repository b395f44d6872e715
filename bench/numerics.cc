/**
 * @file
 * Vectorized numerics microbenchmark: the SIMD kernel layer
 * (core/simd.h) against the element-at-a-time reference paths it
 * replaced, over the four hot mixes the simulator actually runs:
 *
 *   conversion    bulk fp32→fp16/bf16 narrowing and fp16→fp32
 *                 widening (tensor/dtype convertBuffer vs
 *                 scalar::convertBuffer)
 *   quantization  fused min/max + scale + clamp INT8 dynamic
 *                 quantization (tensor/quantize vs scalar::*)
 *   codec         4-way interleaved rANS (format v2) vs the scalar
 *                 single-state v1 stream, plus hash-chain vs greedy LZ
 *   gather        blocked, prefetched TBE row gather-accumulate vs
 *                 the scalar reference kernel
 *
 * Under MTIA_SIMD_ISA=scalar the kernels run their scalar path, so the
 * conversion and gather ratios sit near 1x.
 *
 * Every mix asserts bit-identical results between the two paths (hard
 * [1, 1] gates in BENCH_numerics.json); the measured throughput
 * ratios are wall-clock by nature and land only under the report's
 * "wall_clock_ratios" array, where CI applies a warn-only >= 2x gate
 * on the conversion and quantization entries.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/numerics_stats.h"
#include "core/simd.h"
#include "host/compression.h"
#include "ops/sparse_ops.h"
#include "sim/random.h"
#include "telemetry/metrics.h"
#include "tensor/dtype.h"
#include "tensor/quantize.h"

using namespace mtia;

namespace {

constexpr int kReps = 3; // best-of, to damp scheduler noise

/** FNV-1a over a byte range: the determinism checksum for each rep. */
std::uint64_t
fnv(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

struct Timed
{
    double seconds = 0.0;
    std::uint64_t checksum = 0;
};

/**
 * Best wall-clock of kReps identical runs. @p fn does the work under
 * measurement; @p sum checksums its output outside the timed region
 * and must agree across reps.
 */
template <typename Fn, typename Sum>
Timed
bestOf(Fn &&fn, Sum &&sum)
{
    Timed best;
    for (int r = 0; r < kReps; ++r) {
        bench::WallTimer timer;
        fn();
        const double secs = timer.seconds();
        const std::uint64_t cs = sum();
        if (r == 0) {
            best = {secs, cs};
        } else {
            MTIA_CHECK_EQ(cs, best.checksum)
                << ": non-deterministic benchmark repetition";
            best.seconds = std::min(best.seconds, secs);
        }
    }
    return best;
}

double
ratioOf(const Timed &scalar, const Timed &vectorized)
{
    return vectorized.seconds > 0.0
        ? scalar.seconds / vectorized.seconds
        : 1.0;
}

/** Gaussian floats with every fp16 special class sprinkled in. */
std::vector<float>
makeConversionInput(std::size_t n, Rng &rng)
{
    std::vector<float> src(n);
    for (float &v : src)
        v = static_cast<float>(rng.gaussian(0.0, 4.0));
    const float specials[] = {
        0.0f,
        -0.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        65504.0f,  // fp16 max normal
        65520.0f,  // first fp32 value rounding to fp16 inf
        6.1e-5f,   // near the fp16 normal/denormal boundary
        5.96e-8f,  // deep fp16 denormal range
        1e-40f,    // fp32 denormal, flushes to fp16 zero
    };
    constexpr std::size_t kSpecialCount =
        sizeof(specials) / sizeof(specials[0]);
    for (std::size_t i = 0, k = 0; i < n; i += 1009, ++k)
        src[i] = specials[k % kSpecialCount];
    return src;
}

} // namespace

int
main()
{
    bench::banner(
        "Vectorized numerics — SIMD kernel layer vs scalar reference",
        "Bulk dtype conversion, fused INT8 quantization, interleaved "
        "rANS, and TBE gather; bit-identical results, measured "
        "wall-clock ratios.");

    numerics::resetStats();
    telemetry::MetricRegistry metrics;
    bench::Report report("numerics");
    const simd::SimdIsa isa = simd::activeIsa();
    bench::row("simd tier (path)", "scalar / 128-bit",
               std::string(simd::isaName(isa)) +
                   (isa == simd::SimdIsa::Scalar ? " (scalar)"
                                                 : " (128-bit)"));
    report.metric("simd_lanes", static_cast<double>(simd::kLanes));

    // ---- conversion ----------------------------------------------
    constexpr std::size_t kConvElems = std::size_t{1} << 22; // 16 MiB
    Rng rng(23);
    const std::vector<float> conv_src =
        makeConversionInput(kConvElems, rng);
    std::vector<std::uint16_t> h_simd(kConvElems), h_ref(kConvElems);
    std::vector<std::uint16_t> b_simd(kConvElems), b_ref(kConvElems);
    std::vector<float> w_simd(kConvElems), w_ref(kConvElems);

    const Timed conv_vec = bestOf(
        [&] {
            convertBuffer(conv_src.data(), h_simd.data(), kConvElems,
                          DType::FP16);
            convertBuffer(conv_src.data(), b_simd.data(), kConvElems,
                          DType::BF16);
            convertBuffer(h_simd.data(), w_simd.data(), kConvElems,
                          DType::FP16);
        },
        [&] {
            return fnv(h_simd.data(), kConvElems * 2) ^
                fnv(b_simd.data(), kConvElems * 2) ^
                fnv(w_simd.data(), kConvElems * 4);
        });
    const Timed conv_ref = bestOf(
        [&] {
            scalar::convertBuffer(conv_src.data(), h_ref.data(),
                                  kConvElems, DType::FP16);
            scalar::convertBuffer(conv_src.data(), b_ref.data(),
                                  kConvElems, DType::BF16);
            scalar::convertBuffer(h_ref.data(), w_ref.data(),
                                  kConvElems, DType::FP16);
        },
        [&] {
            return fnv(h_ref.data(), kConvElems * 2) ^
                fnv(b_ref.data(), kConvElems * 2) ^
                fnv(w_ref.data(), kConvElems * 4);
        });

    const bool conv_equal = h_simd == h_ref && b_simd == b_ref &&
        std::memcmp(w_simd.data(), w_ref.data(), kConvElems * 4) == 0;
    const double conv_ratio = ratioOf(conv_ref, conv_vec);

    bench::section("conversion mix (fp32->fp16, fp32->bf16, fp16->fp32)");
    bench::row("scalar reference Melems/sec", "baseline",
               bench::fmt("%.1f", conv_ref.seconds > 0.0
                              ? 3.0 * static_cast<double>(kConvElems) /
                                  conv_ref.seconds / 1e6
                              : 0.0));
    bench::row("simd kernels Melems/sec", ">= 2x scalar",
               bench::fmt("%.1f", conv_vec.seconds > 0.0
                              ? 3.0 * static_cast<double>(kConvElems) /
                                  conv_vec.seconds / 1e6
                              : 0.0));
    bench::row("speedup", "-", bench::fmt("%.2fx", conv_ratio));
    bench::row("bit-identical output", "required",
               conv_equal ? "yes" : "NO — DIVERGED");

    report.metric("conversion_bits_equal", conv_equal ? 1.0 : 0.0, 1.0,
                  1.0);
    report.wallClockRatio("conversion", conv_ratio);

    // ---- quantization --------------------------------------------
    Tensor act(Shape{512, 2048}, DType::FP32);
    act.fillGaussian(rng);

    QuantizedTensor q_vec, q_ref;
    const Timed quant_vec = bestOf(
        [&] { q_vec = quantizeDynamic(act, QuantGranularity::PerRow); },
        [&] {
            return fnv(q_vec.values.raw().data(),
                       q_vec.values.raw().size()) ^
                fnv(q_vec.scales.data(), q_vec.scales.size() * 4);
        });
    const Timed quant_ref = bestOf(
        [&] {
            q_ref = scalar::quantizeDynamic(act,
                                            QuantGranularity::PerRow);
        },
        [&] {
            return fnv(q_ref.values.raw().data(),
                       q_ref.values.raw().size()) ^
                fnv(q_ref.scales.data(), q_ref.scales.size() * 4);
        });

    bool quant_equal = quant_vec.checksum == quant_ref.checksum &&
        q_vec.values.raw() == q_ref.values.raw() &&
        q_vec.scales.size() == q_ref.scales.size() &&
        std::memcmp(q_vec.scales.data(), q_ref.scales.data(),
                    q_vec.scales.size() * 4) == 0;
    // Also check the other two granularities (untimed) and the
    // dequantize direction.
    for (const QuantGranularity g : {QuantGranularity::PerTensor,
                                     QuantGranularity::PerRowGroup}) {
        const QuantizedTensor a = quantizeDynamic(act, g, 16);
        const QuantizedTensor b = scalar::quantizeDynamic(act, g, 16);
        quant_equal = quant_equal && a.values.raw() == b.values.raw() &&
            std::memcmp(a.scales.data(), b.scales.data(),
                        a.scales.size() * 4) == 0;
        const Tensor da = dequantize(a);
        const Tensor db = scalar::dequantize(b);
        quant_equal = quant_equal && da.raw() == db.raw();
    }
    const double quant_ratio = ratioOf(quant_ref, quant_vec);

    bench::section("quantization mix (dynamic INT8, per-row)");
    bench::row("scalar reference ms", "baseline",
               bench::fmt("%.2f", quant_ref.seconds * 1e3));
    bench::row("fused simd kernel ms", ">= 2x scalar",
               bench::fmt("%.2f", quant_vec.seconds * 1e3));
    bench::row("speedup", "-", bench::fmt("%.2fx", quant_ratio));
    bench::row("identical payload + scales", "required",
               quant_equal ? "yes" : "NO — DIVERGED");

    report.metric("quantization_bits_equal", quant_equal ? 1.0 : 0.0,
                  1.0, 1.0);
    report.wallClockRatio("quantization", quant_ratio);

    // ---- codec ---------------------------------------------------
    ByteBuffer int8(1 << 20);
    for (auto &b : int8)
        b = static_cast<std::uint8_t>(static_cast<std::int8_t>(
            std::clamp(rng.gaussian(0.0, 4.0), -127.0, 127.0)));
    ByteBuffer features(1 << 20);
    for (std::size_t i = 0; i < features.size(); ++i) {
        features[i] = static_cast<std::uint8_t>((i % 128) * 3);
        if (rng.chance(0.02))
            features[i] ^= 0xff;
    }

    ByteBuffer rans_v2, rans_v2_back;
    const Timed codec_vec = bestOf(
        [&] {
            rans_v2 =
                RansCodec::compress(int8, RansFormat::V2Interleaved);
            rans_v2_back = RansCodec::decompress(rans_v2);
        },
        [&] {
            return fnv(rans_v2.data(), rans_v2.size()) ^
                fnv(rans_v2_back.data(), rans_v2_back.size());
        });
    ByteBuffer rans_v1, rans_v1_back;
    const Timed codec_ref = bestOf(
        [&] {
            rans_v1 = RansCodec::compress(int8, RansFormat::V1Scalar);
            rans_v1_back = RansCodec::decompress(rans_v1);
        },
        [&] {
            return fnv(rans_v1.data(), rans_v1.size()) ^
                fnv(rans_v1_back.data(), rans_v1_back.size());
        });

    const ByteBuffer lz_chain = LzCodec::compress(features);
    const ByteBuffer lz_greedy = LzCodec::compressGreedy(features);
    const bool codec_ok = rans_v2_back == int8 && rans_v1_back == int8 &&
        LzCodec::decompress(lz_chain) == features &&
        LzCodec::decompress(lz_greedy) == features &&
        lz_chain.size() <= lz_greedy.size();
    const double codec_ratio = ratioOf(codec_ref, codec_vec);

    bench::section("codec mix (1 MiB INT8 spectrum round-trip)");
    bench::row("v1 scalar rANS MB/sec", "baseline",
               bench::fmt("%.1f", codec_ref.seconds > 0.0
                              ? 1.0 / codec_ref.seconds
                              : 0.0));
    bench::row("v2 interleaved rANS MB/sec", "> 1x scalar",
               bench::fmt("%.1f", codec_vec.seconds > 0.0
                              ? 1.0 / codec_vec.seconds
                              : 0.0));
    bench::row("speedup", "-", bench::fmt("%.2fx", codec_ratio));
    bench::row("hash-chain LZ vs greedy bytes", "<=",
               bench::fmt("%.1f%%",
                          100.0 * static_cast<double>(lz_chain.size()) /
                              static_cast<double>(lz_greedy.size())));
    bench::row("all round-trips exact", "required",
               codec_ok ? "yes" : "NO — CORRUPTED");

    report.metric("codec_roundtrip_ok", codec_ok ? 1.0 : 0.0, 1.0, 1.0);
    report.wallClockRatio("codec", codec_ratio);

    // ---- gather --------------------------------------------------
    constexpr std::size_t kPoolRows = 1024;
    constexpr std::int64_t kDim = 103; // exercises 8/4/scalar tails
    constexpr std::size_t kGathers = 1u << 14;
    std::vector<float> pool(kPoolRows * static_cast<std::size_t>(kDim));
    for (float &v : pool)
        v = static_cast<float>(rng.gaussian(0.0, 0.2));
    std::vector<const float *> rows(kGathers);
    std::vector<float> weights(kGathers);
    for (std::size_t p = 0; p < kGathers; ++p) {
        rows[p] = pool.data() +
            rng.below(kPoolRows) * static_cast<std::size_t>(kDim);
        weights[p] = static_cast<float>(rng.uniform(0.5, 1.5));
    }
    std::vector<float> out_vec(static_cast<std::size_t>(kDim));
    std::vector<float> out_ref(static_cast<std::size_t>(kDim));

    const Timed gather_vec = bestOf(
        [&] {
            std::fill(out_vec.begin(), out_vec.end(), 0.0f);
            tbe_kernels::gatherAccumulate(rows.data(), weights.data(),
                                          kGathers, kDim,
                                          out_vec.data());
        },
        [&] { return fnv(out_vec.data(), out_vec.size() * 4); });
    const Timed gather_ref = bestOf(
        [&] {
            std::fill(out_ref.begin(), out_ref.end(), 0.0f);
            tbe_kernels::gatherAccumulateScalar(
                rows.data(), weights.data(), kGathers, kDim,
                out_ref.data());
        },
        [&] { return fnv(out_ref.data(), out_ref.size() * 4); });

    const bool gather_equal =
        std::memcmp(out_vec.data(), out_ref.data(),
                    out_vec.size() * 4) == 0;
    const double gather_ratio = ratioOf(gather_ref, gather_vec);

    bench::section("gather mix (TBE row gather-accumulate, dim 103)");
    bench::row("scalar reference Mrows/sec", "baseline",
               bench::fmt("%.1f", gather_ref.seconds > 0.0
                              ? static_cast<double>(kGathers) /
                                  gather_ref.seconds / 1e6
                              : 0.0));
    bench::row("prefetched simd kernel Mrows/sec", "> 1x scalar",
               bench::fmt("%.1f", gather_vec.seconds > 0.0
                              ? static_cast<double>(kGathers) /
                                  gather_vec.seconds / 1e6
                              : 0.0));
    bench::row("speedup", "-", bench::fmt("%.2fx", gather_ratio));
    bench::row("bit-identical accumulation", "required",
               gather_equal ? "yes" : "NO — DIVERGED");

    report.metric("gather_bits_equal", gather_equal ? 1.0 : 0.0, 1.0,
                  1.0);
    report.wallClockRatio("gather", gather_ratio);

    // The kernel-layer counters accumulated by the runs above land in
    // the report's telemetry snapshot.
    numerics::noteGatherRows(kGathers * static_cast<std::uint64_t>(
                                 kReps * 2)); // bench drives kernels
                                              // directly, so note here
    numerics::publishNumericsMetrics(metrics);
    report.attachTelemetry(&metrics);
    return 0;
}
