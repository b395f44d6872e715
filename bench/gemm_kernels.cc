/**
 * @file
 * Runtime-dispatched blocked GEMM microbenchmark: the cache-tiled,
 * multithreaded kernels in core/simd_gemm against the
 * element-at-a-time DotProductEngine reference, per dispatch tier
 * (scalar / sse2|neon / avx2 / avx512 — whatever this host supports),
 * plus the fused operator layer against its unfused composition:
 *
 *   tier sweep    gemm_kernels::gemm forced onto each supported tier;
 *                 GFLOP/s per tier and bit-equality against
 *                 DotProductEngine::gemm
 *   fused fp32    fusedGemmActivation vs gemm followed by
 *                 SimdEngine::apply (one pass over cache-hot row
 *                 blocks vs two passes over the output)
 *   fused int8    fusedQuantizedGemm vs quantizeDynamic(PerRow) →
 *                 simd::gemmI8 → dequant → activation, separate
 *                 passes on the same tier; bit-equality of both
 *                 against DotProductEngine::gemmInt8 → activation
 *   DHEN FC rates fusedGemmActivation (FP16 weights, ReLU) on each of
 *                 the DHEN functional model's 12 FC shapes at batch
 *                 192, the shapes the functional executor runs;
 *                 GFLOP/s per FC and bit-equality against
 *                 DotProductEngine::gemm → ReLU on sampled rows
 *
 * Every path asserts bit-identical results (hard [1, 1] gates in
 * BENCH_gemm_kernels.json). The tier sweep reports one
 * supported_tiers_bits_equal gate and keeps the per-tier verdicts on
 * stdout, so the report does not depend on which tiers the host has;
 * for the same reason the numerics counters are reset after the sweep.
 * Throughput and the fused-vs-unfused and per-tier-vs-scalar speedups
 * are wall-clock by nature and land only under "wall_clock".
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/numerics_stats.h"
#include "core/simd_gemm.h"
#include "models/model_zoo.h"
#include "ops/dense_ops.h"
#include "ops/gemm_kernels.h"
#include "pe/dpe.h"
#include "pe/simd_engine.h"
#include "sim/random.h"
#include "telemetry/metrics.h"
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

/** Best wall-clock of kReps identical runs; checksums must agree. */
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

std::uint64_t
tensorSum(const Tensor &t)
{
    return fnv(t.raw().data(), t.raw().size());
}

} // namespace

int
main()
{
    bench::banner(
        "Runtime-dispatched GEMM — blocked kernels vs DPE reference",
        "Per-tier GFLOP/s, fused operator layer vs its unfused "
        "composition; bit-identical results, measured wall-clock "
        "ratios.");

    telemetry::MetricRegistry metrics;
    bench::Report report("gemm_kernels");

    const std::vector<simd::SimdIsa> tiers = [] {
        std::vector<simd::SimdIsa> t;
        for (const simd::SimdIsa isa :
             {simd::SimdIsa::Scalar, simd::SimdIsa::Sse2,
              simd::SimdIsa::Neon, simd::SimdIsa::Avx2,
              simd::SimdIsa::Avx512}) {
            if (simd::isaSupported(isa))
                t.push_back(isa);
        }
        return t;
    }();
    bench::row("best supported tier", "widest available",
               simd::isaName(simd::detectBestIsa()));

    // ---- tier sweep ----------------------------------------------
    constexpr std::int64_t kM = 384, kN = 384, kK = 384;
    const double flops = 2.0 * static_cast<double>(kM) *
        static_cast<double>(kN) * static_cast<double>(kK);
    Rng rng(31);
    Tensor a(Shape{kM, kK}, DType::FP32);
    Tensor b(Shape{kK, kN}, DType::FP32);
    a.fillGaussian(rng);
    b.fillGaussian(rng);

    const DotProductEngine dpe;
    const Tensor c_ref = dpe.gemm(a, b, DType::FP32);
    const simd::GemmBlocking blk;

    bench::section("tier sweep (" + std::to_string(kM) + " x " +
                   std::to_string(kN) + " x " + std::to_string(kK) +
                   " fp32)");

    double scalar_secs = 0.0;
    bool tiers_equal = true;
    for (const simd::SimdIsa isa : tiers) {
        Tensor c;
        const Timed t = bestOf(
            [&] { c = gemm_kernels::gemm(a, b, DType::FP32, isa, blk); },
            [&] { return tensorSum(c); });
        const bool equal = c.raw() == c_ref.raw();
        const std::string tier = simd::isaName(isa);
        const double gflops =
            t.seconds > 0.0 ? flops / t.seconds / 1e9 : 0.0;
        bench::row(tier + " GFLOP/s", "vs DPE reference",
                   bench::fmt("%.2f", gflops) +
                       (equal ? " (bit-identical)"
                              : " (NO — DIVERGED)"));
        tiers_equal = tiers_equal && equal;
        report.wallClock("gflops_" + tier, gflops, "GFLOP/s");
        if (isa == simd::SimdIsa::Scalar)
            scalar_secs = t.seconds;
        else if (scalar_secs > 0.0 && t.seconds > 0.0)
            report.wallClock(tier + "_vs_scalar", scalar_secs / t.seconds,
                             "x");
    }
    report.metric("supported_tiers_bits_equal", tiers_equal ? 1.0 : 0.0,
                  1.0, 1.0);

    // The fused int8 section's unfused baseline, timed on the active
    // tier: quantize, then simd::gemmI8, then dequant and apply, each a
    // separate pass over the whole output. It runs here, before the
    // reset, because its GEMM work is a timing baseline only.
    const QuantizedTensor w = quantizeStatic(b);
    Tensor unfused_i8;
    const Timed unfused_i8_t = bestOf(
        [&] {
            const QuantizedTensor qa =
                quantizeDynamic(a, QuantGranularity::PerRow);
            std::vector<std::int32_t> acc(
                static_cast<std::size_t>(kM * kN));
            simd::gemmI8(
                reinterpret_cast<const std::int8_t *>(qa.values.raw().data()),
                reinterpret_cast<const std::int8_t *>(w.values.raw().data()),
                acc.data(), kM, kN, kK, simd::activeIsa(), blk);
            Tensor deq(Shape{kM, kN}, DType::FP32);
            float *out = deq.f32Data();
            for (std::int64_t i = 0; i < kM; ++i) {
                const float sa = qa.scaleFor(i);
                for (std::int64_t j = 0; j < kN; ++j)
                    out[i * kN + j] =
                        static_cast<float>(acc[i * kN + j]) * sa *
                        w.scales[0];
            }
            unfused_i8 = gemm_kernels::sharedSimdEngine().apply(
                Nonlinearity::Relu, deq);
        },
        [&] { return tensorSum(unfused_i8); });

    // The sweep's GEMM work scales with the host's tier count; the
    // telemetry snapshot counts only the work that follows.
    numerics::resetStats();

    // ---- fused fp32 ----------------------------------------------
    bench::section("fused gemm+activation vs unfused composition");
    const Nonlinearity act = Nonlinearity::Gelu;
    Tensor fused;
    const Timed fused_t = bestOf(
        [&] {
            fused = gemm_kernels::fusedGemmActivation(
                a, b, DType::FP16, act, /*use_lut=*/true);
        },
        [&] { return tensorSum(fused); });
    Tensor unfused;
    const Timed unfused_t = bestOf(
        [&] {
            const Tensor c = gemm_kernels::gemm(a, b, DType::FP16);
            unfused = gemm_kernels::sharedSimdEngine().apply(act, c);
        },
        [&] { return tensorSum(unfused); });
    // The exact-activation flavor, untimed.
    const Tensor fused_exact = gemm_kernels::fusedGemmActivation(
        a, b, DType::FP16, act, /*use_lut=*/false);
    const Tensor unfused_exact = SimdEngine::applyExact(
        act, gemm_kernels::gemm(a, b, DType::FP16));
    const bool fused_equal = fused.raw() == unfused.raw() &&
        fused_exact.raw() == unfused_exact.raw();
    const double fused_ratio = fused_t.seconds > 0.0
        ? unfused_t.seconds / fused_t.seconds
        : 1.0;

    bench::row("unfused (gemm, then apply) ms", "baseline",
               bench::fmt("%.2f", unfused_t.seconds * 1e3));
    bench::row("fused row-block epilogue ms", "> 1x unfused",
               bench::fmt("%.2f", fused_t.seconds * 1e3));
    bench::row("speedup", "-", bench::fmt("%.2fx", fused_ratio));
    bench::row("bit-identical output (lut + exact)", "required",
               fused_equal ? "yes" : "NO — DIVERGED");
    report.metric("fused_activation_bits_equal", fused_equal ? 1.0 : 0.0,
                  1.0, 1.0);
    report.wallClock("fused_vs_unfused", fused_ratio, "x");

    // ---- fused int8 ----------------------------------------------
    bench::section("fused dynamic-int8 gemm vs unfused composition");
    Tensor fused_i8;
    const Timed fused_i8_t = bestOf(
        [&] {
            fused_i8 = gemm_kernels::fusedQuantizedGemm(
                a, w, /*has_activation=*/true, Nonlinearity::Relu,
                /*use_lut=*/true);
        },
        [&] { return tensorSum(fused_i8); });
    // The element-at-a-time reference, run once for the gate.
    const Tensor reference_i8 = gemm_kernels::sharedSimdEngine().apply(
        Nonlinearity::Relu,
        dpe.gemmInt8(quantizeDynamic(a, QuantGranularity::PerRow), w));
    const bool i8_equal = fused_i8.raw() == reference_i8.raw() &&
        unfused_i8.raw() == reference_i8.raw();
    const double i8_ratio = fused_i8_t.seconds > 0.0
        ? unfused_i8_t.seconds / fused_i8_t.seconds
        : 1.0;

    bench::row("unfused (quantize, gemmI8, dequant, apply) ms", "baseline",
               bench::fmt("%.2f", unfused_i8_t.seconds * 1e3));
    bench::row("fused int8 pipeline ms", "> 1x unfused",
               bench::fmt("%.2f", fused_i8_t.seconds * 1e3));
    bench::row("speedup", "-", bench::fmt("%.2fx", i8_ratio));
    bench::row("bit-identical output", "required",
               i8_equal ? "yes" : "NO — DIVERGED");
    report.metric("fused_int8_bits_equal", i8_equal ? 1.0 : 0.0, 1.0,
                  1.0);
    report.wallClock("fused_int8_vs_unfused", i8_ratio, "x");

    // ---- DHEN FC rates --------------------------------------------
    // The FCs of the model perfbench's functional_inference workload
    // executes, with their own seeded FP16 weights and a Gaussian FP32
    // activation. The DPE reference costs tens of ns per MAC, so the
    // gate compares sampled rows: every mr-strip position (mr <= 4 on
    // every tier) in every mc-row block. Each output row depends only
    // on its own A row, so the sampled rows of the reference are
    // exactly those rows of the full product.
    bench::section("DHEN FC shapes (batch 192, fp16 weights, fused relu)");
    constexpr std::int64_t kBatch = 192;
    constexpr std::int64_t kSampledRows[] = {0, 1, 2, 3, 64, 125, 190, 191};
    RankingModelParams dhen;
    dhen.batch = kBatch;
    dhen.tbe.tables = 8;
    dhen.tbe.dim = 64;
    dhen.dhen_layers = 2;
    const ModelInfo model = buildRankingModel(dhen);
    int fc_index = 0;
    for (const int id : model.graph.topoOrder()) {
        const auto *fc = dynamic_cast<const FullyConnectedOp *>(
            model.graph.node(id).op.get());
        if (fc == nullptr)
            continue;
        const std::int64_t k = fc->shape().k;
        const std::int64_t n = fc->shape().n;
        const Tensor &weights = fc->weights();
        Tensor x(Shape{kBatch, k}, DType::FP32);
        x.fillGaussian(rng);
        Tensor y;
        const Timed t = bestOf(
            [&] {
                y = gemm_kernels::fusedGemmActivation(
                    x, weights, fc->dtype(), Nonlinearity::Relu,
                    /*use_lut=*/true);
            },
            [&] { return tensorSum(y); });

        std::vector<float> sampled;
        for (const std::int64_t r : kSampledRows) {
            for (std::int64_t c = 0; c < k; ++c)
                sampled.push_back(x.at2(r, c));
        }
        const std::int64_t rows = std::size(kSampledRows);
        const Tensor ref = gemm_kernels::sharedSimdEngine().apply(
            Nonlinearity::Relu,
            dpe.gemm(Tensor::fromFloats(sampled, Shape{rows, k},
                                        DType::FP32),
                     weights, fc->dtype()));
        bool equal = true;
        for (std::int64_t i = 0; i < rows; ++i) {
            const auto bytes = static_cast<std::size_t>(n) * sizeof(float);
            equal = equal &&
                std::memcmp(y.f32Data() + kSampledRows[i] * n,
                            ref.f32Data() + i * n, bytes) == 0;
        }
        const double fc_flops = 2.0 * static_cast<double>(kBatch) *
            static_cast<double>(k) * static_cast<double>(n);
        const double gflops =
            t.seconds > 0.0 ? fc_flops / t.seconds / 1e9 : 0.0;
        char name[48];
        std::snprintf(name, sizeof(name), "dhen_fc%02d_%lldx%lld",
                      fc_index++, static_cast<long long>(k),
                      static_cast<long long>(n));
        bench::row(std::string(name) + " GFLOP/s", "vs DPE reference",
                   bench::fmt("%.2f", gflops) +
                       (equal ? " (bit-identical)" : " (NO — DIVERGED)"));
        report.metric(std::string(name) + "_bits_equal", equal ? 1.0 : 0.0,
                      1.0, 1.0);
        report.wallClock(std::string(name) + "_gflops", gflops, "GFLOP/s");
    }

    // The numerics counters accumulated since the tier sweep land in
    // the report's telemetry snapshot.
    numerics::publishNumericsMetrics(metrics);
    report.attachTelemetry(&metrics);
    return 0;
}
