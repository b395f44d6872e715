#include "ops/sparse_ops.h"

#include <cmath>
#include <memory>
#include <unordered_map>

#include "mem/llc.h"
#include "core/check.h"
#include "core/numerics_stats.h"
#include "core/simd.h"

namespace mtia {

namespace {

/** splitmix-style hash for deterministic pseudo-weights. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Cap on materialized embedding rows kept across a TbeOp::run (the
 * Zipf head; ~8 MB at dim 64). Beyond it rows are synthesized into a
 * per-group scratch arena. */
constexpr std::size_t kMaxCachedRows = 1u << 15;

} // namespace

namespace tbe_kernels {

void
gatherAccumulateScalar(const float *const *rows, const float *weights,
                       std::size_t count, std::int64_t dim, float *out)
{
    for (std::size_t p = 0; p < count; ++p) {
        const float w = weights[p];
        const float *row = rows[p];
        for (std::int64_t d = 0; d < dim; ++d) {
            // Separate multiply and add statements so no FMA
            // contraction can change the rounding vs the vector path.
            const float prod = w * row[d];
            out[d] = out[d] + prod;
        }
    }
}

void
gatherAccumulate(const float *const *rows, const float *weights,
                 std::size_t count, std::int64_t dim, float *out,
                 [[maybe_unused]] simd::SimdIsa isa)
{
#if defined(MTIA_SIMD_VEC128)
    if (isa != simd::SimdIsa::Scalar) {
        using simd::VecF32;
        constexpr std::size_t kLookahead = 4;
        constexpr std::int64_t kFloatsPerLine = 16;
        constexpr auto l = static_cast<std::int64_t>(simd::kLanes);
        for (std::size_t p = 0; p < count; ++p) {
            if (p + kLookahead < count) {
                const float *next = rows[p + kLookahead];
                for (std::int64_t off = 0; off < dim; off += kFloatsPerLine)
                    simd::prefetch(next + off);
            }
            const float *row = rows[p];
            const VecF32 w = VecF32::broadcast(weights[p]);
            std::int64_t d = 0;
            for (; d + 2 * l <= dim; d += 2 * l) {
                (VecF32::load(out + d) + VecF32::load(row + d) * w)
                    .store(out + d);
                (VecF32::load(out + d + l) + VecF32::load(row + d + l) * w)
                    .store(out + d + l);
            }
            for (; d + l <= dim; d += l) {
                (VecF32::load(out + d) + VecF32::load(row + d) * w)
                    .store(out + d);
            }
            for (; d < dim; ++d) {
                const float prod = weights[p] * row[d];
                out[d] = out[d] + prod;
            }
        }
        return;
    }
#endif
    gatherAccumulateScalar(rows, weights, count, dim, out);
}

} // namespace tbe_kernels

TbeOp::TbeOp(TbeTableSpec spec, std::int64_t batch, std::int64_t pooling,
             bool weighted, std::uint64_t table_seed)
    : spec_(spec),
      batch_(batch),
      pooling_(pooling),
      weighted_(weighted),
      table_seed_(table_seed)
{
    MTIA_CHECK_GT(spec_.tables, 0) << ": TbeOp table count";
    MTIA_CHECK_GT(batch_, 0) << ": TbeOp batch size";
    MTIA_CHECK_GT(pooling_, 0) << ": TbeOp pooling factor";
}

float
TbeOp::rowValue(std::int64_t table, std::int64_t row,
                std::int64_t col) const
{
    const std::uint64_t h = mix(
        table_seed_ ^ mix(static_cast<std::uint64_t>(table) << 40) ^
        mix(static_cast<std::uint64_t>(row) << 8) ^
        static_cast<std::uint64_t>(col));
    // Map to roughly N(0, 0.1): embeddings are small-magnitude.
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    return static_cast<float>(u * 0.17);
}

Tensor
TbeOp::run(const std::vector<Tensor> &, OpContext &ctx) const
{
    MTIA_CHECK(ctx.rng != nullptr)
        << ": TbeOp::run needs an rng for index sampling";
    ZipfSampler zipf(static_cast<std::uint64_t>(spec_.rows_per_table),
                     spec_.zipf_alpha);
    Tensor out(Shape{batch_, spec_.tables * spec_.dim}, DType::FP32);
    auto *outf = reinterpret_cast<float *>(out.raw().data());

    const auto udim = static_cast<std::size_t>(spec_.dim);
    const auto pool = static_cast<std::size_t>(pooling_);

    // Synthesize an embedding row once and gather it by pointer. The
    // per-element math matches rowValue exactly (the (table, row)
    // hash terms are merely hoisted out of the column loop), so the
    // accumulated output is bit-identical to the seed per-element
    // loop. Zipf reuse makes the cache hit for the popular head.
    auto synthesize = [&](float *dst, std::int64_t t, std::int64_t row) {
        const std::uint64_t base = table_seed_ ^
            mix(static_cast<std::uint64_t>(t) << 40) ^
            mix(static_cast<std::uint64_t>(row) << 8);
        for (std::int64_t d = 0; d < spec_.dim; ++d) {
            const std::uint64_t h =
                mix(base ^ static_cast<std::uint64_t>(d));
            const double u =
                static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
            dst[d] = static_cast<float>(u * 0.17);
        }
    };

    std::unordered_map<std::uint64_t, std::size_t> slot_of;
    std::vector<std::unique_ptr<float[]>> cached;
    std::vector<float> arena(pool * udim); // cap-overflow scratch
    std::vector<std::int64_t> rows(pool);
    std::vector<float> weights(pool);
    std::vector<const float *> ptrs(pool);

    const simd::SimdIsa isa = simd::activeIsa();
    std::uint64_t gathered = 0;
    for (std::int64_t b = 0; b < batch_; ++b) {
        for (std::int64_t t = 0; t < spec_.tables; ++t) {
            // Sample all (row, weight) pairs first, in the exact rng
            // order of the seed loop.
            for (std::size_t p = 0; p < pool; ++p) {
                rows[p] =
                    static_cast<std::int64_t>(zipf.sample(*ctx.rng));
                weights[p] = weighted_
                    ? static_cast<float>(ctx.rng->uniform(0.5, 1.5))
                    : 1.0f;
            }
            std::size_t arena_used = 0;
            for (std::size_t p = 0; p < pool; ++p) {
                const std::uint64_t key =
                    static_cast<std::uint64_t>(t) *
                        static_cast<std::uint64_t>(spec_.rows_per_table) +
                    static_cast<std::uint64_t>(rows[p]);
                const auto it = slot_of.find(key);
                if (it != slot_of.end()) {
                    ptrs[p] = cached[it->second].get();
                } else if (cached.size() < kMaxCachedRows) {
                    cached.emplace_back(new float[udim]);
                    synthesize(cached.back().get(), t, rows[p]);
                    slot_of.emplace(key, cached.size() - 1);
                    ptrs[p] = cached.back().get();
                } else {
                    float *dst = arena.data() + arena_used;
                    synthesize(dst, t, rows[p]);
                    ptrs[p] = dst;
                    arena_used += udim;
                }
            }
            float *dst =
                outf + (b * spec_.tables + t) * spec_.dim;
            tbe_kernels::gatherAccumulate(ptrs.data(), weights.data(),
                                          pool, spec_.dim, dst, isa);
            gathered += pool;
        }
    }
    numerics::noteGatherRows(gathered);
    return out;
}

double
TbeOp::expectedHitRate(Bytes llc_bytes) const
{
    const Bytes row_bytes =
        static_cast<Bytes>(spec_.dim) * dtypeSize(spec_.dtype);
    const std::uint64_t cache_rows = llc_bytes / row_bytes;
    // Tables share the cache; model them as one popularity universe.
    const std::uint64_t universe = static_cast<std::uint64_t>(
        spec_.tables * spec_.rows_per_table);
    const std::uint64_t per_table_cache =
        std::min<std::uint64_t>(cache_rows, universe);
    return zipfLruHitRate(per_table_cache, universe, spec_.zipf_alpha);
}

KernelTime
TbeOp::cost(const KernelCostModel &km, const CostContext &ctx) const
{
    TbeShape shape;
    shape.tables = spec_.tables;
    shape.batch = batch_;
    shape.pooling = pooling_;
    shape.dim = spec_.dim;
    shape.dtype = spec_.dtype;
    TbeOptions opt;
    opt.sram_hit_rate = ctx.tbe_hit_rate;
    opt.weighted = weighted_;
    opt.include_launch = !ctx.fused;
    return km.tbe(shape, opt);
}

double
TbeOp::flops() const
{
    return static_cast<double>(spec_.tables) *
        static_cast<double>(batch_) * static_cast<double>(pooling_) *
        static_cast<double>(spec_.dim) * (weighted_ ? 2.0 : 1.0);
}

} // namespace mtia
