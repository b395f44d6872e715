#include "tensor/quantize.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "core/simd.h"
#include "tensor/dtype.h"

namespace mtia {

namespace {

/** Max |x| over rows [r0, r1) of a rank-2 tensor (reference path);
 *  +inf when the rows hold an inf or a NaN. */
float
absMaxOverRows(const Tensor &t, std::int64_t r0, std::int64_t r1)
{
    const std::int64_t k = t.shape().dim(1);
    float m = 0.0f;
    bool finite = true;
    for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = 0; c < k; ++c) {
            const float x = t.at2(r, c);
            m = std::max(m, std::abs(x));
            finite = finite && std::isfinite(x);
        }
    }
    return finite ? m : std::numeric_limits<float>::infinity();
}

/** Reference per-element scale-and-store (the seed code path). */
void
quantizeGroup(const Tensor &src, Tensor &dst, std::int64_t r0,
              std::int64_t r1, float scale)
{
    const std::int64_t k = src.shape().dim(1);
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = 0; c < k; ++c)
            dst.set2(r, c, src.at2(r, c) * inv);
    }
}

// The range kernels run their 128-bit loop only when @p vec128 is set;
// on the scalar tier their tail loop does all the work.
#if defined(MTIA_SIMD_VEC128)
using simd::VecF32;
using simd::VecI32;
#endif

/**
 * Max |x| over a contiguous range, single fused pass: a running
 * min and max per lane, then amax = max(-min, max) reduced across
 * lanes. Exactly equals the sequential max(|x_i|) because float
 * min/max are exact and associative for non-NaN inputs and
 * |x| = max(-x, x). min/max drop NaNs (SSE2 and NEON differently,
 * std::max too), so the same pass also tests each element's exponent
 * for all-ones and returns +inf when the range holds an inf or a NaN.
 */
float
absMaxRange(const float *src, std::size_t n, [[maybe_unused]] bool vec128)
{
    float m = 0.0f;
    bool finite = true;
    std::size_t i = 0;
#if defined(MTIA_SIMD_VEC128)
    if (vec128 && n >= simd::kLanes) {
        VecF32 lo = VecF32::broadcast(0.0f);
        VecF32 hi = VecF32::broadcast(0.0f);
        VecI32 nonfinite = VecI32::broadcast(0);
        for (; i + simd::kLanes <= n; i += simd::kLanes) {
            const VecF32 v = VecF32::load(src + i);
            lo = simd::vmin(lo, v);
            hi = simd::vmax(hi, v);
            nonfinite = nonfinite |
                simd::cmpGt(simd::bitcastToI32(v) &
                                VecI32::broadcastBits(0x7fffffffu),
                            VecI32::broadcastBits(0x7f7fffffu));
        }
        float lanes_lo[simd::kLanes];
        float lanes_hi[simd::kLanes];
        std::int32_t lanes_bad[simd::kLanes] = {};
        lo.store(lanes_lo);
        hi.store(lanes_hi);
        nonfinite.store(lanes_bad);
        for (std::size_t l = 0; l < simd::kLanes; ++l) {
            m = std::max(m, std::max(-lanes_lo[l], lanes_hi[l]));
            finite = finite && lanes_bad[l] == 0;
        }
    }
#endif
    for (; i < n; ++i) {
        m = std::max(m, std::abs(src[i]));
        finite = finite && std::isfinite(src[i]);
    }
    return finite ? m : std::numeric_limits<float>::infinity();
}

/**
 * Fused scale + round + clamp to INT8 over a contiguous range.
 * Per element: clamp(nearbyint(x * inv), -128, 127) — identical to
 * Tensor::set on an INT8 tensor. The vector path clamps the product
 * to [-128.0f, 127.0f] first (so the RTNE float->int32 conversion
 * can never overflow, even for percentile-clipped outliers where
 * |x * inv| >> 127), then rounds and stores with saturating packs.
 * Clamp-then-round equals the scalar round-then-clamp everywhere:
 * both are the identity inside (-128.5, 127.5)-ish, and outside it
 * both pin to the same endpoint (e.g. 127.6 -> 127.0 -> 127 vs
 * nearbyint(127.6) = 128 -> 127).
 */
void
quantizeRange(const float *src, std::uint8_t *dst, std::size_t n,
              float inv, [[maybe_unused]] bool vec128)
{
    std::size_t i = 0;
#if defined(MTIA_SIMD_VEC128)
    if (vec128) {
        const VecF32 vinv = VecF32::broadcast(inv);
        const VecF32 lo = VecF32::broadcast(-128.0f);
        const VecF32 hi = VecF32::broadcast(127.0f);
        const auto quant = [&](const float *p) {
            const VecF32 v =
                simd::vmin(simd::vmax(VecF32::load(p) * vinv, lo), hi);
            return simd::toI32Rtne(v);
        };
        for (; i + 4 * simd::kLanes <= n; i += 4 * simd::kLanes) {
            const VecI32 a = quant(src + i);
            const VecI32 b = quant(src + i + simd::kLanes);
            const VecI32 c = quant(src + i + 2 * simd::kLanes);
            const VecI32 d = quant(src + i + 3 * simd::kLanes);
            simd::storeI8Saturate(a, b, c, d, dst + i);
        }
    }
#endif
    for (; i < n; ++i) {
        const float q =
            std::clamp(std::nearbyint(src[i] * inv), -128.0f, 127.0f);
        dst[i] = static_cast<std::uint8_t>(static_cast<std::int8_t>(q));
    }
}

/** Contiguous INT8 -> float with one scale: dst = int8 * s. */
void
dequantRange(const std::uint8_t *src, float *dst, std::size_t n,
             float s, [[maybe_unused]] bool vec128)
{
    std::size_t i = 0;
#if defined(MTIA_SIMD_VEC128)
    if (vec128) {
        const VecF32 vs = VecF32::broadcast(s);
        for (; i + simd::kLanes <= n; i += simd::kLanes) {
            const VecF32 v = simd::toF32(simd::loadI8AsI32(src + i));
            (v * vs).store(dst + i);
        }
    }
#endif
    for (; i < n; ++i) {
        dst[i] =
            static_cast<float>(static_cast<std::int8_t>(src[i])) * s;
    }
}

/**
 * Contiguous float view of a tensor: FP32 storage is used in place;
 * FP16/BF16 widen through the batch conversion kernels (bit-identical
 * to the per-element Tensor::at conversions); other dtypes fall back
 * to the accessor.
 */
const float *
floatView(const Tensor &t, std::vector<float> &scratch)
{
    const auto n = static_cast<std::size_t>(t.numel());
    if (t.dtype() == DType::FP32)
        return reinterpret_cast<const float *>(t.raw().data());
    scratch.resize(n);
    if (t.dtype() == DType::FP16 || t.dtype() == DType::BF16) {
        convertBuffer(
            reinterpret_cast<const std::uint16_t *>(t.raw().data()),
            scratch.data(), n, t.dtype());
    } else {
        for (std::size_t i = 0; i < n; ++i)
            scratch[i] = t.at(static_cast<std::int64_t>(i));
    }
    return scratch.data();
}

std::int64_t
groupRowsFor(QuantGranularity granularity, std::int64_t m,
             std::int64_t group_rows)
{
    switch (granularity) {
      case QuantGranularity::PerTensor:
        return m;
      case QuantGranularity::PerRow:
        return 1;
      case QuantGranularity::PerRowGroup:
        MTIA_CHECK_GE(group_rows, 1)
            << ": quantizeDynamic row-group size";
        return group_rows;
    }
    MTIA_UNREACHABLE("quantizeDynamic: unknown granularity");
}

} // namespace

QuantizedTensor
quantizeDynamic(const Tensor &src, QuantGranularity granularity,
                std::int64_t group_rows)
{
    MTIA_CHECK_EQ(src.shape().rank(), 2u)
        << ": quantizeDynamic expects a rank-2 tensor";
    const std::int64_t m = src.shape().dim(0);
    const std::int64_t k = src.shape().dim(1);
    const std::int64_t group = groupRowsFor(granularity, m, group_rows);

    QuantizedTensor out;
    out.values = Tensor(src.shape(), DType::INT8);
    out.group_rows = group;

    // Rows are contiguous in row-major storage, so each scale group
    // is one contiguous range: a single fused min/max pass for the
    // scale, one fused scale+round+clamp pass for the payload.
    const bool vec128 = simd::activeIsa() != simd::SimdIsa::Scalar;
    std::vector<float> scratch;
    const float *f = floatView(src, scratch);
    std::uint8_t *q = out.values.raw().data();
    for (std::int64_t r0 = 0; r0 < m; r0 += group) {
        const std::int64_t r1 = std::min(m, r0 + group);
        const auto off = static_cast<std::size_t>(r0 * k);
        const auto len = static_cast<std::size_t>((r1 - r0) * k);
        const float amax = absMaxRange(f + off, len, vec128);
        MTIA_CHECK(std::isfinite(amax))
            << ": quantizeDynamic input holds an inf or a NaN in rows ["
            << r0 << ", " << r1 << ")";
        const float scale = amax / 127.0f;
        out.scales.push_back(scale);
        const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
        quantizeRange(f + off, q + off, len, inv, vec128);
    }
    return out;
}

QuantizedTensor
quantizeStatic(const Tensor &weights, double saturate_percentile)
{
    MTIA_CHECK_EQ(weights.shape().rank(), 2u)
        << ": quantizeStatic expects a rank-2 tensor";
    const std::int64_t m = weights.shape().dim(0);
    const std::int64_t k = weights.shape().dim(1);
    const auto n = static_cast<std::size_t>(m * k);

    const bool vec128 = simd::activeIsa() != simd::SimdIsa::Scalar;
    std::vector<float> scratch;
    const float *f = floatView(weights, scratch);

    float amax = absMaxRange(f, n, vec128);
    MTIA_CHECK(std::isfinite(amax))
        << ": quantizeStatic input holds an inf or a NaN";
    if (saturate_percentile < 100.0 && n > 0) {
        std::vector<float> mags(f, f + n);
        for (float &v : mags)
            v = std::abs(v);
        std::sort(mags.begin(), mags.end());
        const auto rank = static_cast<std::size_t>(
            saturate_percentile / 100.0 *
            static_cast<double>(mags.size() - 1));
        amax = mags[rank];
    }

    QuantizedTensor out;
    out.values = Tensor(weights.shape(), DType::INT8);
    out.group_rows = m;
    out.scales.push_back(amax / 127.0f);
    const float scale = out.scales[0];
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    quantizeRange(f, out.values.raw().data(), n, inv, vec128);
    return out;
}

Tensor
dequantize(const QuantizedTensor &q)
{
    Tensor out(q.values.shape(), DType::FP32);
    const std::int64_t m = q.values.shape().dim(0);
    const std::int64_t k = q.values.shape().dim(1);
    const bool vec128 = simd::activeIsa() != simd::SimdIsa::Scalar;
    const std::uint8_t *src = q.values.raw().data();
    auto *dst = reinterpret_cast<float *>(out.raw().data());
    for (std::int64_t r0 = 0; r0 < m; r0 += q.group_rows) {
        const std::int64_t r1 = std::min(m, r0 + q.group_rows);
        const auto off = static_cast<std::size_t>(r0 * k);
        const auto len = static_cast<std::size_t>((r1 - r0) * k);
        dequantRange(src + off, dst + off, len, q.scaleFor(r0), vec128);
    }
    return out;
}

double
sqnrDb(const Tensor &src, const Tensor &deq)
{
    MTIA_CHECK(src.shape() == deq.shape())
        << ": sqnrDb shape mismatch " << src.shape().toString() << " vs "
        << deq.shape().toString();
    double signal = 0.0;
    double noise = 0.0;
    for (std::int64_t i = 0; i < src.numel(); ++i) {
        const double s = src.at(i);
        const double d = s - static_cast<double>(deq.at(i));
        signal += s * s;
        noise += d * d;
    }
    if (noise <= 0.0)
        return 140.0; // effectively lossless
    return 10.0 * std::log10(signal / noise);
}

double
applyTwoFourSparsity(Tensor &weights)
{
    MTIA_CHECK_EQ(weights.shape().rank(), 2u)
        << ": applyTwoFourSparsity expects a rank-2 tensor";
    const std::int64_t m = weights.shape().dim(0);
    const std::int64_t k = weights.shape().dim(1);

    double total = 0.0;
    double kept = 0.0;
    for (std::int64_t r = 0; r < m; ++r) {
        for (std::int64_t c0 = 0; c0 < k; c0 += 4) {
            const std::int64_t width = std::min<std::int64_t>(4, k - c0);
            // Find the two largest magnitudes in the group.
            std::int64_t best1 = -1;
            std::int64_t best2 = -1;
            for (std::int64_t j = 0; j < width; ++j) {
                const float mag = std::abs(weights.at2(r, c0 + j));
                if (best1 < 0 ||
                    mag > std::abs(weights.at2(r, c0 + best1))) {
                    best2 = best1;
                    best1 = j;
                } else if (best2 < 0 ||
                           mag > std::abs(weights.at2(r, c0 + best2))) {
                    best2 = j;
                }
            }
            for (std::int64_t j = 0; j < width; ++j) {
                const double v = weights.at2(r, c0 + j);
                total += v * v;
                if (j == best1 || j == best2) {
                    kept += v * v;
                } else {
                    weights.set2(r, c0 + j, 0.0f);
                }
            }
        }
    }
    return total > 0.0 ? kept / total : 1.0;
}

namespace scalar {

QuantizedTensor
quantizeDynamic(const Tensor &src, QuantGranularity granularity,
                std::int64_t group_rows)
{
    MTIA_CHECK_EQ(src.shape().rank(), 2u)
        << ": quantizeDynamic expects a rank-2 tensor";
    const std::int64_t m = src.shape().dim(0);
    const std::int64_t group = groupRowsFor(granularity, m, group_rows);

    QuantizedTensor out;
    out.values = Tensor(src.shape(), DType::INT8);
    out.group_rows = group;
    for (std::int64_t r0 = 0; r0 < m; r0 += group) {
        const std::int64_t r1 = std::min(m, r0 + group);
        const float amax = absMaxOverRows(src, r0, r1);
        MTIA_CHECK(std::isfinite(amax))
            << ": quantizeDynamic input holds an inf or a NaN in rows ["
            << r0 << ", " << r1 << ")";
        const float scale = amax / 127.0f;
        out.scales.push_back(scale);
        quantizeGroup(src, out.values, r0, r1, scale);
    }
    return out;
}

Tensor
dequantize(const QuantizedTensor &q)
{
    Tensor out(q.values.shape(), DType::FP32);
    const std::int64_t m = q.values.shape().dim(0);
    const std::int64_t k = q.values.shape().dim(1);
    for (std::int64_t r = 0; r < m; ++r) {
        const float s = q.scaleFor(r);
        for (std::int64_t c = 0; c < k; ++c)
            out.set2(r, c, q.values.at2(r, c) * s);
    }
    return out;
}

} // namespace scalar

} // namespace mtia
