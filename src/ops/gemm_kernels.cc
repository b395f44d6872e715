#include "ops/gemm_kernels.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/check.h"
#include "core/simd.h"
#include "tensor/dtype.h"

namespace mtia::gemm_kernels
{
namespace
{

struct ActEpilogue
{
    float *c;
    std::int64_t n;
    Nonlinearity f;
    bool use_lut;
    simd::SimdIsa isa;
};

// ReLU is `x > 0 ? x : +0` on both paths (SimdEngine's ALU max and
// nonlinearityExact agree bit for bit, NaN and -0 included), so it
// runs as one vector pass on every tier but scalar.
void
reluInPlace(float *p, std::int64_t count,
            [[maybe_unused]] simd::SimdIsa isa)
{
    std::int64_t i = 0;
#if defined(MTIA_SIMD_VEC128)
    if (isa != simd::SimdIsa::Scalar) {
        constexpr auto l = static_cast<std::int64_t>(simd::kLanes);
        for (; i + l <= count; i += l)
            simd::relu(simd::VecF32::load(p + i)).store(p + i);
    }
#endif
    for (; i < count; ++i)
        p[i] = std::max(0.0f, p[i]);
}

// Runs on pool workers inside the GEMM's parallel region, once per
// finished row block. Replicates applyNonlinearity in dense_ops.cc:
// use_lut → SimdEngine::apply semantics (ReLU exact on ALUs, LUT
// otherwise), else the exact reference.
void
applyActivationRows(void *arg, std::int64_t r0, std::int64_t r1)
{
    const auto *e = static_cast<const ActEpilogue *>(arg);
    float *p = e->c + r0 * e->n;
    const std::int64_t count = (r1 - r0) * e->n;
    if (e->f == Nonlinearity::Relu) {
        reluInPlace(p, count, e->isa);
        return;
    }
    if (e->use_lut) {
        const SimdEngine &eng = sharedSimdEngine();
        for (std::int64_t i = 0; i < count; ++i)
            p[i] = eng.applyOne(e->f, p[i]);
        return;
    }
    for (std::int64_t i = 0; i < count; ++i)
        p[i] = nonlinearityExact(e->f, p[i]);
}

struct DequantEpilogue
{
    const std::int32_t *acc;
    float *out;
    const QuantizedTensor *qa;
    float sb;
    std::int64_t n;
    bool has_activation;
    Nonlinearity f;
    bool use_lut;
    simd::SimdIsa isa;
};

// Dequant exactly as DotProductEngine::gemmInt8: (float(acc)*sa)*sb,
// sa per activation row, sb the per-tensor weight scale; then the
// optional activation, all while the block is cache-hot.
void
dequantRows(void *arg, std::int64_t r0, std::int64_t r1)
{
    const auto *e = static_cast<const DequantEpilogue *>(arg);
    for (std::int64_t i = r0; i < r1; ++i) {
        const float sa = e->qa->scaleFor(i);
        const std::int32_t *src = e->acc + i * e->n;
        float *dst = e->out + i * e->n;
        for (std::int64_t j = 0; j < e->n; ++j)
            dst[j] = static_cast<float>(src[j]) * sa * e->sb;
    }
    if (e->has_activation) {
        ActEpilogue act{e->out, e->n, e->f, e->use_lut, e->isa};
        applyActivationRows(&act, r0, r1);
    }
}

void
checkGemmShapes(const Tensor &a, const Tensor &b)
{
    MTIA_CHECK_EQ(a.shape().rank(), 2u) << ": gemm lhs must be rank-2";
    MTIA_CHECK_EQ(b.shape().rank(), 2u) << ": gemm rhs must be rank-2";
    MTIA_CHECK_EQ(a.shape().dim(1), b.shape().dim(0))
        << ": gemm inner dimensions must match";
}

bool
isHalf(DType dt)
{
    return dt == DType::FP16 || dt == DType::BF16;
}

/** Narrow fp32 `src` to half `dt` and widen it back into `dst`,
 *  through a stack chunk; `src` and `dst` may alias. */
void
narrowAndWiden(const float *src, float *dst, std::int64_t len, DType dt)
{
    constexpr std::int64_t kChunk = 256;
    std::uint16_t bits[kChunk];
    for (std::int64_t i = 0; i < len; i += kChunk) {
        const auto count =
            static_cast<std::size_t>(std::min(kChunk, len - i));
        convertBuffer(src + i, bits, count, dt);
        convertBuffer(bits, dst + i, count, dt);
    }
}

/** Set the quiet bit of every NaN in dst[0, n): FP32 bit 22, where
 *  FP16 bit 9 and BF16 bit 6 both widen to. */
void
quietNans(float *dst, std::size_t n)
{
    std::size_t i = 0;
#if defined(MTIA_SIMD_VEC128)
    if (simd::activeIsa() != simd::SimdIsa::Scalar) {
        using simd::VecI32;
        const VecI32 abs = VecI32::broadcastBits(0x7fffffffu);
        const VecI32 inf = VecI32::broadcastBits(0x7f800000u);
        const VecI32 quiet = VecI32::broadcastBits(0x00400000u);
        for (; i + simd::kLanes <= n; i += simd::kLanes) {
            const VecI32 u = simd::bitcastToI32(simd::VecF32::load(dst + i));
            const VecI32 nan = simd::cmpGt(u & abs, inf);
            simd::bitcastToF32(u | (nan & quiet)).store(dst + i);
        }
    }
#endif
    for (; i < n; ++i) {
        const auto u = std::bit_cast<std::uint32_t>(dst[i]);
        const std::uint32_t quiet =
            (u & 0x7fffffffu) > 0x7f800000u ? 0x00400000u : 0u;
        dst[i] = std::bit_cast<float>(u | quiet);
    }
}

// simd::RowSource::fetch for a tensor operand: the reference gemm's
// `roundTrip(at2(i, x), compute_dtype)` over one row segment. A half
// operand already stored in the compute dtype is widened in one pass;
// any other is converted to floats and, for a half compute dtype,
// narrowed and widened again.
void
fetchOperandRow(const void *ctx, std::int64_t r, std::int64_t c0,
                std::int64_t len, float *dst)
{
    const auto &op = *static_cast<const OperandRows *>(ctx);
    const Tensor &t = *op.tensor;
    const DType dt = op.compute_dtype;
    const std::int64_t off = r * t.shape().dim(1) + c0;
    const auto n = static_cast<std::size_t>(len);
    if (isHalf(t.dtype())) {
        convertBuffer(
            reinterpret_cast<const std::uint16_t *>(t.raw().data()) + off,
            dst, n, t.dtype());
        if (t.dtype() == dt) {
            // The narrow step of a round trip is the identity on a
            // widened half except that it quiets NaNs.
            quietNans(dst, n);
            return;
        }
    } else if (t.dtype() == DType::FP32) {
        const float *src = t.f32Data() + off;
        if (isHalf(dt)) {
            narrowAndWiden(src, dst, len, dt);
            return;
        }
        std::copy(src, src + len, dst);
    } else {
        for (std::int64_t i = 0; i < len; ++i)
            dst[i] = t.at(off + i);
    }
    if (isHalf(dt)) {
        narrowAndWiden(dst, dst, len, dt);
    } else if (dt != DType::FP32) {
        for (std::int64_t i = 0; i < len; ++i)
            dst[i] = roundTrip(dst[i], dt);
    }
}

} // namespace

simd::RowSource
OperandRows::source() const
{
    if (tensor->dtype() == DType::FP32 && compute_dtype == DType::FP32)
        return {.f32 = tensor->f32Data(), .ld = tensor->shape().dim(1)};
    return {.ctx = this, .fetch = &fetchOperandRow};
}

const SimdEngine &
sharedSimdEngine()
{
    static const SimdEngine engine;
    return engine;
}

Tensor
gemm(const Tensor &a, const Tensor &b, DType compute_dtype)
{
    return gemm(a, b, compute_dtype, simd::activeIsa(),
                simd::GemmBlocking{});
}

Tensor
gemm(const Tensor &a, const Tensor &b, DType compute_dtype,
     simd::SimdIsa isa, const simd::GemmBlocking &blk)
{
    checkGemmShapes(a, b);
    const std::int64_t m = a.shape().dim(0);
    const std::int64_t k = a.shape().dim(1);
    const std::int64_t n = b.shape().dim(1);
    const OperandRows av{&a, compute_dtype};
    const OperandRows bv{&b, compute_dtype};
    Tensor c(Shape{m, n}, DType::FP32);
    simd::gemmF32(av.source(), bv.source(), c.f32Data(), m, n, k, isa,
                  blk);
    return c;
}

Tensor
fusedGemmActivation(const Tensor &a, const Tensor &b, DType compute_dtype,
                    Nonlinearity f, bool use_lut)
{
    return fusedGemmActivation(a, b, compute_dtype, f, use_lut,
                               simd::activeIsa(), simd::GemmBlocking{});
}

Tensor
fusedGemmActivation(const Tensor &a, const Tensor &b, DType compute_dtype,
                    Nonlinearity f, bool use_lut, simd::SimdIsa isa,
                    const simd::GemmBlocking &blk)
{
    checkGemmShapes(a, b);
    const std::int64_t m = a.shape().dim(0);
    const std::int64_t k = a.shape().dim(1);
    const std::int64_t n = b.shape().dim(1);
    const OperandRows av{&a, compute_dtype};
    const OperandRows bv{&b, compute_dtype};
    Tensor c(Shape{m, n}, DType::FP32);
    ActEpilogue ep{c.f32Data(), n, f, use_lut, isa};
    simd::gemmF32(av.source(), bv.source(), ep.c, m, n, k, isa, blk,
                  &applyActivationRows, &ep);
    return c;
}

Tensor
fusedQuantizedGemm(const Tensor &a, const QuantizedTensor &w,
                   bool has_activation, Nonlinearity f, bool use_lut)
{
    return fusedQuantizedGemm(a, w, has_activation, f, use_lut,
                              simd::activeIsa(), simd::GemmBlocking{});
}

Tensor
fusedQuantizedGemm(const Tensor &a, const QuantizedTensor &w,
                   bool has_activation, Nonlinearity f, bool use_lut,
                   simd::SimdIsa isa, const simd::GemmBlocking &blk)
{
    checkGemmShapes(a, w.values);
    MTIA_CHECK_EQ(w.scales.size(), 1u)
        << ": fusedQuantizedGemm expects per-tensor weight scales";
    const std::int64_t m = a.shape().dim(0);
    const std::int64_t k = a.shape().dim(1);
    const std::int64_t n = w.values.shape().dim(1);
    const QuantizedTensor qa =
        quantizeDynamic(a, QuantGranularity::PerRow);
    const auto *ai =
        reinterpret_cast<const std::int8_t *>(qa.values.raw().data());
    const auto *wi =
        reinterpret_cast<const std::int8_t *>(w.values.raw().data());
    std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n));
    Tensor out(Shape{m, n}, DType::FP32);
    DequantEpilogue ep{acc.data(), out.f32Data(), &qa,    w.scales[0],
                       n,          has_activation, f,      use_lut,
                       isa};
    simd::gemmI8(ai, wi, acc.data(), m, n, k, isa, blk, &dequantRows,
                 &ep);
    return out;
}

} // namespace mtia::gemm_kernels
