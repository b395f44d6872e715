#include "ops/gemm_kernels.h"

#include <bit>
#include <cstdint>
#include <vector>

#include "core/check.h"
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
};

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
        ActEpilogue act{e->out, e->n, e->f, e->use_lut};
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

} // namespace

std::vector<float>
operandFloats(const Tensor &t, DType compute_dtype)
{
    const DType dt = compute_dtype;
    const bool half = dt == DType::FP16 || dt == DType::BF16;
    if (half && t.dtype() == dt) {
        // Already stored in the compute dtype: one widening pass. The
        // narrow step of a round trip is the identity on a widened
        // half except that it quiets NaNs, so set the quiet bit (FP32
        // bit 22, where FP16 bit 9 and BF16 bit 6 both widen to).
        std::vector<float> out(static_cast<std::size_t>(t.numel()));
        convertBuffer(
            reinterpret_cast<const std::uint16_t *>(t.raw().data()),
            out.data(), out.size(), dt);
        for (float &x : out) {
            const std::uint32_t u = std::bit_cast<std::uint32_t>(x);
            const std::uint32_t quiet =
                (u & 0x7fffffffu) > 0x7f800000u ? 0x00400000u : 0u;
            x = std::bit_cast<float>(u | quiet);
        }
        return out;
    }
    std::vector<float> out = t.toFloats();
    if (dt == DType::FP32 || out.empty())
        return out;
    if (half) {
        std::vector<std::uint16_t> bits(out.size());
        convertBuffer(out.data(), bits.data(), out.size(), dt);
        convertBuffer(bits.data(), out.data(), out.size(), dt);
        return out;
    }
    for (float &x : out)
        x = roundTrip(x, dt);
    return out;
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
    const std::vector<float> av = operandFloats(a, compute_dtype);
    const std::vector<float> bv = operandFloats(b, compute_dtype);
    Tensor c(Shape{m, n}, DType::FP32);
    simd::gemmF32(av.data(), bv.data(), c.f32Data(), m, n, k, isa, blk);
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
    const std::vector<float> av = operandFloats(a, compute_dtype);
    const std::vector<float> bv = operandFloats(b, compute_dtype);
    Tensor c(Shape{m, n}, DType::FP32);
    ActEpilogue ep{c.f32Data(), n, f, use_lut};
    simd::gemmF32(av.data(), bv.data(), ep.c, m, n, k, isa, blk,
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
    DequantEpilogue ep{acc.data(), out.f32Data(), &qa,   w.scales[0],
                       n,          has_activation, f,     use_lut};
    simd::gemmI8(ai, wi, acc.data(), m, n, k, isa, blk, &dequantRows,
                 &ep);
    return out;
}

} // namespace mtia::gemm_kernels
