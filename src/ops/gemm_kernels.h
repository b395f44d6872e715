#ifndef MTIA_OPS_GEMM_KERNELS_H_
#define MTIA_OPS_GEMM_KERNELS_H_

/**
 * @file
 * Tensor-level entry points for the runtime-dispatched blocked GEMM
 * (core/simd_gemm.h) and the fused operator layer. Every function is
 * bit-identical to the element-at-a-time reference composition it
 * replaces, on every dispatch tier and at any MTIA_THREADS:
 *
 *  - gemm()                ≡ DotProductEngine::gemm
 *  - fusedGemmActivation() ≡ DotProductEngine::gemm followed by
 *                            SimdEngine::apply / applyExact
 *  - fusedQuantizedGemm()  ≡ quantizeDynamic(PerRow) →
 *                            DotProductEngine::gemmInt8 → dequant →
 *                            optional activation
 *
 * The fused variants run their dequant/activation epilogues inside
 * the GEMM's parallel region, once per finished mc-row block while it
 * is cache-hot; only the per-row dynamic quantization of A remains a
 * (vectorized) pre-pass, like panel packing.
 *
 * The ISA tier defaults to simd::activeIsa() (ScopedIsa override →
 * MTIA_SIMD_ISA env → cpuid) and is resolved on the calling thread.
 */

#include "core/simd_gemm.h"
#include "pe/simd_engine.h"
#include "tensor/quantize.h"
#include "tensor/tensor.h"

namespace mtia::gemm_kernels
{

/** Process-wide SimdEngine (default config) shared by the dense ops
 *  and the fused epilogues, so LUT tables are built once. */
const SimdEngine &sharedSimdEngine();

/**
 * GEMM operand @p tensor read as rows of floats rounded through
 * @p compute_dtype: the reference gemm's
 * `roundTrip(at2(i, x), compute_dtype)` hoisted out of the k loop and
 * done per row while the driver packs. FP32 storage with an FP32
 * compute dtype is read in place; any other combination converts
 * each row segment it is asked for (a half operand already stored in
 * the compute dtype in one widening pass). The tensor must outlive
 * the source.
 */
struct OperandRows
{
    const Tensor *tensor;
    DType compute_dtype;

    /** The driver-facing view; points at this object. */
    simd::RowSource source() const;
};

/** C = A·B with inputs rounded through @p compute_dtype, bit-identical
 *  to DotProductEngine::gemm. */
Tensor gemm(const Tensor &a, const Tensor &b, DType compute_dtype);
Tensor gemm(const Tensor &a, const Tensor &b, DType compute_dtype,
            simd::SimdIsa isa, const simd::GemmBlocking &blk);

/** GEMM plus elementwise activation fused into the row-block
 *  epilogue. @p use_lut selects the LUT path (SimdEngine::apply
 *  semantics: ReLU exact on the ALUs) vs the exact reference. */
Tensor fusedGemmActivation(const Tensor &a, const Tensor &b,
                           DType compute_dtype, Nonlinearity f,
                           bool use_lut);
Tensor fusedGemmActivation(const Tensor &a, const Tensor &b,
                           DType compute_dtype, Nonlinearity f,
                           bool use_lut, simd::SimdIsa isa,
                           const simd::GemmBlocking &blk);

/**
 * Dynamic-int8 fused path: per-row quantize A, int8 GEMM against
 * per-tensor-quantized weights @p w, dequantize and (optionally)
 * activate in the row-block epilogue. Returns FP32.
 */
Tensor fusedQuantizedGemm(const Tensor &a, const QuantizedTensor &w,
                          bool has_activation, Nonlinearity f,
                          bool use_lut);
Tensor fusedQuantizedGemm(const Tensor &a, const QuantizedTensor &w,
                          bool has_activation, Nonlinearity f,
                          bool use_lut, simd::SimdIsa isa,
                          const simd::GemmBlocking &blk);

} // namespace mtia::gemm_kernels

#endif // MTIA_OPS_GEMM_KERNELS_H_
