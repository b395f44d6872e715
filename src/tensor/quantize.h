#ifndef MTIA_TENSOR_QUANTIZE_H_
#define MTIA_TENSOR_QUANTIZE_H_

/**
 * @file
 * INT8 quantization schemes evaluated in Section 4.4: per-tensor,
 * per-batch-item (row-wise with M as the batch dimension), and per-N
 * batch-item symmetric dynamic quantization, plus static (offline
 * calibrated) weight quantization.
 *
 * On the chip, the Reduction Engine computes per-row min/max after the
 * matmul and the SIMD Engine applies the row-wise scale; here the same
 * math runs in software so model-quality comparisons are real.
 */

#include <cstdint>
#include <vector>

#include "core/check.h"
#include "tensor/tensor.h"

namespace mtia {

/** Granularity of dynamic activation quantization. */
enum class QuantGranularity {
    PerTensor,    ///< one scale for the whole activation
    PerRow,       ///< one scale per batch item (row-wise)
    PerRowGroup,  ///< one scale per group of N batch items
};

/** An INT8-quantized rank-2 tensor plus its row scales. */
struct QuantizedTensor
{
    Tensor values;               ///< INT8 payload, same shape as source
    std::vector<float> scales;   ///< one per row group
    std::int64_t group_rows = 1; ///< rows sharing one scale

    /** Scale applied to row @p r (@p r must be a valid row). */
    float scaleFor(std::int64_t r) const
    {
        MTIA_DCHECK_GE(r, 0) << ": QuantizedTensor::scaleFor row";
        const auto g = static_cast<std::size_t>(r / group_rows);
        MTIA_DCHECK_LT(g, scales.size())
            << ": QuantizedTensor::scaleFor row " << r
            << " beyond the quantized rows";
        return scales[g];
    }
};

/**
 * Symmetric dynamic quantization of a rank-2 activation tensor.
 * Scales are derived from the observed min/max magnitude, exactly as
 * the RE/SIMD pipeline computes them. The input must be finite: an
 * inf or a NaN fails an MTIA_CHECK (its int8 bytes would differ by
 * tier).
 *
 * @param src Rank-2 float tensor [M, K].
 * @param granularity Scale granularity.
 * @param group_rows Rows per scale group (PerRowGroup only).
 */
QuantizedTensor quantizeDynamic(const Tensor &src,
                                QuantGranularity granularity,
                                std::int64_t group_rows = 1);

/**
 * Static symmetric quantization for weights with a calibration
 * saturation percentile (clipping outliers improves SQNR). The
 * weights must be finite, as for quantizeDynamic.
 */
QuantizedTensor quantizeStatic(const Tensor &weights,
                               double saturate_percentile = 100.0);

/** Reconstruct floats from a quantized tensor. */
Tensor dequantize(const QuantizedTensor &q);

/** Signal-to-quantization-noise ratio in dB between src and deq. */
double sqnrDb(const Tensor &src, const Tensor &deq);

/**
 * Apply 2:4 structured sparsity to a rank-2 weight tensor: in every
 * contiguous group of 4 elements along the inner dimension, zero the
 * two smallest magnitudes (the DPE's sparse weight format).
 * Returns the fraction of L2 norm retained.
 */
double applyTwoFourSparsity(Tensor &weights);

namespace scalar {

/**
 * Element-at-a-time reference implementations (the seed code paths)
 * of dynamic quantization and dequantization. quantizeDynamic,
 * quantizeStatic and dequantize above run fused range kernels: 128-bit
 * on every vector tier of simd::activeIsa(), element-at-a-time on the
 * scalar tier. Both are bit-identical to these — same payload bytes,
 * same scales — which the equivalence tests and bench/numerics.cc
 * verify.
 */
QuantizedTensor quantizeDynamic(const Tensor &src,
                                QuantGranularity granularity,
                                std::int64_t group_rows = 1);
Tensor dequantize(const QuantizedTensor &q);

} // namespace scalar

} // namespace mtia

#endif // MTIA_TENSOR_QUANTIZE_H_
