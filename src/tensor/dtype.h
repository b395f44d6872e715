#ifndef MTIA_TENSOR_DTYPE_H_
#define MTIA_TENSOR_DTYPE_H_

/**
 * @file
 * Element data types supported by the MTIA 2i datapath, with bit-exact
 * software conversion for FP16 and BF16. The conversions are real
 * (round-to-nearest-even, denormal and NaN handling) so that numerics
 * experiments — quantization quality, bit-flip injection, A/B parity —
 * measure genuine arithmetic effects.
 *
 * Two tiers of API:
 *
 *  - per-element fp32ToFp16Bits / fp16BitsToFp32 / fp32ToBf16Bits /
 *    bf16BitsToFp32 — the branchy scalar reference semantics; fine
 *    for single values and cold paths;
 *  - convertBuffer — the batch kernel layer, dispatched on
 *    simd::activeIsa(), bit-identical to the per-element functions
 *    for every input including NaN payloads, ±0, denormals, and ties:
 *      Scalar       scalar::convertBuffer, the element-at-a-time
 *                   reference loop the equivalence tests and benches
 *                   compare against;
 *      Sse2 / Neon  branch-free (mask/select) round-to-nearest-even
 *                   over core/simd.h's 128-bit vectors;
 *      Avx2 / Avx512  FP16 through F16C (simd::f16cNarrow /
 *                   f16cWiden: vcvtps2ph RTNE, vcvtph2ps with NaN
 *                   lanes blended to the reference bits); BF16 on the
 *                   128-bit kernels.
 *
 * Hot loops outside this kernel layer must call convertBuffer, not
 * the per-element functions (enforced by the scalar-hot-loop rule in
 * tools/mtia-lint).
 */

#include <cstdint>
#include <string>

namespace mtia {

/** Element types understood by the DPE / SIMD engine. */
enum class DType : std::uint8_t {
    FP32,
    FP16,
    BF16,
    INT8,
    INT32,
};

/** Bytes per element. */
std::size_t dtypeSize(DType t);

/** Human-readable name ("fp16", ...). */
std::string dtypeName(DType t);

/** IEEE binary16 conversion with round-to-nearest-even. */
std::uint16_t fp32ToFp16Bits(float f);
float fp16BitsToFp32(std::uint16_t h);

/** bfloat16 conversion with round-to-nearest-even. */
std::uint16_t fp32ToBf16Bits(float f);
float bf16BitsToFp32(std::uint16_t b);

/** Round-trip a float through the given dtype's representation. */
float roundTrip(float f, DType t);

/**
 * Bulk fp32 -> half conversion (@p to is FP16 or BF16; anything else
 * is a contract violation). Bit-identical to calling fp32ToFp16Bits /
 * fp32ToBf16Bits per element. Buffers must not overlap.
 */
void convertBuffer(const float *src, std::uint16_t *dst, std::size_t n,
                   DType to);

/**
 * Bulk half -> fp32 widening (@p from is FP16 or BF16). Bit-identical
 * to the per-element converters. Buffers must not overlap.
 */
void convertBuffer(const std::uint16_t *src, float *dst, std::size_t n,
                   DType from);

namespace scalar {

/** Element-at-a-time reference loops for the batch kernels above. */
void convertBuffer(const float *src, std::uint16_t *dst, std::size_t n,
                   DType to);
void convertBuffer(const std::uint16_t *src, float *dst, std::size_t n,
                   DType from);

} // namespace scalar

} // namespace mtia

#endif // MTIA_TENSOR_DTYPE_H_
