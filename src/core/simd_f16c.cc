/**
 * F16C FP16 conversion kernels for the Avx2 and Avx512 tiers: eight
 * lanes per instruction, bit-identical to fp32ToFp16Bits /
 * fp16BitsToFp32 (tensor/dtype.cc) for every input.
 *
 *  - Narrowing is vcvtps2ph with round-to-nearest-even. Its results
 *    already match the reference everywhere: RTNE on normals and
 *    subnormals, overflow to infinity, and a NaN keeps its sign and
 *    top ten payload bits with the quiet bit set — the reference's
 *    `0x7c00 | 0x0200 | (mant >> 13)`.
 *  - Widening is vcvtph2ps, exact for every non-NaN half. The
 *    hardware quiets a signalling NaN and the reference does not, so
 *    NaN lanes are blended to the reference bits
 *    `sign | 0x7f800000 | (mant << 13)`.
 *
 * Tails run through the same instructions on a zero-padded copy.
 * CMake adds this TU (with -mavx2 -mf16c) only when the compiler
 * accepts those flags; raw intrinsics are sanctioned by the
 * raw-intrinsics rule's src/core/simd* carve-out.
 */

#include "core/simd.h"

#if defined(__F16C__) && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace mtia::simd::detail
{
namespace
{

constexpr std::size_t kWidth = 8;

inline __m128i
narrow8(__m256 x)
{
    return _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}

inline __m256
widen8(__m128i h)
{
    const __m256 hw = _mm256_cvtph_ps(h);
    const __m256i x = _mm256_cvtepu16_epi32(h);
    const __m256i abs = _mm256_and_si256(x, _mm256_set1_epi32(0x7fff));
    const __m256i is_nan = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x7c00));
    const __m256i sign = _mm256_slli_epi32(
        _mm256_and_si256(x, _mm256_set1_epi32(0x8000)), 16);
    const __m256i payload = _mm256_slli_epi32(
        _mm256_and_si256(x, _mm256_set1_epi32(0x03ff)), 13);
    const __m256i ref_nan = _mm256_or_si256(
        _mm256_or_si256(sign, payload),
        _mm256_set1_epi32(0x7f800000));
    return _mm256_blendv_ps(hw, _mm256_castsi256_ps(ref_nan),
                            _mm256_castsi256_ps(is_nan));
}

} // namespace

void
narrowFp16F16c(const float *src, std::uint16_t *dst, std::size_t n)
{
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         narrow8(_mm256_loadu_ps(src + i)));
    if (i == n)
        return;
    const std::size_t rest = n - i;
    alignas(32) float in[kWidth] = {};
    alignas(16) std::uint16_t out[kWidth] = {};
    std::copy(src + i, src + n, in);
    _mm_store_si128(reinterpret_cast<__m128i *>(out),
                    narrow8(_mm256_load_ps(in)));
    std::memcpy(dst + i, out, rest * sizeof(std::uint16_t));
}

void
widenFp16F16c(const std::uint16_t *src, float *dst, std::size_t n)
{
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth)
        _mm256_storeu_ps(dst + i,
                         widen8(_mm_loadu_si128(
                             reinterpret_cast<const __m128i *>(src + i))));
    if (i == n)
        return;
    const std::size_t rest = n - i;
    alignas(16) std::uint16_t in[kWidth] = {};
    alignas(32) float out[kWidth] = {};
    std::copy(src + i, src + n, in);
    _mm256_store_ps(out, widen8(_mm_load_si128(
                             reinterpret_cast<const __m128i *>(in))));
    std::memcpy(dst + i, out, rest * sizeof(float));
}

} // namespace mtia::simd::detail

#endif // __F16C__ && __AVX2__
