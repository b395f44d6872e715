/**
 * AVX2 GEMM micro-kernels: 4x16 fp32 tile (two __m256 per row), 4x8
 * int8 tile over __m256i int32 lanes. Compiled with -mavx2 only (no
 * -mfma, and the build forces -ffp-contract=off), so the fp chains
 * stay mul-then-add — byte-identical to the scalar reference. This TU
 * is added by CMake only when the compiler accepts -mavx2; raw
 * intrinsics are sanctioned here by the raw-intrinsics lint rule's
 * src/core/simd* carve-out.
 */

#include "core/simd_gemm.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace mtia::simd
{
namespace
{

constexpr int kMr = 4;
constexpr int kNr = 16;
constexpr int kNr8 = 8;

void
avx2TileF32(const float *a, const float *b, float *c, std::int64_t ldc,
            std::int64_t kc, int mh, int nw)
{
    if (mh != kMr || nw != kNr) {
        detail::scalarGemmKernel().f32(a, b, c, ldc, kc, mh, nw);
        return;
    }
    __m256 acc[kMr][2];
#pragma GCC unroll kMr
    for (int i = 0; i < kMr; ++i) {
        acc[i][0] = _mm256_loadu_ps(c + i * ldc);
        acc[i][1] = _mm256_loadu_ps(c + i * ldc + 8);
    }
    for (std::int64_t p = 0; p < kc; ++p) {
        const float *bp = b + p * kNr;
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        const float *ap = a + p * kMr;
#pragma GCC unroll kMr
        for (int i = 0; i < kMr; ++i) {
            const __m256 av = _mm256_set1_ps(ap[i]);
            acc[i][0] = _mm256_add_ps(acc[i][0], _mm256_mul_ps(av, b0));
            acc[i][1] = _mm256_add_ps(acc[i][1], _mm256_mul_ps(av, b1));
        }
    }
#pragma GCC unroll kMr
    for (int i = 0; i < kMr; ++i) {
        _mm256_storeu_ps(c + i * ldc, acc[i][0]);
        _mm256_storeu_ps(c + i * ldc + 8, acc[i][1]);
    }
}

void
avx2TileI8(const std::int8_t *a, const std::int8_t *b, std::int32_t *c,
           std::int64_t ldc, std::int64_t kc, int mh, int nw)
{
    if (mh != kMr || nw != kNr8) {
        detail::scalarGemmKernel().i8(a, b, c, ldc, kc, mh, nw);
        return;
    }
    __m256i acc[kMr];
#pragma GCC unroll kMr
    for (int i = 0; i < kMr; ++i)
        acc[i] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c + i * ldc));
    for (std::int64_t p = 0; p < kc; ++p) {
        const __m256i bv = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(b + p * kNr8)));
        const std::int8_t *ap = a + p * kMr;
#pragma GCC unroll kMr
        for (int i = 0; i < kMr; ++i) {
            const __m256i av =
                _mm256_set1_epi32(static_cast<std::int32_t>(ap[i]));
            acc[i] = _mm256_add_epi32(acc[i],
                                      _mm256_mullo_epi32(av, bv));
        }
    }
#pragma GCC unroll kMr
    for (int i = 0; i < kMr; ++i)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(c + i * ldc),
                            acc[i]);
}

const GemmMicroKernel kAvx2Kernel = {SimdIsa::Avx2, kMr,  kNr,
                                     &avx2TileF32,  kMr,  kNr8,
                                     &avx2TileI8};

} // namespace

namespace detail
{

const GemmMicroKernel &
avx2GemmKernel()
{
    return kAvx2Kernel;
}

} // namespace detail

} // namespace mtia::simd

#endif // __AVX2__
