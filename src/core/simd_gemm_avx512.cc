/**
 * AVX-512F GEMM micro-kernels: 4x32 fp32 tile (two __m512 per row),
 * 4x16 int8 tile over __m512i int32 lanes. -mavx512f implies -mfma,
 * so the build's global -ffp-contract=off is what keeps the fp chains
 * mul-then-add and byte-identical to the scalar reference; the
 * kernels themselves only ever emit separate mul/add intrinsics.
 * CMake adds this TU only when the compiler accepts -mavx512f; raw
 * intrinsics are sanctioned by the raw-intrinsics rule's
 * src/core/simd* carve-out.
 */

#include "core/simd_gemm.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace mtia::simd
{
namespace
{

constexpr int kMr = 4;
constexpr int kNr = 32;
constexpr int kNr8 = 16;

void
avx512TileF32(const float *a, const float *b, float *c, std::int64_t ldc,
              std::int64_t kc, int mh, int nw)
{
    if (mh != kMr || nw != kNr) {
        detail::scalarGemmKernel().f32(a, b, c, ldc, kc, mh, nw);
        return;
    }
    __m512 acc[kMr][2];
#pragma GCC unroll kMr
    for (int i = 0; i < kMr; ++i) {
        acc[i][0] = _mm512_loadu_ps(c + i * ldc);
        acc[i][1] = _mm512_loadu_ps(c + i * ldc + 16);
    }
    for (std::int64_t p = 0; p < kc; ++p) {
        const float *bp = b + p * kNr;
        const __m512 b0 = _mm512_loadu_ps(bp);
        const __m512 b1 = _mm512_loadu_ps(bp + 16);
        const float *ap = a + p * kMr;
#pragma GCC unroll kMr
        for (int i = 0; i < kMr; ++i) {
            const __m512 av = _mm512_set1_ps(ap[i]);
            acc[i][0] = _mm512_add_ps(acc[i][0], _mm512_mul_ps(av, b0));
            acc[i][1] = _mm512_add_ps(acc[i][1], _mm512_mul_ps(av, b1));
        }
    }
#pragma GCC unroll kMr
    for (int i = 0; i < kMr; ++i) {
        _mm512_storeu_ps(c + i * ldc, acc[i][0]);
        _mm512_storeu_ps(c + i * ldc + 16, acc[i][1]);
    }
}

void
avx512TileI8(const std::int8_t *a, const std::int8_t *b, std::int32_t *c,
             std::int64_t ldc, std::int64_t kc, int mh, int nw)
{
    if (mh != kMr || nw != kNr8) {
        detail::scalarGemmKernel().i8(a, b, c, ldc, kc, mh, nw);
        return;
    }
    __m512i acc[kMr];
#pragma GCC unroll kMr
    for (int i = 0; i < kMr; ++i)
        acc[i] = _mm512_loadu_si512(
            reinterpret_cast<const void *>(c + i * ldc));
    for (std::int64_t p = 0; p < kc; ++p) {
        const __m512i bv = _mm512_cvtepi8_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + p * kNr8)));
        const std::int8_t *ap = a + p * kMr;
#pragma GCC unroll kMr
        for (int i = 0; i < kMr; ++i) {
            const __m512i av =
                _mm512_set1_epi32(static_cast<std::int32_t>(ap[i]));
            acc[i] = _mm512_add_epi32(acc[i],
                                      _mm512_mullo_epi32(av, bv));
        }
    }
#pragma GCC unroll kMr
    for (int i = 0; i < kMr; ++i)
        _mm512_storeu_si512(reinterpret_cast<void *>(c + i * ldc),
                            acc[i]);
}

const GemmMicroKernel kAvx512Kernel = {SimdIsa::Avx512, kMr,  kNr,
                                       &avx512TileF32,  kMr,  kNr8,
                                       &avx512TileI8};

} // namespace

namespace detail
{

const GemmMicroKernel &
avx512GemmKernel()
{
    return kAvx512Kernel;
}

} // namespace detail

} // namespace mtia::simd

#endif // __AVX512F__
