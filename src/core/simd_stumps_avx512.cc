/**
 * AVX-512F stump-ensemble batch predict: blocks of 32 candidates (four
 * __m512d accumulators) stay in registers across every stump; the
 * ordered compare lands in a mask register that picks left or right
 * per lane; a tail shorter than a block runs the scalar reference.
 * CMake adds this TU only when the compiler accepts -mavx512f; raw
 * intrinsics are sanctioned by the raw-intrinsics rule's src/core/simd*
 * carve-out.
 */

#include "core/simd_stumps.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace mtia::simd
{
namespace
{

constexpr std::size_t kLanes512 = 8;
constexpr int kVecs = 4;

inline __m512d
stumpStep(__m512d acc, __m512d x, __m512d thr, __m512d l, __m512d r)
{
    const __mmask8 lt = _mm512_cmp_pd_mask(x, thr, _CMP_LT_OQ);
    return _mm512_add_pd(acc, _mm512_mask_blend_pd(lt, r, l));
}

} // namespace

namespace detail
{

void
avx512StumpPredict(const StumpTable &t, const double *cols, std::size_t ld,
                   std::size_t n, double *out)
{
    constexpr std::size_t kBlock = kVecs * kLanes512;
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        __m512d acc[kVecs];
#pragma GCC unroll kVecs
        for (int v = 0; v < kVecs; ++v)
            acc[v] = _mm512_set1_pd(t.base);
        for (std::size_t s = 0; s < t.count; ++s) {
            const double *x = cols + t.feature[s] * ld + i;
            const __m512d thr = _mm512_set1_pd(t.threshold[s]);
            const __m512d l = _mm512_set1_pd(t.left[s]);
            const __m512d r = _mm512_set1_pd(t.right[s]);
#pragma GCC unroll kVecs
            for (int v = 0; v < kVecs; ++v)
                acc[v] = stumpStep(acc[v], _mm512_loadu_pd(x + v * 8),
                                   thr, l, r);
        }
#pragma GCC unroll kVecs
        for (int v = 0; v < kVecs; ++v)
            _mm512_storeu_pd(out + i + v * 8, acc[v]);
    }
    if (i < n)
        scalarStumpPredict(t, cols + i, ld, n - i, out + i);
}

} // namespace detail

} // namespace mtia::simd

#endif // __AVX512F__
