/**
 * AVX2 stump-ensemble batch predict: blocks of 16 candidates (four
 * __m256d accumulators) stay in registers across every stump; an
 * ordered compare and a blend pick left or right per lane; a tail
 * shorter than a block runs the scalar reference. CMake adds this TU only
 * when the compiler accepts -mavx2; raw intrinsics are sanctioned by
 * the raw-intrinsics rule's src/core/simd* carve-out.
 */

#include "core/simd_stumps.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace mtia::simd
{
namespace
{

constexpr std::size_t kLanes256 = 4;
constexpr int kVecs = 4;

inline __m256d
stumpStep(__m256d acc, __m256d x, __m256d thr, __m256d l, __m256d r)
{
    const __m256d lt = _mm256_cmp_pd(x, thr, _CMP_LT_OQ);
    return _mm256_add_pd(acc, _mm256_blendv_pd(r, l, lt));
}

} // namespace

namespace detail
{

void
avx2StumpPredict(const StumpTable &t, const double *cols, std::size_t ld,
                 std::size_t n, double *out)
{
    constexpr std::size_t kBlock = kVecs * kLanes256;
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        __m256d acc[kVecs];
#pragma GCC unroll kVecs
        for (int v = 0; v < kVecs; ++v)
            acc[v] = _mm256_set1_pd(t.base);
        for (std::size_t s = 0; s < t.count; ++s) {
            const double *x = cols + t.feature[s] * ld + i;
            const __m256d thr = _mm256_set1_pd(t.threshold[s]);
            const __m256d l = _mm256_set1_pd(t.left[s]);
            const __m256d r = _mm256_set1_pd(t.right[s]);
#pragma GCC unroll kVecs
            for (int v = 0; v < kVecs; ++v)
                acc[v] = stumpStep(acc[v], _mm256_loadu_pd(x + v * 4),
                                   thr, l, r);
        }
#pragma GCC unroll kVecs
        for (int v = 0; v < kVecs; ++v)
            _mm256_storeu_pd(out + i + v * 4, acc[v]);
    }
    if (i < n)
        scalarStumpPredict(t, cols + i, ld, n - i, out + i);
}

} // namespace detail

} // namespace mtia::simd

#endif // __AVX2__
