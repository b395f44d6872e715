/**
 * Stump-ensemble batch predict: the scalar reference, the 128-bit
 * kernel (SSE2 on x86-64, NEON on AArch64; two double lanes) and the
 * tier dispatch. The AVX2 and AVX-512 kernels live in their own TUs.
 * Raw intrinsics are sanctioned here by the raw-intrinsics rule's
 * src/core/simd* carve-out (core/simd.h has no double-lane vector).
 */

#include "core/simd_stumps.h"

namespace mtia::simd
{
namespace
{

#if defined(MTIA_SIMD_VEC128)

/** Candidates per register block: four 2-lane accumulators. */
constexpr std::size_t kVec128Block = 8;

#if defined(MTIA_SIMD_SSE2)
using VecF64 = __m128d;

inline VecF64
stumpStep(VecF64 acc, const double *x, VecF64 thr, VecF64 l, VecF64 r)
{
    const __m128d lt = _mm_cmplt_pd(_mm_loadu_pd(x), thr);
    return _mm_add_pd(acc, _mm_or_pd(_mm_and_pd(lt, l),
                                     _mm_andnot_pd(lt, r)));
}
inline VecF64
broadcastF64(double v)
{
    return _mm_set1_pd(v);
}
inline void
storeF64(double *dst, VecF64 v)
{
    _mm_storeu_pd(dst, v);
}
#elif defined(MTIA_SIMD_NEON)
using VecF64 = float64x2_t;

inline VecF64
stumpStep(VecF64 acc, const double *x, VecF64 thr, VecF64 l, VecF64 r)
{
    const uint64x2_t lt = vcltq_f64(vld1q_f64(x), thr);
    return vaddq_f64(acc, vbslq_f64(lt, l, r));
}
inline VecF64
broadcastF64(double v)
{
    return vdupq_n_f64(v);
}
inline void
storeF64(double *dst, VecF64 v)
{
    vst1q_f64(dst, v);
}
#endif

void
vec128StumpPredict(const StumpTable &t, const double *cols,
                   std::size_t ld, std::size_t n, double *out)
{
    std::size_t i = 0;
    for (; i + kVec128Block <= n; i += kVec128Block) {
        VecF64 acc[4];
#pragma GCC unroll 4
        for (int v = 0; v < 4; ++v)
            acc[v] = broadcastF64(t.base);
        for (std::size_t s = 0; s < t.count; ++s) {
            const double *x = cols + t.feature[s] * ld + i;
            const VecF64 thr = broadcastF64(t.threshold[s]);
            const VecF64 l = broadcastF64(t.left[s]);
            const VecF64 r = broadcastF64(t.right[s]);
#pragma GCC unroll 4
            for (int v = 0; v < 4; ++v)
                acc[v] = stumpStep(acc[v], x + 2 * v, thr, l, r);
        }
#pragma GCC unroll 4
        for (int v = 0; v < 4; ++v)
            storeF64(out + i + 2 * v, acc[v]);
    }
    if (i < n)
        detail::scalarStumpPredict(t, cols + i, ld, n - i, out + i);
}

#endif // MTIA_SIMD_VEC128

} // namespace

namespace detail
{

void
scalarStumpPredict(const StumpTable &t, const double *cols, std::size_t ld,
                   std::size_t n, double *out)
{
    // Stumps outer, candidates inner: each candidate still adds base
    // and then every stump in order.
    for (std::size_t i = 0; i < n; ++i)
        out[i] = t.base;
    for (std::size_t s = 0; s < t.count; ++s) {
        const double *x = cols + t.feature[s] * ld;
        const double thr = t.threshold[s];
        const double l = t.left[s];
        const double r = t.right[s];
        for (std::size_t i = 0; i < n; ++i)
            out[i] += x[i] < thr ? l : r;
    }
}

} // namespace detail

void
stumpPredict(SimdIsa isa, const StumpTable &t, const double *cols,
             std::size_t n, double *out)
{
    switch (isa) {
    case SimdIsa::Avx512:
#if defined(MTIA_GEMM_HAVE_AVX512)
        detail::avx512StumpPredict(t, cols, n, n, out);
        return;
#else
        break;
#endif
    case SimdIsa::Avx2:
#if defined(MTIA_GEMM_HAVE_AVX2)
        detail::avx2StumpPredict(t, cols, n, n, out);
        return;
#else
        break;
#endif
    case SimdIsa::Sse2:
    case SimdIsa::Neon:
#if defined(MTIA_SIMD_VEC128)
        vec128StumpPredict(t, cols, n, n, out);
        return;
#else
        break;
#endif
    case SimdIsa::Scalar:
        break;
    }
    detail::scalarStumpPredict(t, cols, n, n, out);
}

} // namespace mtia::simd
