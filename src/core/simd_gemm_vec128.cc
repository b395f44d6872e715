/**
 * 128-bit GEMM micro-kernels (SSE2 on x86-64, NEON on AArch64) built
 * on the portable core/simd.h wrappers, so this TU holds no raw
 * intrinsics. Geometry: 4x8 fp32 tile (two VecF32 per row), 4x8 int8
 * tile over int32 lanes. Vector lanes run across output columns only;
 * each element's k-chain is mul-then-add in packed-panel order,
 * byte-identical to the scalar reference.
 */

#include "core/simd_gemm.h"

#if defined(MTIA_SIMD_VEC128)

namespace mtia::simd
{
namespace
{

constexpr int kMr = 4;
constexpr int kNr = 8;

void
vec128TileF32(const float *a, const float *b, float *c, std::int64_t ldc,
              std::int64_t kc, int mh, int nw)
{
    if (mh != kMr || nw != kNr) {
        detail::scalarGemmKernel().f32(a, b, c, ldc, kc, mh, nw);
        return;
    }
    VecF32 acc[kMr][2];
    for (int i = 0; i < kMr; ++i) {
        acc[i][0] = VecF32::load(c + i * ldc);
        acc[i][1] = VecF32::load(c + i * ldc + 4);
    }
    for (std::int64_t p = 0; p < kc; ++p) {
        const float *bp = b + p * kNr;
        const VecF32 b0 = VecF32::load(bp);
        const VecF32 b1 = VecF32::load(bp + 4);
        const float *ap = a + p * kMr;
        for (int i = 0; i < kMr; ++i) {
            const VecF32 av = VecF32::broadcast(ap[i]);
            acc[i][0] = acc[i][0] + av * b0;
            acc[i][1] = acc[i][1] + av * b1;
        }
    }
    for (int i = 0; i < kMr; ++i) {
        acc[i][0].store(c + i * ldc);
        acc[i][1].store(c + i * ldc + 4);
    }
}

void
vec128TileI8(const std::int8_t *a, const std::int8_t *b, std::int32_t *c,
             std::int64_t ldc, std::int64_t kc, int mh, int nw)
{
    if (mh != kMr || nw != kNr) {
        detail::scalarGemmKernel().i8(a, b, c, ldc, kc, mh, nw);
        return;
    }
    VecI32 acc[kMr][2];
    for (int i = 0; i < kMr; ++i) {
        acc[i][0] = VecI32::load(c + i * ldc);
        acc[i][1] = VecI32::load(c + i * ldc + 4);
    }
    for (std::int64_t p = 0; p < kc; ++p) {
        const auto *bp =
            reinterpret_cast<const std::uint8_t *>(b + p * kNr);
        const VecI32 b0 = loadI8AsI32(bp);
        const VecI32 b1 = loadI8AsI32(bp + 4);
        const std::int8_t *ap = a + p * kMr;
        for (int i = 0; i < kMr; ++i) {
            const VecI32 av =
                VecI32::broadcast(static_cast<std::int32_t>(ap[i]));
            acc[i][0] = acc[i][0] + mulLo(av, b0);
            acc[i][1] = acc[i][1] + mulLo(av, b1);
        }
    }
    for (int i = 0; i < kMr; ++i) {
        acc[i][0].store(c + i * ldc);
        acc[i][1].store(c + i * ldc + 4);
    }
}

const GemmMicroKernel kVec128Kernel = {
#if defined(MTIA_SIMD_SSE2)
    SimdIsa::Sse2,
#else
    SimdIsa::Neon,
#endif
    kMr, kNr, &vec128TileF32, kMr, kNr, &vec128TileI8};

} // namespace

namespace detail
{

const GemmMicroKernel &
vec128GemmKernel()
{
    return kVec128Kernel;
}

} // namespace detail

} // namespace mtia::simd

#endif // MTIA_SIMD_VEC128
