#include "core/simd_gemm.h"

#include <algorithm>
#include <cstring>

#include "core/check.h"
#include "core/numerics_stats.h"
#include "core/parallel.h"
#include "core/scratch_buffer.h"

namespace mtia::simd
{
namespace
{

// ------------------------------------------ scalar micro-kernels
//
// These ARE the reference chains: for each C element, a single
// sequential fp32 accumulation over the packed strips, mul then add.
// Every vector tier reproduces exactly these per-element chains.

void
scalarTileF32(const float *a, const float *b, float *c, std::int64_t ldc,
              std::int64_t kc, int mh, int nw)
{
    for (int i = 0; i < mh; ++i) {
        for (int j = 0; j < nw; ++j) {
            float acc = c[i * ldc + j];
            for (std::int64_t p = 0; p < kc; ++p)
                acc += a[p * mh + i] * b[p * nw + j];
            c[i * ldc + j] = acc;
        }
    }
}

void
scalarTileI8(const std::int8_t *a, const std::int8_t *b, std::int32_t *c,
             std::int64_t ldc, std::int64_t kc, int mh, int nw)
{
    for (int i = 0; i < mh; ++i) {
        for (int j = 0; j < nw; ++j) {
            std::int32_t acc = c[i * ldc + j];
            for (std::int64_t p = 0; p < kc; ++p)
                acc += static_cast<std::int32_t>(a[p * mh + i]) *
                       static_cast<std::int32_t>(b[p * nw + j]);
            c[i * ldc + j] = acc;
        }
    }
}

// --------------------------------------------------- per-lane scratch

/**
 * One lane's GEMM scratch. Each pool lane is one thread, so a
 * thread_local is a per-lane buffer: `b_pack` belongs to the thread
 * that called the driver (the lanes fill and read it inside that
 * call's parallel regions), `a_block` and `row` to whichever lane
 * packs into them. A thread runs one driver call at a time (nested
 * regions run inline), so no buffer is ever in use twice.
 */
struct LaneScratch
{
    ScratchBuffer b_pack;
    ScratchBuffer a_block;
    ScratchBuffer row;
};

thread_local LaneScratch tl_scratch;

// --------------------------------------------------- packing helpers
//
// Elementwise data movement from a row source; identical regardless
// of tier or thread count. B is packed panel-major: panel p (rows
// [k0,k1)) lives at b_pack + k0*n, as nr-wide column strips laid out
// sequentially so the strip starting at column j0 sits at offset
// kcp*j0, with layout strip[p*nw + j]. A row blocks pack as mr-tall
// strips, strip at row offset is*kcp, layout strip[p*mh + i]. Each
// source row segment is fetched (and so converted) exactly once per
// call: B rows once per panel, A row segments once per row block and
// panel.

/** Row-major int8 buffer read in place (the int8 row source). */
struct Int8Rows
{
    const std::int8_t *p;
    std::int64_t ld;

    const std::int8_t *
    row(std::int64_t r, std::int64_t c0, std::int64_t, std::int8_t *) const
    {
        return p + r * ld + c0;
    }
};

template <typename T, typename Src>
void
packBPanel(const Src &b, T *dst, std::int64_t n, std::int64_t k0,
           std::int64_t kcp, int nr, T *staging)
{
    for (std::int64_t p = 0; p < kcp; ++p) {
        const T *src = b.row(k0 + p, 0, n, staging);
        for (std::int64_t j0 = 0; j0 < n; j0 += nr) {
            const std::int64_t nw = std::min<std::int64_t>(nr, n - j0);
            std::memcpy(dst + kcp * j0 + p * nw, src + j0,
                        static_cast<std::size_t>(nw) * sizeof(T));
        }
    }
}

template <typename T, typename Src>
void
packABlock(const Src &a, T *dst, std::int64_t i0, std::int64_t mb,
           std::int64_t k0, std::int64_t kcp, int mr, T *staging)
{
    for (std::int64_t is = 0; is < mb; is += mr) {
        const std::int64_t mh = std::min<std::int64_t>(mr, mb - is);
        T *strip = dst + is * kcp;
        for (std::int64_t i = 0; i < mh; ++i) {
            const T *src = a.row(i0 + is + i, k0, kcp, staging);
            for (std::int64_t p = 0; p < kcp; ++p)
                strip[p * mh + i] = src[p];
        }
    }
}

const GemmMicroKernel kScalarKernel = {SimdIsa::Scalar, 4,  4,
                                       &scalarTileF32,  4,  4,
                                       &scalarTileI8};

std::int64_t
sanitized(std::int64_t v)
{
    return std::max<std::int64_t>(1, v);
}

// The one driver, for the f32 and int8 element types.
template <typename T, typename Acc, typename Src>
void
gemmDriver(const Src &a, const Src &b, Acc *c, std::int64_t m,
           std::int64_t n, std::int64_t k, int mr, int nr,
           void (*tile)(const T *, const T *, Acc *, std::int64_t,
                        std::int64_t, int, int),
           const GemmBlocking &blk,
           void (*epilogue)(void *, std::int64_t, std::int64_t),
           void *epilogue_arg)
{
    const std::int64_t mc = sanitized(blk.mc);
    const std::int64_t kc = sanitized(blk.kc);
    // Round the column block up to a whole number of strips so jc
    // boundaries never split a packed strip.
    const std::int64_t ncr =
        ((sanitized(blk.nc) + nr - 1) / nr) * static_cast<std::int64_t>(nr);

    const std::int64_t np = (k + kc - 1) / kc;
    // Longest row segment a lane stages: a whole B row, or one A
    // row's kc-deep panel slice.
    const std::int64_t staged = std::max(n, std::min(kc, k));

    // Pack B once per call; panels are disjoint output regions.
    T *b_pack = tl_scratch.b_pack.get<T>(k * n);
    parallelFor(static_cast<std::size_t>(np), [&](std::size_t pz) {
        const std::int64_t k0 = static_cast<std::int64_t>(pz) * kc;
        const std::int64_t kcp = std::min(kc, k - k0);
        packBPanel(b, b_pack + k0 * n, n, k0, kcp, nr,
                   tl_scratch.row.get<T>(staged));
    });

    const std::int64_t nb = (m + mc - 1) / mc;
    parallelFor(static_cast<std::size_t>(nb), [&](std::size_t rbz) {
        const std::int64_t i0 = static_cast<std::int64_t>(rbz) * mc;
        const std::int64_t mb = std::min(mc, m - i0);
        std::memset(static_cast<void *>(c + i0 * n), 0,
                    static_cast<std::size_t>(mb * n) * sizeof(Acc));
        T *a_pack = tl_scratch.a_block.get<T>(mb * std::min(kc, k));
        T *staging = tl_scratch.row.get<T>(staged);
        for (std::int64_t p = 0; p < np; ++p) {
            const std::int64_t k0 = p * kc;
            const std::int64_t kcp = std::min(kc, k - k0);
            packABlock(a, a_pack, i0, mb, k0, kcp, mr, staging);
            const T *b_panel = b_pack + k0 * n;
            for (std::int64_t jc = 0; jc < n; jc += ncr) {
                const std::int64_t jc_end = std::min(n, jc + ncr);
                for (std::int64_t j0 = jc; j0 < jc_end; j0 += nr) {
                    const std::int64_t nw =
                        std::min<std::int64_t>(nr, n - j0);
                    for (std::int64_t is = 0; is < mb; is += mr) {
                        const std::int64_t mh =
                            std::min<std::int64_t>(mr, mb - is);
                        tile(a_pack + is * kcp, b_panel + kcp * j0,
                             c + (i0 + is) * n + j0, n, kcp,
                             static_cast<int>(mh), static_cast<int>(nw));
                    }
                }
            }
        }
        if (epilogue != nullptr)
            epilogue(epilogue_arg, i0, i0 + mb);
    });
}

} // namespace

namespace detail
{

const GemmMicroKernel &
scalarGemmKernel()
{
    return kScalarKernel;
}

} // namespace detail

const GemmMicroKernel &
microKernel(SimdIsa isa)
{
    MTIA_CHECK(isaSupported(isa))
        << ": microKernel(" << isaName(isa) << ") not supported here";
    switch (isa) {
    case SimdIsa::Scalar:
        return detail::scalarGemmKernel();
    case SimdIsa::Sse2:
    case SimdIsa::Neon:
#if defined(MTIA_SIMD_VEC128)
        return detail::vec128GemmKernel();
#else
        break;
#endif
    case SimdIsa::Avx2:
#if defined(MTIA_GEMM_HAVE_AVX2)
        return detail::avx2GemmKernel();
#else
        break;
#endif
    case SimdIsa::Avx512:
#if defined(MTIA_GEMM_HAVE_AVX512)
        return detail::avx512GemmKernel();
#else
        break;
#endif
    }
    MTIA_UNREACHABLE("microKernel: tier not compiled in");
}

void
gemmF32(const RowSource &a, const RowSource &b, float *c, std::int64_t m,
        std::int64_t n, std::int64_t k, SimdIsa isa,
        const GemmBlocking &blk,
        void (*epilogue)(void *, std::int64_t, std::int64_t),
        void *epilogue_arg)
{
    MTIA_CHECK(m >= 0 && n >= 0 && k >= 0)
        << ": gemmF32 negative shape " << m << "x" << k << "x" << n;
    if (m == 0 || n == 0)
        return;
    const GemmMicroKernel &mk = microKernel(isa);
    gemmDriver<float, float>(a, b, c, m, n, k, mk.mr, mk.nr, mk.f32, blk,
                             epilogue, epilogue_arg);
    numerics::noteGemmFlops(2 * m * n * k);
}

void
gemmF32(const float *a, const float *b, float *c, std::int64_t m,
        std::int64_t n, std::int64_t k, SimdIsa isa,
        const GemmBlocking &blk,
        void (*epilogue)(void *, std::int64_t, std::int64_t),
        void *epilogue_arg)
{
    gemmF32(RowSource{.f32 = a, .ld = k}, RowSource{.f32 = b, .ld = n}, c,
            m, n, k, isa, blk, epilogue, epilogue_arg);
}

void
gemmI8(const std::int8_t *a, const std::int8_t *b, std::int32_t *c,
       std::int64_t m, std::int64_t n, std::int64_t k, SimdIsa isa,
       const GemmBlocking &blk,
       void (*epilogue)(void *, std::int64_t, std::int64_t),
       void *epilogue_arg)
{
    MTIA_CHECK(m >= 0 && n >= 0 && k >= 0)
        << ": gemmI8 negative shape " << m << "x" << k << "x" << n;
    // k*16384 must stay below 2^31 so int32 partial sums are exact in
    // any accumulation order (|int8 product| <= 16384).
    MTIA_CHECK_LE(k, 131071) << ": gemmI8 depth overflows int32 lanes";
    if (m == 0 || n == 0)
        return;
    const GemmMicroKernel &mk = microKernel(isa);
    gemmDriver<std::int8_t, std::int32_t>(Int8Rows{a, k}, Int8Rows{b, n},
                                          c, m, n, k, mk.mr8, mk.nr8,
                                          mk.i8, blk, epilogue,
                                          epilogue_arg);
    numerics::noteGemmFlops(2 * m * n * k);
}

} // namespace mtia::simd
