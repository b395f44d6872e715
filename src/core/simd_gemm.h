#ifndef MTIA_CORE_SIMD_GEMM_H_
#define MTIA_CORE_SIMD_GEMM_H_

/**
 * Blocked, cache-tiled, multithreaded GEMM over raw row-major buffers
 * with runtime-dispatched register-blocked micro-kernels per ISA tier
 * (core/simd.h SimdIsa). The layering keeps Tensor out of core: the
 * Tensor-facing wrappers (dtype round-trip, fused activation epilogue)
 * live in src/ops/gemm_kernels.h.
 *
 * Determinism contract — every tier, at any MTIA_THREADS, produces
 * bytes identical to the scalar reference (the sequential
 * `acc += a[i,p] * b[p,j]` chain of pe/dpe.cc):
 *
 *  - Vectorization runs only across j (output columns), so each
 *    output element keeps its own strictly sequential fp32
 *    k-accumulation chain. No FMA anywhere (mul then add; the build
 *    forces -ffp-contract=off).
 *  - C is zeroed, then kc-deep packed panels are accumulated in
 *    ascending panel order; micro-kernels load/accumulate/store their
 *    C tile per panel, preserving the global k order.
 *  - Packing (BLIS-style) converts each operand element exactly
 *    once and moves it, elementwise, into its packed slot: B is
 *    packed once per call into nr-wide column strips per panel; A is
 *    packed per row block into mr-tall row strips. A RowSource yields
 *    each row already rounded through the compute dtype (by the same
 *    converters the reference uses), so the kernels only ever see the
 *    fp32 values the reference multiplies.
 *  - Pack panels and row staging live in grow-only per-lane scratch
 *    reused across calls and never zeroed: every slot a micro-kernel
 *    reads is written by the pack first.
 *  - Threads partition disjoint mc-row blocks via core/parallel.h
 *    parallelFor (static sharding), so the work-to-writes mapping is
 *    independent of the lane count.
 *
 * The int8 path accumulates in int32 lanes; integer addition is
 * associative so blocking is free. |a*b| <= 16384 bounds any partial
 * sum by k*16384, hence exactness (and no signed overflow) holds for
 * k <= 131071 — enforced by the driver, far above model shapes.
 */

#include <cstdint>

#include "core/simd.h"

namespace mtia::simd
{

/** Cache-blocking config: mc rows/parallel block, kc-deep panels, nc
 *  columns per L2/L3 block. */
struct GemmBlocking
{
    std::int64_t mc = 64;
    std::int64_t kc = 256;
    std::int64_t nc = 512;
};

/**
 * One ISA tier's register-blocked micro-kernels. `f32` accumulates an
 * mh×nw tile of C (mh<=mr, nw<=nr) over a kc-deep packed A strip
 * (layout a[p*mh + i]) and B strip (layout b[p*nw + j]); `i8` is the
 * int32-accumulating int8 counterpart with its own mr8×nr8 geometry.
 * Partial tiles fall back to scalar element loops inside the kernel.
 */
struct GemmMicroKernel
{
    SimdIsa isa = SimdIsa::Scalar;
    int mr = 4;
    int nr = 4;
    void (*f32)(const float *a_strip, const float *b_strip, float *c,
                std::int64_t ldc, std::int64_t kc, int mh, int nw);
    int mr8 = 4;
    int nr8 = 4;
    void (*i8)(const std::int8_t *a_strip, const std::int8_t *b_strip,
               std::int32_t *c, std::int64_t ldc, std::int64_t kc, int mh,
               int nw);
};

/**
 * A GEMM operand read row by row as fp32. FP32 storage is read in
 * place through `f32` (row stride `ld` elements); any other operand
 * sets `fetch`, which writes row r, columns [c0, c0 + len), as the
 * fp32 values the reference would multiply into `dst` — converting
 * from the stored dtype while the driver packs. `fetch` runs on pool
 * lanes concurrently, so it must only read shared state.
 */
struct RowSource
{
    const float *f32 = nullptr;
    std::int64_t ld = 0;
    const void *ctx = nullptr;
    void (*fetch)(const void *ctx, std::int64_t r, std::int64_t c0,
                  std::int64_t len, float *dst) = nullptr;

    /** Row r, columns [c0, c0 + len), as fp32: a pointer into the
     *  storage when it is fp32, else into `staging` (len floats). */
    const float *
    row(std::int64_t r, std::int64_t c0, std::int64_t len,
        float *staging) const
    {
        if (fetch == nullptr)
            return f32 + r * ld + c0;
        fetch(ctx, r, c0, len, staging);
        return staging;
    }
};

/** Micro-kernel table entry for `isa` (must satisfy isaSupported). */
const GemmMicroKernel &microKernel(SimdIsa isa);

/**
 * C[m×n] = A[m×k] · B[k×n] over fp32 row sources, C row-major,
 * bit-identical to the sequential scalar reference on every tier.
 * `epilogue`, when non-null, runs inside the parallel region once per
 * finished row block (args: row begin/end) — the fusion hook for
 * activation / dequant passes while the block is still cache-hot.
 */
void gemmF32(const RowSource &a, const RowSource &b, float *c,
             std::int64_t m, std::int64_t n, std::int64_t k, SimdIsa isa,
             const GemmBlocking &blk,
             void (*epilogue)(void *, std::int64_t, std::int64_t) = nullptr,
             void *epilogue_arg = nullptr);

/** gemmF32 over row-major fp32 buffers (the in-place RowSource). */
void gemmF32(const float *a, const float *b, float *c, std::int64_t m,
             std::int64_t n, std::int64_t k, SimdIsa isa,
             const GemmBlocking &blk,
             void (*epilogue)(void *, std::int64_t, std::int64_t) = nullptr,
             void *epilogue_arg = nullptr);

/** Int8 GEMM with exact int32 accumulation (k <= 131071 enforced). */
void gemmI8(const std::int8_t *a, const std::int8_t *b, std::int32_t *c,
            std::int64_t m, std::int64_t n, std::int64_t k, SimdIsa isa,
            const GemmBlocking &blk,
            void (*epilogue)(void *, std::int64_t, std::int64_t) = nullptr,
            void *epilogue_arg = nullptr);

namespace detail
{
// Per-tier kernel tables, defined in their own TUs (the AVX TUs exist
// only when CMake's compiler checks pass; microKernel() references
// them behind MTIA_GEMM_HAVE_* / MTIA_SIMD_* guards).
const GemmMicroKernel &scalarGemmKernel();
const GemmMicroKernel &vec128GemmKernel(); // SSE2 or NEON via VecF32
const GemmMicroKernel &avx2GemmKernel();
const GemmMicroKernel &avx512GemmKernel();
} // namespace detail

} // namespace mtia::simd

#endif // MTIA_CORE_SIMD_GEMM_H_
