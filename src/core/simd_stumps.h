#ifndef MTIA_CORE_SIMD_STUMPS_H_
#define MTIA_CORE_SIMD_STUMPS_H_

/**
 * @file
 * Batch predict of an additive ensemble of depth-1 regression trees
 * (stumps), with a runtime-dispatched kernel per ISA tier (core/simd.h
 * SimdIsa) beside the GEMM micro-kernels. The autotuners' learned cost
 * surrogate (autotune/surrogate.h) predicts its whole candidate grid
 * through it.
 *
 * Determinism contract — every tier produces bytes identical to the
 * scalar reference: each candidate's prediction is
 * `base + stump_0 + stump_1 + ... + stump_last`, added in stump order
 * in double precision, where stump s contributes `left[s]` when the
 * candidate's feature `feature[s]` is `< threshold[s]` (an ordered
 * compare: NaN takes `right[s]`) and `right[s]` otherwise. Vector
 * lanes run across candidates only, so every candidate keeps its own
 * sequential chain; the vector tiers keep a block of candidates'
 * accumulators in registers across every stump.
 */

#include <cstddef>
#include <cstdint>

#include "core/simd.h"

namespace mtia::simd
{

/** A stump ensemble as parallel arrays of @c count entries. */
struct StumpTable
{
    double base = 0.0;
    std::size_t count = 0;
    const std::uint32_t *feature = nullptr;
    const double *threshold = nullptr;
    const double *left = nullptr;  ///< response when x[feature] < threshold
    const double *right = nullptr; ///< response otherwise
};

/**
 * out[i] = the ensemble's prediction for candidate i, i in [0, n).
 * Features are column-major: candidate i's feature f is
 * cols[f * n + i]. Runs the kernel of @p isa (must satisfy
 * isaSupported); tiers without a kernel of their own run the scalar
 * reference.
 */
void stumpPredict(SimdIsa isa, const StumpTable &t, const double *cols,
                  std::size_t n, double *out);

namespace detail
{
// Per-tier kernels with stumpPredict's contract, except that the
// column stride is @p ld (>= n), so a tier can finish a block-sized
// remainder on the scalar reference; the AVX TUs exist only when
// CMake's compiler checks pass (MTIA_GEMM_HAVE_*).
void scalarStumpPredict(const StumpTable &t, const double *cols,
                        std::size_t ld, std::size_t n, double *out);
void avx2StumpPredict(const StumpTable &t, const double *cols,
                      std::size_t ld, std::size_t n, double *out);
void avx512StumpPredict(const StumpTable &t, const double *cols,
                        std::size_t ld, std::size_t n, double *out);
} // namespace detail

} // namespace mtia::simd

#endif // MTIA_CORE_SIMD_STUMPS_H_
