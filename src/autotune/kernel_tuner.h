#ifndef MTIA_AUTOTUNE_KERNEL_TUNER_H_
#define MTIA_AUTOTUNE_KERNEL_TUNER_H_

/**
 * @file
 * FC kernel tuning (Section 4.1). Exhaustive tuning evaluates every
 * kernel variant with a (simulated) traffic-replay test per variant;
 * ANN tuning reuses the best variant of the nearest tuned shape from
 * the performance database. The tuner tracks simulated tuning cost so
 * the 1000x speedup and the within-5% quality bound are measurable.
 *
 * Surrogate tuning (tuneSurrogate) runs the shared explore ->
 * predict -> verify loop of autotune/surrogate.h over the *extended*
 * variant grid — every placement/precision/loading combination the
 * cost model can price, tens of times larger than the legacy grid —
 * really evaluating only a seed batch plus the predicted top-k, with
 * an optional KD-tree warm start from already-tuned shapes. With
 * opts.top_k set to the grid size the same call is a bit-identical
 * exhaustive sweep of the grid.
 */

#include <vector>

#include "autotune/perf_database.h"
#include "autotune/surrogate.h"
#include "chip/kernel_cost_model.h"

namespace mtia {

/** Result of tuning one shape. */
struct TuneResult
{
    FcOptions variant;
    Tick kernel_time = 0;     ///< kernel latency with this variant
    Tick tuning_cost = 0;     ///< simulated time spent tuning
};

/** Result of a surrogate-guided sweep: the chosen variant plus the
 *  explore/predict/verify loop accounting. */
struct KernelSurrogateResult
{
    TuneResult result;
    SurrogateSweepResult loop;
    std::size_t grid_size = 0; ///< extended-grid candidate count
};

/** The FC kernel tuner. */
class KernelTuner
{
  public:
    /**
     * @param replay_cost Simulated wall-clock cost of one variant
     *        evaluation (a traffic-replay test; minutes in practice).
     */
    explicit KernelTuner(const KernelCostModel &km,
                         Tick replay_cost = fromSeconds(30.0))
        : km_(km), replay_cost_(replay_cost) {}

    /** The kernel-variant search space. */
    static std::vector<FcOptions> variantSpace();

    /**
     * The extended search space the surrogate makes affordable:
     * weights/activation/output placements x coordinated loading x
     * dynamic INT8 x 2:4 sparsity x {FP16, INT8} compute precision
     * (288 variants vs the legacy 8).
     */
    static std::vector<FcOptions> extendedVariantSpace();

    /** Surrogate feature encoding of one (shape, variant) point:
     *  log2 shape dims, placement ordinals, option flags. */
    static FeatureVec variantFeatures(const FcShape &shape,
                                      const FcOptions &opt);

    /** Evaluate every variant; pick the fastest. */
    TuneResult tuneExhaustive(const FcShape &shape) const;

    /**
     * Surrogate-guided tuning over extendedVariantSpace(): seed ->
     * train -> rank -> verify top-k (autotune/surrogate.h). @p warm,
     * when given, contributes its k nearest tuned shapes as extra
     * training rows. Infeasible variants (LLC-resident weights larger
     * than the LLC) carry a large finite penalty cost so the model
     * learns to avoid them; the winner is always feasible as long as
     * one feasible variant exists. tuning_cost charges one replay per
     * real evaluation, so the saving vs exhaustive is measurable in
     * the same simulated-cost terms as tuneExhaustive.
     *
     * The max-based cost model leaves wide exact cost ties (a flag
     * that doesn't move the bottleneck term is free). Zero regret
     * holds at any top_k; recovering the canonical lowest-index tie
     * member bit-exactly additionally needs opts.top_k sized at the
     * expected tie-cluster width (~24 on this grid) so the verify
     * pass measures the whole predicted-best cluster.
     */
    KernelSurrogateResult
    tuneSurrogate(const FcShape &shape, const PerfDatabase *warm = nullptr,
                  const SurrogateSweepOptions &opts = {}) const;

    /**
     * ANN tuning: adopt the nearest tuned shape's variant from @p db.
     * Falls back to exhaustive (and records the result) on a miss.
     */
    TuneResult tuneApproximate(const FcShape &shape,
                               PerfDatabase &db) const;

    /** Exhaustively tune a corpus into a database. */
    PerfDatabase buildDatabase(const std::vector<FcShape> &corpus) const;

  private:
    const KernelCostModel &km_;
    Tick replay_cost_;
};

/** Result of measured-GEMM tuning for one shape. */
struct GemmTuneResult
{
    GemmVariant variant;
    double seconds = 0.0; ///< best-of-reps wall clock of the winner
    double gflops = 0.0;
};

/** Result of surrogate-guided measured-GEMM tuning. */
struct GemmSurrogateResult
{
    GemmTuneResult result;
    SurrogateSweepResult loop;
    std::size_t grid_size = 0; ///< extended-grid candidate count
};

/**
 * Measured tuner for the functional GEMM kernel layer: unlike
 * KernelTuner (analytic cost model), this one executes every
 * supported dispatch tier × blocking config on the real
 * core/simd_gemm kernels and picks the fastest from best-of-reps
 * wall-clock samples (ties break to the earliest variant in
 * variantSpace order, mirroring tuneExhaustive). Selection is
 * timing-based by design — the NeuroScalar/agentic-operator
 * direction of measuring real variants instead of estimating them —
 * so it is the one sanctioned wall-clock consumer in src/.
 */
class GemmKernelTuner
{
  public:
    /** @param reps timed samples per variant (best-of); at least 1. */
    explicit GemmKernelTuner(int reps = 3);

    /** Supported tiers (scalar always included) × blocking configs. */
    static std::vector<GemmVariant> variantSpace();

    /**
     * The extended tier x blocking grid for surrogate tuning: every
     * supported tier x mc {32,64,128,256} x kc {128,256,512,1024} x
     * nc {256,512,1024} — 48 blockings per tier vs the legacy 3.
     */
    static std::vector<GemmVariant> extendedVariantSpace();

    /** Surrogate feature encoding of one (shape, variant) point. */
    static FeatureVec variantFeatures(const FcShape &shape,
                                      const GemmVariant &v);

    /** Run and time every variant on @p shape; pick the fastest. */
    GemmTuneResult tuneMeasured(const FcShape &shape) const;

    /**
     * Surrogate-guided measured tuning over extendedVariantSpace().
     * Seed and verify batches run serially on the calling thread
     * (concurrent timing samples would skew each other); the
     * surrogate trains on best-of-reps seconds, warm-started from
     * @p warm's k nearest measured shapes when given. Timing-based by
     * design, so — unlike the analytic tuners — the chosen variant is
     * not bit-reproducible across machines; the loop accounting
     * (grid size, eval counts) is.
     */
    GemmSurrogateResult
    tuneSurrogate(const FcShape &shape,
                  const GemmVariantDatabase *warm = nullptr,
                  const SurrogateSweepOptions &opts = {}) const;

    /**
     * ANN tuning: adopt the nearest measured shape's variant from
     * @p db (one confirmation timing for the reported numbers).
     * Falls back to tuneMeasured (and records the result) on a miss.
     */
    GemmTuneResult tuneApproximate(const FcShape &shape,
                                   GemmVariantDatabase &db) const;

    /** Measure a corpus into a database. */
    GemmVariantDatabase
    buildDatabase(const std::vector<FcShape> &corpus) const;

  private:
    double measureVariant(const GemmVariant &v, const float *a,
                          const float *b, float *c, const FcShape &s) const;

    int reps_;
};

} // namespace mtia

#endif // MTIA_AUTOTUNE_KERNEL_TUNER_H_
