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

} // namespace mtia

#endif // MTIA_AUTOTUNE_KERNEL_TUNER_H_
