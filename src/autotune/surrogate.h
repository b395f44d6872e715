#ifndef MTIA_AUTOTUNE_SURROGATE_H_
#define MTIA_AUTOTUNE_SURROGATE_H_

/**
 * @file
 * Learned cost surrogate for the autotuners (the NeuroScalar
 * direction): a deterministic, dependency-free regression model
 * trained online from the sweep's own (feature -> measured cost)
 * samples, so a tuner can *predict* the cost of every point in a
 * 100-1000x larger candidate grid and pay the real analytic or DES
 * evaluation only for a small seed batch plus the top-k predicted
 * candidates.
 *
 * The model is an additive ensemble of gradient-boosted depth-1
 * regression trees (stumps) fitted to residuals. Thresholds are
 * midpoints of sorted unique feature values; every argmin breaks ties
 * toward the lowest feature index, then the lowest threshold, so the
 * fitted model is a pure function of the training set.
 *
 * Determinism rules: training, prediction and the real evaluations
 * of the explore -> predict -> verify loop below all run on the
 * calling thread in a fixed order with double-precision arithmetic,
 * so the same samples give a byte-identical model, byte-identical
 * predictions and the same winner on every run.
 *
 * Grids no larger than seed_count + top_k are swept exhaustively —
 * every candidate evaluated for real, bit-identically to a plain
 * sweep. A caller that needs that exhaustive reference (the
 * zero-regret gates) sets top_k to the grid size.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mtia {

/** Fixed-width surrogate feature vector; unused trailing slots stay 0. */
constexpr std::size_t kSurrogateFeatures = 10;
using FeatureVec = std::array<double, kSurrogateFeatures>;

/**
 * The trained cost model: fit() on (features -> cost) samples, then
 * predict() anywhere in feature space. Deterministic (see the file
 * comment) and cheap enough to retrain from scratch inside every
 * tuning call.
 */
class CostSurrogate
{
  public:
    /**
     * Train from scratch on @p x / @p y (same length, nonempty, every
     * feature and target finite: a NaN would break the sort order the
     * split search relies on). Calling fit again discards the previous
     * model.
     */
    void fit(const std::vector<FeatureVec> &x, const std::vector<double> &y);

    /** Predicted cost at @p x. @pre fit() has run. */
    double predict(const FeatureVec &x) const;

    /** predict() of every row of @p xs, bit-equal to calling it per
     *  row, through the active SIMD tier's stump kernel
     *  (core/simd_stumps.h). @pre fit() has run. */
    std::vector<double> predictAll(const std::vector<FeatureVec> &xs) const;

    /**
     * Deterministic dump of every fitted parameter (hex-float text):
     * byte-equal dumps mean byte-equal models.
     */
    std::string describe() const;

  private:
    double base_ = 0.0;
    // The stumps in fit order, as parallel arrays (the layout the
    // batch predict kernel reads): stump s adds left_[s] when
    // x[feature_[s]] < threshold_[s], else right_[s], both
    // learning-rate scaled.
    std::vector<std::uint32_t> feature_;
    std::vector<double> threshold_;
    std::vector<double> left_;
    std::vector<double> right_;
};

/** Tuning-loop knobs. Defaults suit grids of a few hundred to a few
 *  thousand candidates. */
struct SurrogateSweepOptions
{
    /** Real evaluations used to train the model (evenly strided over
     *  the grid, first and last candidate always included). */
    std::size_t seed_count = 24;
    /** Predicted-best candidates re-checked with the real evaluator;
     *  the grid size (or more) makes the sweep exhaustive. */
    std::size_t top_k = 8;
    /**
     * Warm-start samples (typically k-nearest entries from a
     * PerfDatabase KD-tree): extra training rows prepended to the
     * seed batch. They never count as real evaluations of this grid
     * and are never selection candidates.
     */
    std::vector<FeatureVec> warm_features{};
    std::vector<double> warm_costs{};
};

/** What one explore -> predict -> verify sweep did and found. */
struct SurrogateSweepResult
{
    /** Grid index of the chosen candidate (lowest real cost among all
     *  really-evaluated candidates; lowest index wins ties). */
    std::size_t best_index = 0;
    /** Real cost of the chosen candidate. */
    double best_cost = 0.0;
    /** Model predictions for the whole grid (empty on the exhaustive
     *  fallback path). */
    std::vector<double> predicted;
    /** Grid indices evaluated for real, ascending. */
    std::vector<std::size_t> measured;
    /** Real costs aligned with @c measured. */
    std::vector<double> measured_cost;
    /** Predictions issued (grid size when the surrogate ran, else 0). */
    std::size_t surrogate_evals = 0;
    /** Real evaluator calls (seed + verify, or the whole grid). */
    std::size_t real_evals = 0;
    /** Mean |prediction - real| over the verified top-k (0 when the
     *  surrogate did not run). */
    double mae = 0.0;
    /** False when the sweep fell back to exhaustive evaluation (the
     *  grid is no larger than seed_count + top_k). */
    bool used_surrogate = false;
};

/**
 * The shared explore -> predict -> verify loop. Minimizes
 * @p real_cost over the candidate grid [0, n):
 *
 *  1. really evaluate an evenly-strided seed batch,
 *  2. train a surrogate on warm-start + seed samples — targets in
 *     asinh space, so 1e18 penalty tiers don't drown the feasible
 *     region's resolution (monotone: ranking is unaffected),
 *  3. predict all n candidates,
 *  4. really evaluate the k candidates not already measured that
 *     come first in (prediction, index) order,
 *  5. return the argmin of real cost over everything measured
 *     (lowest index wins ties).
 *
 * @p feature and @p real_cost must be pure functions of the index
 * (plus read-only captures): the loop evaluates a subset of the grid
 * in its own order, and no cost may depend on that order. When
 * n <= seed_count + top_k (no overflow: top_k may be SIZE_MAX), every
 * candidate is evaluated for real instead (the exhaustive path,
 * bit-identical to a plain sweep). Real costs, warm-start rows and seed
 * features must be finite: a non-finite real cost is a checked failure
 * that names its candidate index, a non-finite training feature or
 * warm cost one that names its training row.
 *
 * Every call feeds the autotune.{surrogate_evals,real_evals,
 * surrogate_mae} process-wide stats (autotune_stats.h).
 */
SurrogateSweepResult
surrogateArgmin(std::size_t n,
                const std::function<FeatureVec(std::size_t)> &feature,
                const std::function<double(std::size_t)> &real_cost,
                const SurrogateSweepOptions &opts = {});

} // namespace mtia

#endif // MTIA_AUTOTUNE_SURROGATE_H_
