#ifndef MTIA_AUTOTUNE_BATCH_TUNER_H_
#define MTIA_AUTOTUNE_BATCH_TUNER_H_

/**
 * @file
 * Batch-size autotuning (Section 4.1): build model snapshots at
 * candidate batch sizes, evaluate each with the cost model (the
 * offline traffic-replay test), and pick the batch that maximizes
 * throughput subject to the latency SLO. The paper's data-placement
 * rule (activations that stop fitting in the LLS spill, and a lower
 * batch that fits may win) is priced inside each snapshot's ModelCost,
 * so the sweep compares spilled and fitting batches directly.
 */

#include <functional>
#include <vector>

#include "autotune/surrogate.h"
#include "graph/graph_cost.h"
#include "models/model_zoo.h"

namespace mtia {

/** One evaluated batch-size snapshot. */
struct BatchCandidate
{
    std::int64_t batch = 0;
    ModelCost cost;
    bool meets_slo = false;
};

/** Result of a surrogate-guided batch sweep. */
struct BatchSurrogateResult
{
    BatchCandidate best;
    SurrogateSweepResult loop;
    std::size_t grid_size = 0; ///< candidate batch sizes considered
};

/** Batch-size tuner. */
class BatchSizeTuner
{
  public:
    using ModelBuilder = std::function<ModelInfo(std::int64_t batch)>;

    explicit BatchSizeTuner(Device &dev) : dev_(dev) {}

    /**
     * Evaluate @p candidates and return all snapshots plus the index
     * of the winner (highest QPS whose latency meets @p slo; if none
     * meets it, the lowest-latency one).
     */
    std::vector<BatchCandidate>
    evaluate(const ModelBuilder &builder,
             const std::vector<std::int64_t> &candidates, Tick slo,
             std::size_t &winner) const;

    /**
     * Surrogate-guided sweep over a dense candidate grid (the
     * explore -> predict -> verify loop of autotune/surrogate.h):
     * really builds + evaluates model snapshots only for the seed
     * batch and the predicted top-k, so grids 100x denser than
     * evaluate() can afford become tractable. The winner rule matches
     * evaluate() exactly — highest QPS meeting @p slo, else lowest
     * latency, earliest candidate on ties — encoded as the scalar
     * cost the surrogate trains on (-qps for SLO-meeting snapshots, a
     * large SLO-violation penalty plus latency otherwise). With
     * opts.top_k set to the grid size this is a bit-identical
     * exhaustive sweep.
     */
    BatchSurrogateResult
    tuneSurrogate(const ModelBuilder &builder,
                  const std::vector<std::int64_t> &candidates, Tick slo,
                  const SurrogateSweepOptions &opts = {}) const;

  private:
    BatchCandidate evalOne(const ModelBuilder &builder,
                           std::int64_t batch, Tick slo) const;

    Device &dev_;
};

} // namespace mtia

#endif // MTIA_AUTOTUNE_BATCH_TUNER_H_
