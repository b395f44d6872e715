#ifndef MTIA_AUTOTUNE_COALESCING_TUNER_H_
#define MTIA_AUTOTUNE_COALESCING_TUNER_H_

/**
 * @file
 * Request-coalescing autotuning (Section 4.1): sweep the coalescing
 * window and the number of parallel windows against a replayed
 * traffic trace, scoring each configuration by batch fill (the paper
 * reaches >95% requests per batch) and added wait under the SLO.
 */

#include <vector>

#include "autotune/surrogate.h"
#include "models/workload.h"
#include "serving/coalescer.h"

namespace mtia {

/** One evaluated coalescing configuration. */
struct CoalescingCandidate
{
    CoalescerConfig config;
    CoalescerStats stats;
    double score = 0.0;
};

/** Result of a surrogate-guided coalescing sweep. */
struct CoalescingSurrogateResult
{
    CoalescingCandidate best;
    SurrogateSweepResult loop;
    std::size_t grid_size = 0; ///< (window, parallel) cells considered
};

/** The coalescing tuner. */
class CoalescingTuner
{
  public:
    /**
     * @param max_wait Wait budget: mean coalescing delay must stay
     *        below this slice of the latency SLO.
     * @pre max_wait > 0
     */
    explicit CoalescingTuner(Tick max_wait = fromMillis(10.0));

    /**
     * Sweep windows x parallel-window counts over the trace; returns
     * all candidates, best first.
     */
    std::vector<CoalescingCandidate>
    sweep(const std::vector<Request> &trace,
          std::int64_t batch_capacity,
          const std::vector<Tick> &windows,
          const std::vector<unsigned> &parallel_options) const;

    /**
     * Surrogate-guided sweep over the same (window x parallel) grid
     * (explore -> predict -> verify, autotune/surrogate.h): the full
     * trace is replayed only for the seed batch and the predicted
     * top-k cells, which is what makes window grids 100x denser than
     * sweep()'s affordable. Maximizes the same score sweep() sorts
     * by (the surrogate trains on its negation); the winner equals
     * sweep(...).front() on the same grid, including grid-order
     * tie-breaking. With opts.top_k set to the grid size this is a
     * bit-identical exhaustive sweep.
     */
    CoalescingSurrogateResult
    sweepSurrogate(const std::vector<Request> &trace,
                   std::int64_t batch_capacity,
                   const std::vector<Tick> &windows,
                   const std::vector<unsigned> &parallel_options,
                   const SurrogateSweepOptions &opts = {}) const;

  private:
    /** Replay the trace under @p config and score it (the quantity
     *  sweep() maximizes). */
    CoalescingCandidate evalCell(const std::vector<Request> &trace,
                                 const CoalescerConfig &config) const;

    Tick max_wait_;
};

} // namespace mtia

#endif // MTIA_AUTOTUNE_COALESCING_TUNER_H_
