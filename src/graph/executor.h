#ifndef MTIA_GRAPH_EXECUTOR_H_
#define MTIA_GRAPH_EXECUTOR_H_

/**
 * @file
 * Functional graph executor: runs every node's real arithmetic in
 * topological order, freeing tensors after their last use (the same
 * activation-buffer-reuse discipline the chip applies). A tensor's
 * last consumer receives it by move rather than as a copy. Used by
 * the numerics experiments (quantization quality, error injection,
 * A/B parity) and by the model tests.
 */

#include <map>
#include <vector>

#include "graph/graph.h"

namespace mtia::telemetry {
class Telemetry;
} // namespace mtia::telemetry

namespace mtia {

/** Result of a functional run. */
struct ExecutionResult
{
    /** Output tensors keyed by node id. */
    std::map<int, Tensor> outputs;
    /** Peak live tensor bytes during the run (executor accounting). */
    Bytes peak_bytes = 0;
};

/** Functional executor. */
class Executor
{
  public:
    /**
     * @param seed Seed for input/TBE sampling (reproducible runs).
     * @param use_lut_simd Route nonlinearities through the LUT path.
     */
    explicit Executor(std::uint64_t seed = 7, bool use_lut_simd = true)
        : rng_(seed), use_lut_(use_lut_simd) {}

    /**
     * Run the graph. @p bound_inputs overrides InputOp nodes by id;
     * unbound inputs are filled with Gaussian noise from the rng.
     * Bound tensors are read in place and never moved from; their
     * consumers get copies.
     */
    ExecutionResult run(const Graph &g,
                        const std::map<int, Tensor> &bound_inputs = {});

    /**
     * Attach an observability context (may be null to detach). While
     * attached, run() records per-op-kind node counters, output-byte
     * counters, and a peak-live-bytes gauge. The executor is
     * functional — it has no DES clock — so it feeds metrics only,
     * never trace events.
     */
    void setTelemetry(telemetry::Telemetry *telemetry)
    {
        telemetry_ = telemetry;
    }

  private:
    Rng rng_;
    bool use_lut_;
    telemetry::Telemetry *telemetry_ = nullptr;
};

} // namespace mtia

#endif // MTIA_GRAPH_EXECUTOR_H_
