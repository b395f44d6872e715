#include "autotune/batch_tuner.h"

#include <algorithm>
#include <cmath>

#include "graph/fusion.h"
#include "core/check.h"
#include "core/parallel.h"

namespace mtia {

namespace {

/**
 * Scalar cost the surrogate trains on, encoding evaluate()'s winner
 * rule as a minimization: SLO-meeting snapshots compete on -qps
 * (higher throughput is cheaper), violators all cost more than any
 * meeting snapshot and compete on latency. The penalty dwarfs any
 * real latency (picoticks; < 1e16 for sub-hour snapshots) while
 * keeping training arithmetic finite.
 */
constexpr double kSloPenalty = 1e18;

double
batchCost(const BatchCandidate &c)
{
    if (c.meets_slo)
        return -c.cost.qps;
    return kSloPenalty + static_cast<double>(c.cost.latency);
}

} // namespace

BatchCandidate
BatchSizeTuner::evalOne(const ModelBuilder &builder, std::int64_t batch,
                        Tick slo) const
{
    // Each evaluation owns its model snapshot and a device clone:
    // graph evaluation fills lazy shape caches and cost queries bump
    // the device's mutable traffic counters, so concurrent snapshot
    // evaluations must not share either.
    ModelInfo model = builder(batch);
    optimizeGraph(model.graph);
    Device dev = dev_.cloneConfigured();
    GraphCostModel gcm(dev);
    BatchCandidate c;
    c.batch = batch;
    c.cost = gcm.evaluate(model.graph, static_cast<double>(batch));
    c.meets_slo = c.cost.latency <= slo;
    return c;
}

std::vector<BatchCandidate>
BatchSizeTuner::evaluate(const ModelBuilder &builder,
                         const std::vector<std::int64_t> &candidates,
                         Tick slo, std::size_t &winner) const
{
    MTIA_CHECK(!candidates.empty())
        << ": BatchSizeTuner needs candidate batch sizes";
    // One snapshot per candidate batch, evaluated concurrently;
    // results land in candidate order so the winner scan below is
    // schedule-independent.
    std::vector<BatchCandidate> out = parallelMap(
        candidates.size(),
        [&](std::size_t i) { return evalOne(builder, candidates[i], slo); });

    winner = 0;
    bool any_slo = false;
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i].meets_slo) {
            if (!any_slo || out[i].cost.qps > out[winner].cost.qps)
                winner = i;
            any_slo = true;
        }
    }
    if (!any_slo) {
        for (std::size_t i = 1; i < out.size(); ++i) {
            if (out[i].cost.latency < out[winner].cost.latency)
                winner = i;
        }
    }
    return out;
}

BatchSurrogateResult
BatchSizeTuner::tuneSurrogate(const ModelBuilder &builder,
                              const std::vector<std::int64_t> &candidates,
                              Tick slo,
                              const SurrogateSweepOptions &opts) const
{
    MTIA_CHECK(!candidates.empty())
        << ": BatchSizeTuner needs candidate batch sizes";
    const SurrogateSweepResult loop = surrogateArgmin(
        candidates.size(),
        [&](std::size_t i) {
            FeatureVec f{};
            f[0] = std::log2(static_cast<double>(
                std::max<std::int64_t>(1, candidates[i])));
            f[1] = static_cast<double>(candidates[i]);
            return f;
        },
        [&](std::size_t i) {
            return batchCost(evalOne(builder, candidates[i], slo));
        },
        opts);

    BatchSurrogateResult r;
    // Re-derive the winner's full snapshot (deterministic, one extra
    // model build) so callers get the same BatchCandidate evaluate()
    // would hand them.
    r.best = evalOne(builder, candidates[loop.best_index], slo);
    r.loop = loop;
    r.grid_size = candidates.size();
    return r;
}

} // namespace mtia
