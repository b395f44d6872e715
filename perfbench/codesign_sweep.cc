/**
 * @file
 * codesign_sweep: one op visits the nine Figure 6 models. For each it
 * takes the next point of two fixed grids, in an order drawn from the
 * seed without replacement, so no point repeats within a run, as in a
 * real grid sweep:
 *  - the pricing grid, INT8 weight threshold (128 rungs of 32 KiB) x
 *    2:4 sparsity x coordinated loading x tuned placement, where
 *    GraphCostModel::evaluate prices the model at its own batch;
 *  - the tuning grid, distinct FC layer shape x batch rung (16..4096
 *    in steps of 16), where KernelTuner::tuneSurrogate tunes that FC
 *    at that batch.
 * The graph (scheduling, liveness, placement), chip (KernelCostModel)
 * and autotune layers do the work; there is no DES and no real
 * arithmetic.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <set>
#include <utility>

#include "autotune/autotune_stats.h"
#include "autotune/kernel_tuner.h"
#include "chip/chip_config.h"
#include "chip/device.h"
#include "graph/graph_cost.h"
#include "graph/liveness.h"
#include "harness.h"
#include "models/model_zoo.h"
#include "ops/dense_ops.h"
#include "sim/random.h"

namespace mtia::perfbench {
namespace {

/** Pricing grid: INT8 threshold rungs x the three on/off options. */
constexpr Bytes kInt8Step = 32 * 1024;
constexpr std::size_t kInt8Rungs = 128;
constexpr std::size_t kPricePoints = kInt8Rungs * 8;
/** Tuning grid: batch rungs per distinct FC shape. */
constexpr std::int64_t kBatchStep = 16;
constexpr std::size_t kBatchRungs = 256;
/**
 * Grid entries a run walks through before its order repeats. Timed
 * ops take entries 0..kGridOps-2; the set-up's warm-up takes the
 * last, so it primes nothing a timed op reuses.
 */
constexpr std::uint64_t kGridOps = kPricePoints;

/** One design point. */
struct DesignPoint
{
    GraphCostOptions opt;
    FcShape fc;
};

/** The integers 0..n-1 in an order drawn from @p rng. */
std::vector<std::uint32_t>
permutation(std::size_t n, Rng rng)
{
    std::vector<std::uint32_t> v(n);
    std::iota(v.begin(), v.end(), 0u);
    for (std::size_t j = n; j > 1; --j)
        std::swap(v[j - 1], v[rng.below(j)]);
    return v;
}

class CodesignSweep final : public Workload
{
  public:
    CodesignSweep()
        : dev_(ChipConfig::mtia2i()), cost_(dev_), km_(dev_), tuner_(km_)
    {
    }

    bool
    setup(std::uint64_t seed) override
    {
        models_ = figure6Models();
        fcs_.clear();
        price_order_.clear();
        tune_order_.clear();
        const Rng base(seed);
        for (std::size_t mi = 0; mi < models_.size(); ++mi) {
            std::set<std::pair<std::int64_t, std::int64_t>> shapes;
            const Graph &g = models_[mi].graph;
            for (int id : g.topoOrder()) {
                const auto *fc = dynamic_cast<const FullyConnectedOp *>(
                    g.node(id).op.get());
                if (fc != nullptr)
                    shapes.emplace(fc->shape().n, fc->shape().k);
            }
            std::vector<FcShape> v;
            for (const auto &[n, k] : shapes)
                v.push_back(FcShape{0, n, k});
            const std::size_t tune_points = v.size() * kBatchRungs;
            if (tune_points < kGridOps)
                return false;
            fcs_.push_back(std::move(v));
            price_order_.push_back(
                permutation(kPricePoints, base.fork(2 * mi)));
            tune_order_.push_back(
                permutation(tune_points, base.fork(2 * mi + 1)));
        }
        return op(kGridOps - 1, nullptr).ok; // warm-up
    }

    OpOutcome
    op(std::uint64_t i, SpanRecorder *spans) override
    {
        const std::uint64_t real0 = autotune::realEvals();
        const std::uint64_t surrogate0 = autotune::surrogateEvals();
        OpOutcome o;
        const Bytes llc = dev_.sramPartition().llcBytes();
        for (std::size_t mi = 0; mi < models_.size(); ++mi) {
            const ModelInfo &m = models_[mi];
            const DesignPoint p = point(i, mi);

            ModelCost cost;
            KernelSurrogateResult tuned;
            {
                const ScopedSpan s(spans, "graph.evaluate", i);
                cost = cost_.evaluate(m.graph, static_cast<double>(m.batch),
                                      p.opt);
            }
            {
                const ScopedSpan s(spans, "autotune.tune", i);
                tuned = tuner_.tuneSurrogate(p.fc);
            }
            if (spans != nullptr) {
                std::vector<int> order;
                {
                    const ScopedSpan s(spans, "graph.schedule", i);
                    order = memoryAwareOrder(m.graph);
                }
                {
                    const ScopedSpan s(spans, "graph.liveness", i);
                    analyzeLiveness(m.graph, order);
                }
                if (i < kFixedTraceOps) {
                    latency_sum_ms_ += cost.latencyMs();
                    ++latency_points_;
                }
            }

            const FcOptions &v = tuned.result.variant;
            const bool feasible = v.weights != Placement::Llc ||
                p.fc.weightBytes(v.dtype) <= llc;
            o.ok = o.ok && cost.latency > 0 && std::isfinite(cost.qps) &&
                cost.qps > 0.0 && tuned.result.kernel_time > 0 && feasible;
            o.work += 1.0;

            char line[160];
            std::snprintf(line, sizeof line,
                          "%s lat=%llu qps=%.17g fc=%lldx%lldx%lld "
                          "kernel=%llu variant=%zu\n",
                          m.name.c_str(),
                          static_cast<unsigned long long>(cost.latency),
                          cost.qps, static_cast<long long>(p.fc.m),
                          static_cast<long long>(p.fc.n),
                          static_cast<long long>(p.fc.k),
                          static_cast<unsigned long long>(
                              tuned.result.kernel_time),
                          tuned.loop.best_index);
            o.digest += line;
        }
        if (spans != nullptr && i < kFixedTraceOps) {
            real_evals_ += autotune::realEvals() - real0;
            surrogate_evals_ += autotune::surrogateEvals() - surrogate0;
        }
        return o;
    }

    std::vector<std::string>
    mainSpans() const override
    {
        return {"graph.evaluate", "autotune.tune"};
    }

    void
    layerMetrics(const SpanRecorder &spans, Metrics &out) const override
    {
        out["graph.evaluate_ms"] = {
            median(spans.durations("graph.evaluate")) * 1e3, "ms"};
        out["graph.schedule_ms"] = {
            median(spans.durations("graph.schedule")) * 1e3, "ms"};
        out["graph.liveness_ms"] = {
            median(spans.durations("graph.liveness")) * 1e3, "ms"};
        out["autotune.tune_ms"] = {
            median(spans.durations("autotune.tune")) * 1e3, "ms"};
        out["autotune.real_eval_ratio"] = {
            static_cast<double>(real_evals_) /
                static_cast<double>(real_evals_ + surrogate_evals_),
            "ratio"};
        out["model.mean_latency_ms"] = {
            latency_sum_ms_ / static_cast<double>(latency_points_),
            "sim_ms"};
    }

  private:
    /** Grid entry @p i (mod kGridOps) of model @p model. */
    DesignPoint
    point(std::uint64_t i, std::size_t model) const
    {
        const std::size_t e = static_cast<std::size_t>(i % kGridOps);
        const std::uint32_t price = price_order_[model][e];
        const std::uint32_t tune = tune_order_[model][e];
        DesignPoint p;
        p.opt.int8_weight_threshold = (price >> 3) * kInt8Step;
        p.opt.sparse_24 = (price & 1) != 0;
        p.opt.coordinated_loading = (price & 2) != 0;
        p.opt.tuned_placement = (price & 4) != 0;
        p.fc = fcs_[model][tune / kBatchRungs];
        p.fc.m = kBatchStep * static_cast<std::int64_t>(tune % kBatchRungs + 1);
        return p;
    }

    Device dev_;
    GraphCostModel cost_;
    KernelCostModel km_;
    KernelTuner tuner_;
    std::vector<ModelInfo> models_;
    /** Per model: its distinct FC shapes (m unset). */
    std::vector<std::vector<FcShape>> fcs_;
    /** Per model: the run's order of pricing and tuning grid points. */
    std::vector<std::vector<std::uint32_t>> price_order_;
    std::vector<std::vector<std::uint32_t>> tune_order_;
    std::uint64_t real_evals_ = 0;
    std::uint64_t surrogate_evals_ = 0;
    double latency_sum_ms_ = 0.0;
    std::uint64_t latency_points_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCodesignSweep()
{
    return std::make_unique<CodesignSweep>();
}

} // namespace mtia::perfbench
