#include "graph/graph_cost.h"

#include <algorithm>

#include "ops/dense_ops.h"
#include "ops/sparse_ops.h"

namespace mtia {

ModelCost
GraphCostModel::evaluate(const Graph &g, double batch,
                         const GraphCostOptions &opt)
{
    g.validate();
    contexts_.clear();

    ModelCost cost;
    cost.batch = batch;
    cost.weight_bytes = g.totalWeightBytes();
    cost.order = opt.memory_aware_schedule ? memoryAwareOrder(g)
                                           : naiveOrder(g);

    // --- Data placement (the Section 4.1 algorithm): size the LLS to
    // the activation buffer; everything else becomes LLC.
    const LivenessReport live = analyzeLiveness(g, cost.order);
    cost.activation_peak = live.peak_bytes;
    SramPartition partition(dev_.config().sram, 0);
    cost.activations_fit_lls = SramPartition::fitLls(
        dev_.config().sram, live.peak_bytes, partition);
    if (!cost.activations_fit_lls) {
        // Activations overflow: leave everything to the LLC.
        partition = SramPartition(dev_.config().sram, 0);
    }
    dev_.setSramPartition(partition);
    cost.lls_regions = partition.llsRegions();
    const Bytes llc_bytes = partition.llcBytes();

    // --- Greedy weight residency: smallest weights first into LLC.
    std::vector<std::pair<Bytes, int>> weighted_nodes;
    for (int id : cost.order) {
        const Bytes w = g.node(id).op->weightBytes();
        if (w > 0 && g.node(id).op->kind() != "tbe")
            weighted_nodes.emplace_back(w, id);
    }
    std::sort(weighted_nodes.begin(), weighted_nodes.end());
    std::map<int, Placement> weight_placement;
    // Embedding traffic competes for LLC; reserve a share for it when
    // the model has TBEs.
    bool has_tbe = false;
    for (int id : cost.order)
        has_tbe |= g.node(id).op->kind() == "tbe";
    Bytes llc_budget = has_tbe ? llc_bytes / 2 : llc_bytes;
    for (const auto &[w, id] : weighted_nodes) {
        if (cost.activations_fit_lls && w <= llc_budget) {
            weight_placement[id] = Placement::Llc;
            llc_budget -= w;
        } else {
            // Either the weight exceeds the budget or overflowing
            // activations are thrashing the LLC: stream from LPDDR.
            weight_placement[id] = Placement::Dram;
        }
    }

    // --- Per-node contexts and summation. Untuned ports do not pin
    // the activation buffer: it streams through LPDDR even when it
    // would fit (weights still benefit from the hardware LLC).
    const Placement act_place =
        (cost.activations_fit_lls && opt.tuned_placement)
        ? Placement::Lls
        : Placement::Dram;
    Tick total = 0;
    for (int id : cost.order) {
        const Node &nd = g.node(id);
        CostContext ctx;
        ctx.activations = act_place;
        ctx.output = act_place;
        ctx.sparse_24 = opt.sparse_24;
        ctx.coordinated_loading = opt.coordinated_loading;
        auto wp = weight_placement.find(id);
        if (wp != weight_placement.end())
            ctx.weights = wp->second;

        if (const auto *tbe = dynamic_cast<const TbeOp *>(nd.op.get())) {
            ctx.tbe_hit_rate = tbe->expectedHitRate(
                has_tbe ? llc_bytes / 2 : llc_bytes);
        }
        if (opt.int8_weight_threshold > 0) {
            const auto *fc =
                dynamic_cast<const FullyConnectedOp *>(nd.op.get());
            if (fc != nullptr &&
                fc->weightBytes() >= opt.int8_weight_threshold) {
                ctx.dynamic_int8 = true;
            }
        }

        const KernelTime t = nd.op->cost(km_, ctx);
        total += t.total;
        cost.time_by_kind[nd.op->kind()] += t.total;
        contexts_[id] = ctx;
    }

    cost.latency = total;
    cost.qps = total == 0 ? 0.0 : batch / toSeconds(total);
    const double peak = dev_.peakGemmFlops(DType::FP16);
    cost.avg_utilization =
        total == 0 ? 0.0 : g.totalFlops() / (toSeconds(total) * peak);
    return cost;
}

} // namespace mtia
