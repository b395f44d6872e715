#include "baselines/gpu_model.h"

#include <algorithm>

#include "graph/liveness.h"
#include "ops/dense_ops.h"
#include "ops/sparse_ops.h"

namespace mtia {

Tick
GpuModel::opTime(const Graph &g, int id) const
{
    const Node &nd = g.node(id);
    const Op &op = *nd.op;
    const std::string kind = op.kind();
    if (kind == "input")
        return 0;

    // Compute term.
    const Tick compute = fromSeconds(op.flops() / cfg_.fp16_flops);

    // Memory term: inputs + output + weights all cross HBM.
    Bytes traffic = op.weightBytes();
    for (int in : nd.inputs)
        traffic += static_cast<Bytes>(g.shapeOf(in).numel()) * 2;
    traffic += static_cast<Bytes>(g.shapeOf(id).numel()) * 2;
    if (kind == "tbe") {
        // Embedding fetches touch only the gathered rows, not the
        // whole table; approximate with the op's pooled traffic.
        const auto *tbe = dynamic_cast<const TbeOp *>(nd.op.get());
        if (tbe != nullptr) {
            const Bytes row_bytes =
                static_cast<Bytes>(tbe->spec().dim) *
                dtypeSize(tbe->spec().dtype);
            traffic = row_bytes *
                static_cast<Bytes>(tbe->batch() * tbe->pooling() *
                                   tbe->spec().tables);
        }
    }
    BytesPerSec bw = cfg_.hbm_bandwidth;
    if (kind == "tbe")
        bw *= cfg_.gather_efficiency;
    const Tick memory = transferTicks(traffic, bw);

    return cfg_.kernel_launch + std::max(compute, memory);
}

ModelCost
GpuModel::evaluate(const Graph &g, double batch) const
{
    g.validate();
    ModelCost cost;
    cost.batch = batch;
    cost.weight_bytes = g.totalWeightBytes();
    cost.order = g.topoOrder();

    Tick total = 0;
    for (int id : cost.order) {
        const Tick t = opTime(g, id);
        total += t;
        cost.time_by_kind[g.node(id).op->kind()] += t;
    }
    cost.latency = total;
    cost.qps = total == 0 ? 0.0 : batch / toSeconds(total);
    cost.avg_utilization = total == 0
        ? 0.0
        : g.totalFlops() / (toSeconds(total) * cfg_.fp16_flops);
    cost.activations_fit_lls = true; // no SRAM cliff on the GPU
    return cost;
}

double
GpuModel::powerWatts(double utilization) const
{
    const double util = std::clamp(utilization, 0.0, 1.0);
    return std::min(cfg_.tdp_watts,
                    cfg_.idle_watts +
                        (cfg_.tdp_watts - cfg_.idle_watts) * util);
}

} // namespace mtia
