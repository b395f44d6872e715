#include "graph/executor.h"

#include <algorithm>

#include "core/check.h"
#include "telemetry/telemetry.h"

namespace mtia {

namespace {

/**
 * A node's output while it is live: owned by the executor, or (for a
 * bound input) borrowed from the caller.
 */
struct LiveTensor
{
    Tensor owned;
    const Tensor *bound = nullptr;
    /** Size at production; the accounting survives a move out. */
    Bytes bytes = 0;

    const Tensor &get() const { return bound != nullptr ? *bound : owned; }
};

} // namespace

ExecutionResult
Executor::run(const Graph &g, const std::map<int, Tensor> &bound_inputs)
{
    g.validate();
    const std::vector<int> order = g.topoOrder();

    // Remaining consumers per node; a node consuming the same input
    // twice counts once (Graph::consumers lists it once).
    std::map<int, std::size_t> uses;
    for (int id : order)
        uses[id] = g.consumers(id).size();

    OpContext ctx;
    ctx.rng = &rng_;
    ctx.use_lut_simd = use_lut_;

    ExecutionResult result;
    std::map<int, LiveTensor> live;
    Bytes live_bytes = 0;

    for (int id : order) {
        const Node &nd = g.node(id);
        std::vector<int> distinct;
        for (int in : nd.inputs) {
            MTIA_CHECK(live.count(in) != 0)
                << ": Executor input " << in << " of node " << id
                << " is not live (bad schedule?)";
            if (std::find(distinct.begin(), distinct.end(), in) ==
                distinct.end())
                distinct.push_back(in);
        }

        LiveTensor out;
        auto bound = bound_inputs.find(id);
        if (bound != bound_inputs.end()) {
            out.bound = &bound->second;
        } else {
            // The last consumer of an input takes it by move, unless
            // it lists the input twice or the caller owns it (a bound
            // input). Graph outputs have no consumers, so are never
            // moved.
            std::vector<Tensor> ins;
            ins.reserve(nd.inputs.size());
            for (int in : nd.inputs) {
                LiveTensor &v = live.at(in);
                const bool last = uses.at(in) == 1 && v.bound == nullptr &&
                    std::count(nd.inputs.begin(), nd.inputs.end(), in) == 1;
                if (last)
                    ins.push_back(std::move(v.owned));
                else
                    ins.push_back(v.get());
            }
            out.owned = nd.op->run(ins, ctx);
        }
        out.bytes = out.get().sizeBytes();

        if (telemetry_ != nullptr) {
            auto &m = telemetry_->metrics;
            m.counter("executor.nodes", {{"op", nd.op->kind()}}).inc();
            m.counter("executor.output_bytes",
                      {{"op", nd.op->kind()}})
                .inc(out.bytes);
            // Fused regions (fusion.cc rewrites) dispatch to real
            // fused kernels; make that visible in every snapshot.
            if (nd.op->fusedKernel())
                m.counter("executor.fused_kernel_dispatches",
                          {{"op", nd.op->kind()}})
                    .inc();
        }

        live_bytes += out.bytes;
        result.peak_bytes = std::max(result.peak_bytes, live_bytes);
        live.emplace(id, std::move(out));

        // Release inputs whose last consumer just ran.
        for (int in : distinct) {
            if (--uses.at(in) == 0) {
                live_bytes -= live.at(in).bytes;
                live.erase(in);
            }
        }
    }

    for (int id : g.outputs()) {
        LiveTensor &v = live.at(id);
        if (v.bound != nullptr)
            result.outputs.emplace(id, *v.bound);
        else
            result.outputs.emplace(id, std::move(v.owned));
    }

    if (telemetry_ != nullptr) {
        auto &m = telemetry_->metrics;
        m.counter("executor.runs").inc();
        auto &peak = m.gauge("executor.peak_live_bytes");
        peak.set(std::max(peak.value(),
                          static_cast<double>(result.peak_bytes)));
    }
    return result;
}

} // namespace mtia
