#ifndef MTIA_TESTS_COPY_EXECUTOR_H_
#define MTIA_TESTS_COPY_EXECUTOR_H_

/**
 * @file
 * Copy-semantics reference for the functional executor: the same
 * topological loop, RNG stream and liveness accounting as
 * Executor::run, except that every node receives a copy of each
 * input. Executor::run's outputs and peak_bytes must equal this
 * reference's; only the input copies may differ.
 */

#include <algorithm>
#include <map>
#include <vector>

#include "graph/executor.h"

namespace mtia {

struct CopySemanticsRun
{
    ExecutionResult result;
    /**
     * Bytes of the inputs Executor::run hands to their last consumer
     * by move: listed once by that consumer. Bound inputs are not
     * supported here.
     */
    Bytes movable_input_bytes = 0;
};

/** Run @p g with every input copied, as Executor(seed).run(g) would. */
inline CopySemanticsRun
runWithInputCopies(const Graph &g, std::uint64_t seed)
{
    g.validate();
    Rng rng(seed);
    OpContext ctx;
    ctx.rng = &rng;
    ctx.use_lut_simd = true;

    const std::vector<int> order = g.topoOrder();
    std::map<int, std::size_t> uses;
    for (int id : order)
        uses[id] = g.consumers(id).size();

    CopySemanticsRun run;
    std::map<int, Tensor> live;
    Bytes live_bytes = 0;
    for (int id : order) {
        const Node &nd = g.node(id);
        std::vector<Tensor> ins;
        for (int in : nd.inputs) {
            ins.push_back(live.at(in));
            if (uses.at(in) == 1 &&
                std::count(nd.inputs.begin(), nd.inputs.end(), in) == 1)
                run.movable_input_bytes += ins.back().sizeBytes();
        }
        Tensor out = nd.op->run(ins, ctx);
        live_bytes += out.sizeBytes();
        run.result.peak_bytes = std::max(run.result.peak_bytes, live_bytes);
        live.emplace(id, std::move(out));

        std::vector<int> distinct = nd.inputs;
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        for (int in : distinct) {
            if (--uses.at(in) == 0) {
                live_bytes -= live.at(in).sizeBytes();
                live.erase(in);
            }
        }
    }
    for (int id : g.outputs())
        run.result.outputs.emplace(id, std::move(live.at(id)));
    return run;
}

} // namespace mtia

#endif // MTIA_TESTS_COPY_EXECUTOR_H_
