/**
 * @file
 * functional_inference: one op is one Executor::run of a DHEN-style
 * ranking model (batch 192, 8 x 64K x 64 FP16 embedding tables, two
 * DHEN layers, vertical FC+activation fusion applied) with op i's
 * input seed. The ops, core/simd_gemm and tensor layers do real
 * arithmetic, and graph executes rather than prices (codesign_sweep
 * prices), so a schedule change that helps one and costs the other
 * shows. Runs at one lane: at two, per-op wall time on a shared host
 * swings up to 3x with the second lane's scheduling (see README.md).
 *
 * The traced op also replays the graph node by node through Op::run
 * on the same schedule and RNG stream; the replay's outputs must be
 * bit-equal to Executor::run's, and its per-node spans give each op
 * kind's self time. Traced op 0 is also re-run at two lanes and must
 * be bit-equal.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "core/numerics_stats.h"
#include "core/parallel.h"
#include "graph/executor.h"
#include "graph/fusion.h"
#include "harness.h"
#include "models/model_zoo.h"
#include "telemetry/telemetry.h"

namespace mtia::perfbench {
namespace {

ModelInfo
buildModel()
{
    RankingModelParams p;
    p.name = "dhen-functional";
    p.batch = 192;
    p.tbe.tables = 8;
    p.tbe.rows_per_table = 64 * 1024;
    p.tbe.dim = 64;
    p.dhen_layers = 2;
    ModelInfo m = buildRankingModel(p);
    fuseVerticalFcActivation(m.graph);
    return m;
}

bool
sameOutputs(const ExecutionResult &a, const std::map<int, Tensor> &b)
{
    if (a.outputs.size() != b.size())
        return false;
    for (const auto &[id, t] : a.outputs) {
        const auto it = b.find(id);
        if (it == b.end() || !(it->second.shape() == t.shape()) ||
            it->second.raw() != t.raw())
            return false;
    }
    return true;
}

class FunctionalInference final : public Workload
{
  public:
    bool
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        model_ = buildModel();
        for (int id : model_.graph.topoOrder())
            kinds_[model_.graph.node(id).op->kind()] += 1;
        // The cold first run (allocator growth, first-touch pages) is
        // about 3x an op, so it is set-up.
        return outcome(Executor(~seed).run(model_.graph)).ok;
    }

    OpOutcome
    op(std::uint64_t i, SpanRecorder *spans) override
    {
        const std::uint64_t s = opSeed(seed_, i);
        const bool fixed = i < kFixedTraceOps;

        Executor ex(s);
        if (spans != nullptr)
            ex.setTelemetry(&tel_);
        const std::uint64_t converted0 = numerics::bytesConverted();
        const auto [nodes0, fused0] = dispatches();
        ExecutionResult r;
        {
            const ScopedSpan span(spans, "executor.run", i);
            r = ex.run(model_.graph);
        }
        OpOutcome o = outcome(r);
        if (spans == nullptr)
            return o;

        if (fixed) {
            converted_ += numerics::bytesConverted() - converted0;
            const auto [nodes1, fused1] = dispatches();
            nodes_ += nodes1 - nodes0;
            fused_ += fused1 - fused0;
            peak_bytes_ = std::max(peak_bytes_, r.peak_bytes);
        }
        const std::map<int, Tensor> replayed = replay(i, s, *spans);
        o.ok = o.ok && sameOutputs(r, replayed);
        if (i == 0) {
            // Results may not depend on the lane count. Checked here
            // rather than in set-up: a second lane's thread arena would
            // make the untraced run's peak RSS timing-dependent.
            const ScopedParallelism two_lanes(2);
            o.ok = o.ok && sameOutputs(Executor(s).run(model_.graph),
                                       r.outputs);
        }
        return o;
    }

    std::vector<std::string>
    mainSpans() const override
    {
        return {"executor.run"};
    }

    void
    layerMetrics(const SpanRecorder &spans, Metrics &out) const override
    {
        // Self time per (kind, op), then the median over ops.
        std::map<std::string, std::map<std::uint64_t, double>> self;
        const auto &all = spans.spans();
        for (std::size_t j = 0; j < all.size(); ++j) {
            const std::string &name = all[j].name;
            if (name.rfind("ops.", 0) == 0)
                self[name][all[j].op] +=
                    spans.selfSeconds(static_cast<int>(j));
        }
        double fc_s = 0.0, tbe_s = 0.0;
        for (const auto &[name, per_op] : self) {
            std::vector<double> v;
            double sum = 0.0;
            for (const auto &kv : per_op) {
                v.push_back(kv.second);
                sum += kv.second;
            }
            out[name + "_self_ms"] = {median(v) * 1e3, "ms"};
            if (name == "ops.fc")
                fc_s = sum;
            if (name == "ops.tbe")
                tbe_s = sum;
        }
        const double samples = static_cast<double>(kFixedTraceOps) *
            static_cast<double>(model_.batch);
        out["core.gemm_gflops"] = {
            static_cast<double>(gemm_flops_) / fc_s / 1e9, "GFLOP/s"};
        out["ops.tbe_rows_per_s"] = {
            static_cast<double>(gather_rows_) / tbe_s, "1/s"};
        out["tensor.convert_bytes_per_sample"] = {
            static_cast<double>(converted_) / samples, "B"};
        out["executor.fused_dispatch_ratio"] = {
            static_cast<double>(fused_) / static_cast<double>(nodes_),
            "ratio"};
        out["graph.peak_live_mb"] = {
            static_cast<double>(peak_bytes_) / (1024.0 * 1024.0), "MiB"};
    }

  private:
    /** Executor telemetry totals: (nodes run, fused dispatches). */
    std::pair<std::uint64_t, std::uint64_t>
    dispatches()
    {
        std::uint64_t nodes = 0, fused = 0;
        for (const auto &kv : kinds_) {
            const telemetry::Labels op{{"op", kv.first}};
            nodes += tel_.metrics.counter("executor.nodes", op).value();
            fused += tel_.metrics
                         .counter("executor.fused_kernel_dispatches", op)
                         .value();
        }
        return {nodes, fused};
    }

    OpOutcome
    outcome(const ExecutionResult &r) const
    {
        OpOutcome o;
        o.work = static_cast<double>(model_.batch);
        std::vector<std::uint8_t> bytes;
        for (const auto &[id, t] : r.outputs) {
            o.ok = o.ok && !t.hasNonFinite();
            bytes.insert(bytes.end(), t.raw().begin(), t.raw().end());
        }
        o.ok = o.ok && !r.outputs.empty();
        o.digest = sha256Hex(bytes);
        return o;
    }

    /**
     * Executor::run's loop from outside: the same topological order,
     * one RNG stream seeded like the executor's, the same LUT setting,
     * and inputs released after their last consumer. Each Op::run gets
     * a span named after its kind.
     */
    std::map<int, Tensor>
    replay(std::uint64_t i, std::uint64_t seed, SpanRecorder &spans)
    {
        const Graph &g = model_.graph;
        const ScopedSpan whole(&spans, "functional.replay", i);
        Rng rng(seed);
        OpContext ctx;
        ctx.rng = &rng;
        ctx.use_lut_simd = true;

        const std::vector<int> outputs = g.outputs();
        std::map<int, std::size_t> uses;
        const std::vector<int> order = g.topoOrder();
        for (int id : order)
            uses[id] = g.consumers(id).size();
        std::map<int, Tensor> live;
        for (int id : order) {
            const Node &nd = g.node(id);
            std::vector<Tensor> ins;
            for (int in : nd.inputs)
                ins.push_back(live.at(in));
            const std::string kind = nd.op->kind();
            const std::uint64_t flops0 = numerics::gemmFlops();
            const std::uint64_t rows0 = numerics::gatherRows();
            Tensor out;
            {
                const ScopedSpan span(&spans, "ops." + kind, i);
                out = nd.op->run(ins, ctx);
            }
            if (kind == "fc")
                gemm_flops_ += numerics::gemmFlops() - flops0;
            if (kind == "tbe")
                gather_rows_ += numerics::gatherRows() - rows0;
            live.emplace(id, std::move(out));
            for (int in : nd.inputs) {
                if (--uses[in] == 0 &&
                    std::find(outputs.begin(), outputs.end(), in) ==
                        outputs.end())
                    live.erase(in);
            }
        }
        std::map<int, Tensor> result;
        for (int id : outputs)
            result.emplace(id, std::move(live.at(id)));
        return result;
    }

    ModelInfo model_;
    std::uint64_t seed_ = 0;
    std::map<std::string, int> kinds_;
    telemetry::Telemetry tel_;
    std::uint64_t converted_ = 0;
    std::uint64_t nodes_ = 0;
    std::uint64_t fused_ = 0;
    Bytes peak_bytes_ = 0;
    std::uint64_t gemm_flops_ = 0;
    std::uint64_t gather_rows_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFunctionalInference()
{
    return std::make_unique<FunctionalInference>();
}

} // namespace mtia::perfbench
