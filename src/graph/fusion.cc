#include "graph/fusion.h"

#include <algorithm>

#include "ops/attention_ops.h"
#include "ops/dense_ops.h"

namespace mtia {

namespace {

/** Downcast helper. */
template <typename T>
T *
as(const Graph &g, int id)
{
    return dynamic_cast<T *>(g.node(id).op.get());
}

} // namespace

int
fuseVerticalFcActivation(Graph &g)
{
    int rewrites = 0;
    for (int id : g.topoOrder()) {
        auto *act = as<ActivationOp>(g, id);
        if (act == nullptr)
            continue;
        const int src = g.node(id).inputs[0];
        auto *fc = as<FullyConnectedOp>(g, src);
        if (fc == nullptr || fc->hasActivation())
            continue;
        // The FC must feed only this activation, or fusing would
        // change what the other consumers see.
        if (g.consumers(src).size() != 1)
            continue;
        fc->fuseActivation(act->fn());
        g.redirectConsumers(id, src);
        g.markDead(id);
        ++rewrites;
    }
    return rewrites;
}

int
fuseSiblingTransposeFc(Graph &g)
{
    int rewrites = 0;
    for (int id : g.topoOrder()) {
        if (g.node(id).op->kind() != "transpose")
            continue;
        const std::vector<int> fcs = g.consumers(id);
        if (fcs.size() < 2)
            continue;
        bool all_fc = true;
        for (int c : fcs) {
            auto *fc = as<FullyConnectedOp>(g, c);
            if (fc == nullptr || fc->hasActivation() ||
                g.node(c).inputs[0] != id) {
                all_fc = false;
                break;
            }
        }
        if (!all_fc)
            continue;
        // Every branch must feed one common concat (axis 1) that
        // consumes exactly these branches, in order.
        const std::vector<int> after = g.consumers(fcs[0]);
        if (after.size() != 1)
            continue;
        const int concat_id = after[0];
        if (g.node(concat_id).op->kind() != "concat")
            continue;
        if (g.node(concat_id).inputs != fcs)
            continue;
        bool clean = true;
        for (int c : fcs) {
            const auto cons = g.consumers(c);
            if (cons.size() != 1 || cons[0] != concat_id) {
                clean = false;
                break;
            }
        }
        if (!clean)
            continue;

        // Build the fused op on the pre-transpose input.
        const int src = g.node(id).inputs[0];
        std::vector<std::int64_t> out_features;
        for (int c : fcs)
            out_features.push_back(as<FullyConnectedOp>(g, c)->shape().n);
        auto fused = std::make_shared<FusedTransposeFcOp>(
            g.shapeOf(src), out_features);
        g.replaceOp(id, fused);
        g.redirectConsumers(concat_id, id);
        for (int c : fcs)
            g.markDead(c);
        g.markDead(concat_id);
        ++rewrites;
    }
    return rewrites;
}

int
batchLayerNormsHorizontally(Graph &g)
{
    int rewrites = 0;
    for (int id : g.topoOrder()) {
        if (g.node(id).op->kind() != "concat")
            continue;
        const std::vector<int> &ins = g.node(id).inputs;
        if (ins.size() < 2)
            continue;
        // All inputs must be single-instance LayerNorms of one shape
        // consumed only by this concat.
        const auto *first = as<LayerNormOp>(g, ins[0]);
        if (first == nullptr || first->instances() != 1)
            continue;
        bool ok = true;
        for (int in : ins) {
            const auto *ln = as<LayerNormOp>(g, in);
            if (ln == nullptr || ln->instances() != 1 ||
                ln->rows() != first->rows() ||
                ln->cols() != first->cols() ||
                g.consumers(in).size() != 1) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;

        // Replace the concat with one batched LayerNorm reading the
        // LayerNorms' own inputs.
        auto batched = std::make_shared<LayerNormOp>(
            first->rows(), first->cols(),
            static_cast<std::int64_t>(ins.size()));
        const std::vector<int> originals = ins;
        g.replaceOp(id, batched);
        for (std::size_t slot = 0; slot < originals.size(); ++slot) {
            g.rewireInput(id, slot,
                          g.node(originals[slot]).inputs[0]);
        }
        for (int in : originals)
            g.markDead(in);
        ++rewrites;
    }
    return rewrites;
}

int
simplifyMhaLayouts(Graph &g)
{
    int rewrites = 0;
    for (int id : g.topoOrder()) {
        auto *mha = as<MhaOp>(g, id);
        if (mha != nullptr) {
            mha->useCustomTranspose(true);
            ++rewrites;
        }
    }
    return rewrites;
}

int
deferInBatchBroadcast(Graph &g)
{
    int rewrites = 0;
    for (int id : g.topoOrder()) {
        auto *bc = as<BroadcastOp>(g, id);
        if (bc == nullptr)
            continue;
        const std::vector<int> cons = g.consumers(id);
        if (cons.size() != 1)
            continue;
        auto *fc = as<FullyConnectedOp>(g, cons[0]);
        if (fc == nullptr)
            continue;
        // FCs are row-wise: fc(broadcast(x)) == broadcast(fc(x)).
        const int src = g.node(id).inputs[0];
        const Shape src_shape = g.shapeOf(src);
        auto new_fc = std::make_shared<FullyConnectedOp>(
            src_shape.dim(0), fc->shape().k, fc->shape().n,
            fc->dtype(), fc->hasActivation(), fc->activation(),
            fc->weightSeed());
        const int fc_id = g.add(new_fc, {src}, "deferred-ibb-fc");
        auto new_bc = std::make_shared<BroadcastOp>(
            Shape{src_shape.dim(0), fc->shape().n}, bc->factor());
        const int bc_id = g.add(new_bc, {fc_id}, "deferred-ibb");
        g.redirectConsumers(cons[0], bc_id);
        g.markDead(cons[0]);
        g.markDead(id);
        ++rewrites;
    }
    return rewrites;
}

int
optimizeGraph(Graph &g)
{
    int total = 0;
    while (true) {
        int round = 0;
        round += fuseVerticalFcActivation(g);
        round += fuseSiblingTransposeFc(g);
        round += batchLayerNormsHorizontally(g);
        round += deferInBatchBroadcast(g);
        if (round == 0)
            break;
        total += round;
    }
    total += simplifyMhaLayouts(g);
    g.validate();
    return total;
}

} // namespace mtia
