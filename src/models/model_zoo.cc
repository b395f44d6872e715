#include "models/model_zoo.h"

#include <memory>

#include "ops/attention_ops.h"
#include "ops/dense_ops.h"

namespace mtia {

namespace {

/** Append an unfused FC + ReLU pair; returns the activation node. */
int
addFcRelu(Graph &g, int input, std::int64_t batch, std::int64_t in_f,
          std::int64_t out_f, std::uint64_t seed)
{
    const int fc = g.add(
        std::make_shared<FullyConnectedOp>(batch, in_f, out_f,
                                           DType::FP16, false,
                                           Nonlinearity::Relu, seed),
        {input});
    return g.add(std::make_shared<ActivationOp>(Shape{batch, out_f},
                                                Nonlinearity::Relu),
                 {fc});
}

/**
 * One DHEN-style layer: an ensemble of a Factorization-Machine-like
 * block and a Linear Compression block, each LayerNorm-ed, their
 * concatenation compressed back to the layer width, with a skip
 * connection — the stacked-layer recipe of the Section 6 model.
 * Built unfused so the optimization passes have real work to do.
 */
int
addDhenLayer(Graph &g, int input, std::int64_t batch,
             std::int64_t width, std::uint64_t seed)
{
    const int fm = addFcRelu(g, input, batch, width, width, seed);
    const int fm_ln = g.add(
        std::make_shared<LayerNormOp>(batch, width), {fm});
    const int lcb = g.add(
        std::make_shared<FullyConnectedOp>(batch, width, width,
                                           DType::FP16, false,
                                           Nonlinearity::Relu,
                                           seed + 1),
        {input});
    const int lcb_ln = g.add(
        std::make_shared<LayerNormOp>(batch, width), {lcb});
    const int cat = g.add(
        std::make_shared<ConcatOp>(
            std::vector<Shape>{Shape{batch, width},
                               Shape{batch, width}},
            1),
        {fm_ln, lcb_ln});
    const int compress = addFcRelu(g, cat, batch, 2 * width, width,
                                   seed + 2);
    return g.add(std::make_shared<ElementwiseOp>(Shape{batch, width},
                                                 ElementwiseOp::Kind::Add),
                 {compress, input});
}

} // namespace

ModelInfo
buildRankingModel(const RankingModelParams &params)
{
    ModelInfo info;
    info.name = params.name;
    info.batch = params.batch;
    info.embedding_bytes = params.tbe.totalBytes();
    info.host_overhead_fraction = params.host_overhead_fraction;

    Graph &g = info.graph;
    const std::int64_t b = params.batch;
    std::uint64_t seed = 1000;

    // Dense side: bottom MLP.
    int x = g.add(std::make_shared<InputOp>(
                      "dense", Shape{b, params.dense_features}),
                  {}, "dense-input");
    std::int64_t width = params.dense_features;
    for (std::int64_t w : params.bottom_mlp) {
        x = addFcRelu(g, x, b, width, w, seed++);
        width = w;
    }

    // Sparse side: pooled embeddings.
    const int tbe = g.add(
        std::make_shared<TbeOp>(params.tbe, b, params.tbe_pooling,
                                /*weighted=*/false),
        {}, "tbe");
    const std::int64_t tbe_width = params.tbe.tables * params.tbe.dim;

    // Merge dense and sparse features.
    int feat = g.add(
        std::make_shared<ConcatOp>(
            std::vector<Shape>{Shape{b, width}, Shape{b, tbe_width}},
            1),
        {x, tbe}, "feature-concat");
    width += tbe_width;

    // Project to the interaction width.
    if (params.dhen_layers > 0 || params.mha_blocks > 0) {
        feat = addFcRelu(g, feat, b, width, params.dhen_width, seed++);
        width = params.dhen_width;
    }

    for (int layer = 0; layer < params.dhen_layers; ++layer)
        feat = addDhenLayer(g, feat, b, width, seed += 4);

    for (int blk = 0; blk < params.mha_blocks; ++blk) {
        if (width != params.mha_seq * params.mha_dim) {
            feat = addFcRelu(g, feat, b, width,
                             params.mha_seq * params.mha_dim, seed++);
            width = params.mha_seq * params.mha_dim;
        }
        feat = g.add(std::make_shared<MhaOp>(b, params.mha_seq,
                                             params.mha_dim, 4,
                                             DType::FP16, seed++),
                     {feat}, "mha");
    }

    // Top MLP ending in the prediction head.
    for (std::size_t i = 0; i < params.top_mlp.size(); ++i) {
        const std::int64_t w = params.top_mlp[i];
        if (i + 1 == params.top_mlp.size()) {
            const int fc = g.add(
                std::make_shared<FullyConnectedOp>(
                    b, width, w, DType::FP16, false,
                    Nonlinearity::Relu, seed++),
                {feat});
            feat = g.add(
                std::make_shared<ActivationOp>(Shape{b, w},
                                               Nonlinearity::Sigmoid),
                {fc}, "prediction");
        } else {
            feat = addFcRelu(g, feat, b, width, w, seed++);
        }
        width = w;
    }

    g.validate();
    return info;
}

ModelInfo
buildRetrievalModel(std::int64_t batch)
{
    RankingModelParams p;
    p.name = "retrieval";
    p.batch = batch;
    p.dense_features = 128;
    p.bottom_mlp = {128, 64};
    // ~50-100 GB of embeddings: 96 tables x 4M rows x 64 dims FP16.
    p.tbe = TbeTableSpec{.tables = 96,
                         .rows_per_table = 4 << 20,
                         .dim = 64,
                         .dtype = DType::FP16,
                         .zipf_alpha = 0.85};
    p.tbe_pooling = 8;
    p.top_mlp = {256, 64};
    p.dhen_layers = 0;
    // Retrieval preprocessing is host-heavy (Section 2).
    p.host_overhead_fraction = 0.35;
    ModelInfo info = buildRankingModel(p);
    info.latency_slo = fromMillis(50.0);
    return info;
}

ModelInfo
buildEarlyStageModel(std::int64_t batch)
{
    RankingModelParams p;
    p.name = "early-stage";
    p.batch = batch;
    p.dense_features = 256;
    p.bottom_mlp = {256, 128};
    // 100-300 GB class: 160 tables x 8M rows x 64 dims.
    p.tbe = TbeTableSpec{.tables = 160,
                         .rows_per_table = 8 << 20,
                         .dim = 64,
                         .dtype = DType::FP16,
                         .zipf_alpha = 0.9};
    p.tbe_pooling = 24;
    p.top_mlp = {512, 128, 1};
    p.dhen_layers = 1;
    p.dhen_width = 256;
    p.host_overhead_fraction = 0.12;
    return buildRankingModel(p);
}

ModelInfo
buildLateStageModel(std::int64_t batch)
{
    RankingModelParams p;
    p.name = "late-stage";
    p.batch = batch;
    p.dense_features = 512;
    p.bottom_mlp = {512, 256};
    p.tbe = TbeTableSpec{.tables = 192,
                         .rows_per_table = 8 << 20,
                         .dim = 96,
                         .dtype = DType::FP16,
                         .zipf_alpha = 0.95};
    p.tbe_pooling = 40;
    p.top_mlp = {1024, 512, 1};
    p.dhen_layers = 8;
    p.dhen_width = 1024;
    p.mha_blocks = 2;
    p.host_overhead_fraction = 0.08;
    return buildRankingModel(p);
}

std::vector<ModelInfo>
figure6Models()
{
    std::vector<ModelInfo> models;
    auto make = [&](const char *name, std::int64_t batch,
                    std::int64_t width, int layers, int mha,
                    std::int64_t tables, std::int64_t rows,
                    std::int64_t pooling, double host_ovh,
                    double alpha = 0.9) {
        RankingModelParams p;
        p.name = name;
        p.batch = batch;
        p.dense_features = 256;
        p.bottom_mlp = {256, 128};
        p.tbe = TbeTableSpec{.tables = tables,
                             .rows_per_table = rows,
                             .dim = 64,
                             .dtype = DType::FP16,
                             .zipf_alpha = alpha};
        p.tbe_pooling = pooling;
        p.top_mlp = {512, 128, 1};
        p.dhen_layers = layers;
        p.dhen_width = width;
        p.mha_blocks = mha;
        p.host_overhead_fraction = host_ovh;
        models.push_back(buildRankingModel(p));
    };

    // Low complexity: 15-105 MFLOPS/sample (Section 7). LC1 runs at a
    // 4K batch with a cache-friendly embedding working set and almost
    // no host-side serving work, which is why it and LC5 top the
    // efficiency chart; LC2 pays for its 512 batch, LC4 for its big
    // tables and host features.
    make("LC1", 4096, 768, 2, 0, 32, 256 << 10, 16, 0.02, 1.02);
    make("LC2", 512, 896, 3, 0, 48, 2 << 20, 24, 0.06);
    make("LC3", 1024, 1024, 4, 0, 64, 4 << 20, 24, 0.10);
    make("LC4", 1024, 1152, 5, 0, 96, 8 << 20, 32, 0.18);
    make("LC5", 2048, 1280, 6, 0, 48, 256 << 10, 16, 0.02, 1.02);

    // High complexity: 480-1000 MFLOPS/sample. HC1 keeps a small
    // memory footprint and pushes batch to 2K; HC2 carries heavy
    // host-side serving features; HC3 is the co-designed case-study
    // model; HC4 is big in every dimension.
    make("HC1", 2048, 2048, 14, 0, 48, 2 << 20, 24, 0.05);
    make("HC2", 256, 2048, 18, 0, 128, 8 << 20, 40, 0.18);
    make("HC3", 512, 2048, 26, 2, 96, 8 << 20, 32, 0.05);
    make("HC4", 256, 2560, 19, 2, 160, 8 << 20, 48, 0.10);
    return models;
}

} // namespace mtia
