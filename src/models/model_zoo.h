#ifndef MTIA_MODELS_MODEL_ZOO_H_
#define MTIA_MODELS_MODEL_ZOO_H_

/**
 * @file
 * Synthetic analogs of Meta's production recommendation models
 * (Table 1 and Section 7). Each builder produces a real operator
 * graph whose per-sample complexity, embedding footprint, and batch
 * size match the published characteristics; the LC1-LC5 / HC1-HC4
 * registry drives the Figure 6 sweep.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "ops/sparse_ops.h"

namespace mtia {

/** A built model plus its serving-relevant metadata. */
struct ModelInfo
{
    std::string name;
    Graph graph;
    std::int64_t batch = 0;
    /** Embedding (sparse) parameter bytes — 90% of model size. */
    Bytes embedding_bytes = 0;
    /** Host-side work per request relative to device work (feature
     * preprocessing, merge networks that stay on the CPU, ...). */
    double host_overhead_fraction = 0.05;
    /** Serving latency SLO. */
    Tick latency_slo = fromMillis(100.0);

    double
    mflopsPerSample() const
    {
        return batch == 0
            ? 0.0
            : graph.totalFlops() / static_cast<double>(batch) / 1e6;
    }
};

/** Tunable knobs of the generic ranking-model builder. */
struct RankingModelParams
{
    std::string name = "ranking";
    std::int64_t batch = 512;
    std::int64_t dense_features = 256;
    std::vector<std::int64_t> bottom_mlp = {256, 128};
    TbeTableSpec tbe{};
    std::int64_t tbe_pooling = 32;
    std::vector<std::int64_t> top_mlp = {512, 256, 1};
    /** DHEN-style stacked interaction layers (0 = plain DLRM). */
    int dhen_layers = 0;
    std::int64_t dhen_width = 512;
    /** MHA blocks appended after the DHEN stack. */
    int mha_blocks = 0;
    std::int64_t mha_seq = 16;
    std::int64_t mha_dim = 128;
    double host_overhead_fraction = 0.05;
};

/** Build a DLRM/DHEN-family ranking model. */
ModelInfo buildRankingModel(const RankingModelParams &params);

/** Table 1 archetypes. */
ModelInfo buildRetrievalModel(std::int64_t batch = 4096);
ModelInfo buildEarlyStageModel(std::int64_t batch = 2048);
ModelInfo buildLateStageModel(std::int64_t batch = 512);

/** The nine production models of Figure 6 (LC1..LC5, HC1..HC4). */
std::vector<ModelInfo> figure6Models();

} // namespace mtia

#endif // MTIA_MODELS_MODEL_ZOO_H_
