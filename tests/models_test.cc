/**
 * @file
 * Tests for the model zoo: Table 1 characteristics of each archetype,
 * the case-study evolution and its rejected-vs-accepted change, the
 * LLM latency verdicts of Sections 3.6/8, and traffic generation.
 */

#include <gtest/gtest.h>

#include "graph/executor.h"
#include "graph/fusion.h"
#include "graph/graph_cost.h"
#include "models/case_study.h"
#include "models/llm.h"
#include "models/model_zoo.h"
#include "models/workload.h"

namespace mtia {
namespace {

TEST(ModelZoo, Table1Characteristics)
{
    const ModelInfo retrieval = buildRetrievalModel();
    const ModelInfo early = buildEarlyStageModel();
    const ModelInfo late = buildLateStageModel();

    // Complexity ladder: retrieval < early < late (Table 1).
    EXPECT_LT(retrieval.mflopsPerSample(), early.mflopsPerSample());
    EXPECT_LT(early.mflopsPerSample(), late.mflopsPerSample());
    // Retrieval: very low complexity, large batch, host-heavy.
    EXPECT_LT(retrieval.mflopsPerSample(), 10.0);
    EXPECT_GE(retrieval.batch, 4096);
    EXPECT_GT(retrieval.host_overhead_fraction, 0.2);
    // Embedding footprints: tens to hundreds of GB.
    EXPECT_GT(retrieval.embedding_bytes, 40_GiB);
    EXPECT_GT(early.embedding_bytes, 100_GiB);
    // Late-stage: 0.2-2 GFLOPS/sample territory.
    EXPECT_GT(late.mflopsPerSample(), 100.0);
}

TEST(ModelZoo, Figure6RegistryShape)
{
    const auto models = figure6Models();
    ASSERT_EQ(models.size(), 9u);
    // LC models stay below the HC complexity band.
    for (int i = 0; i < 5; ++i) {
        EXPECT_LT(models[i].mflopsPerSample(),
                  models[5 + i % 4].mflopsPerSample())
            << models[i].name;
    }
    // Every graph validates and carries embeddings.
    for (const auto &m : models) {
        m.graph.validate();
        EXPECT_GT(m.embedding_bytes, 0u) << m.name;
    }
    // The paper's batch-size callouts: LC1 at 4K, HC1 at 2K.
    EXPECT_EQ(models[0].batch, 4096);
    EXPECT_EQ(models[5].batch, 2048);
}

TEST(CaseStudy, ComplexityGrowsAcrossMonths)
{
    const ModelInfo m0 = buildCaseStudyModel(0);
    const ModelInfo m8 = buildCaseStudyModel(8);
    // 140 -> 940 MFLOPS/sample over eight months (approximate band).
    EXPECT_GT(m0.mflopsPerSample(), 80.0);
    EXPECT_LT(m0.mflopsPerSample(), 250.0);
    EXPECT_GT(m8.mflopsPerSample(), 600.0);
    EXPECT_GT(m8.mflopsPerSample(), 4.0 * m0.mflopsPerSample());
    // Tens of GB of embeddings.
    EXPECT_GT(m0.embedding_bytes, 10_GiB);
    EXPECT_LT(m0.embedding_bytes, 100_GiB);
}

TEST(CaseStudy, StagesAreMonotoneInCapability)
{
    const auto stages = caseStudyStages();
    ASSERT_EQ(stages.size(), 9u);
    EXPECT_FALSE(stages[0].fusions);
    EXPECT_TRUE(stages[8].fusions);
    EXPECT_TRUE(stages[8].tbe_consolidated);
    EXPECT_DOUBLE_EQ(stages[8].frequency_ghz, 1.35);
    // Once enabled, an optimization never regresses.
    for (std::size_t i = 1; i < stages.size(); ++i) {
        EXPECT_GE(stages[i].fusions, stages[i - 1].fusions);
        EXPECT_GE(stages[i].coordinated, stages[i - 1].coordinated);
        EXPECT_GE(stages[i].defer_ibb, stages[i - 1].defer_ibb);
    }
}

TEST(CaseStudy, RejectedChangeOverflowsSramAndCollapsesThroughput)
{
    // Section 6: tripling the remote embedding inputs pushed the
    // activation buffer out of LLS, costing ~90% of throughput; the
    // accepted alternative (two extra DHEN layers) keeps activations
    // pinned while adding compute.
    Device dev(ChipConfig::mtia2i());
    GraphCostModel gcm(dev);

    ModelInfo base = buildCaseStudyModel(6);
    optimizeGraph(base.graph);
    const ModelCost base_cost = gcm.evaluate(base.graph, base.batch);
    EXPECT_TRUE(base_cost.activations_fit_lls);

    ModelInfo rejected = buildCaseStudyRejectedChange();
    optimizeGraph(rejected.graph);
    const ModelCost rej_cost =
        gcm.evaluate(rejected.graph, rejected.batch);
    EXPECT_FALSE(rej_cost.activations_fit_lls);

    ModelInfo alt = buildCaseStudyAlternative();
    optimizeGraph(alt.graph);
    const ModelCost alt_cost = gcm.evaluate(alt.graph, alt.batch);
    EXPECT_TRUE(alt_cost.activations_fit_lls);

    // Throughput: rejected collapses (order 90% drop); the
    // alternative costs only the extra layers.
    EXPECT_LT(rej_cost.qps, 0.35 * base_cost.qps);
    EXPECT_GT(alt_cost.qps, 0.6 * base_cost.qps);
    EXPECT_GT(alt_cost.qps, 3.0 * rej_cost.qps);
}

TEST(Llm, PrefillMeetsTtftButDecodeMissesBudget)
{
    Device dev(ChipConfig::mtia2i());
    for (const auto &cfg :
         {LlamaConfig::llama2_7b(), LlamaConfig::llama3_8b()}) {
        const LlmLatency lat = evaluateLlm(dev, cfg, 2048);
        EXPECT_TRUE(lat.meetsTtft()) << cfg.name;
        EXPECT_FALSE(lat.meetsDecode()) << cfg.name;
    }
}

TEST(Llm, ParameterCountsSane)
{
    EXPECT_NEAR(LlamaConfig::llama2_7b().params() / 1e9, 6.7, 0.5);
    EXPECT_NEAR(LlamaConfig::llama3_8b().params() / 1e9, 8.0, 0.8);
    EXPECT_NEAR(LlamaConfig::llama3_70b().params() / 1e9, 70.0, 5.0);
}

TEST(Llm, SeventyBExceedsDeviceMemory)
{
    const Device dev(ChipConfig::mtia2i());
    EXPECT_GT(LlamaConfig::llama3_70b().paramBytes(DType::FP16),
              dev.config().lpddr.capacity);
}

TEST(Workload, PoissonTraceRateAndOrdering)
{
    Rng rng(21);
    TrafficParams p;
    p.qps = 5000.0;
    p.duration = fromSeconds(4.0);
    const auto trace = generateTrace(rng, p);
    EXPECT_NEAR(static_cast<double>(trace.size()) / 4.0, 5000.0,
                300.0);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
}

TEST(Workload, BurstsRaisePeakToAverage)
{
    Rng rng(23);
    TrafficParams smooth;
    smooth.qps = 2000.0;
    smooth.duration = fromSeconds(5.0);
    TrafficParams bursty = smooth;
    bursty.burst_fraction = 0.2;
    const double p2a_smooth =
        peakToAverage(generateTrace(rng, smooth), fromMillis(10.0));
    const double p2a_bursty =
        peakToAverage(generateTrace(rng, bursty), fromMillis(10.0));
    EXPECT_GT(p2a_bursty, p2a_smooth);
}

TEST(Workload, DiurnalModulationChangesWindowRates)
{
    Rng rng(25);
    TrafficParams p;
    p.qps = 3000.0;
    p.duration = fromSeconds(10.0);
    p.diurnal_depth = 0.5;
    p.diurnal_period = fromSeconds(10.0);
    const auto trace = generateTrace(rng, p);
    // First half (rising sine) should out-rate the second half.
    std::size_t first = 0;
    for (const auto &r : trace)
        first += r.arrival < fromSeconds(5.0);
    EXPECT_GT(static_cast<double>(first),
              0.55 * static_cast<double>(trace.size()));
}

} // namespace
} // namespace mtia
