/**
 * @file
 * Cross-module integration tests: whole models through the functional
 * executor and the cost model together, error injection into a live
 * graph (NaN propagation through real arithmetic), the full co-design
 * loop (build -> optimize -> place -> compare), firmware + deadlock +
 * control-core interplay, and end-to-end determinism.
 */

#include <gtest/gtest.h>

#include <memory>

#include "baselines/comparison.h"
#include "cluster/cluster_sim.h"
#include "fleet/firmware.h"
#include "graph/executor.h"
#include "graph/fusion.h"
#include "graph/graph_cost.h"
#include "mem/error_injector.h"
#include "models/case_study.h"
#include "models/model_zoo.h"
#include "ops/dense_ops.h"
#include "serving/ab_testing.h"

namespace mtia {
namespace {

RankingModelParams
tinyParams()
{
    RankingModelParams p;
    p.name = "tiny";
    p.batch = 32;
    p.dense_features = 16;
    p.bottom_mlp = {16};
    p.tbe = TbeTableSpec{.tables = 2,
                         .rows_per_table = 1024,
                         .dim = 8,
                         .dtype = DType::FP16,
                         .zipf_alpha = 0.9};
    p.tbe_pooling = 4;
    p.top_mlp = {32, 1};
    p.dhen_layers = 1;
    p.dhen_width = 32;
    return p;
}

TEST(Integration, FunctionalRunIsDeterministicPerSeed)
{
    ModelInfo m1 = buildRankingModel(tinyParams());
    ModelInfo m2 = buildRankingModel(tinyParams());
    Executor e1(123);
    Executor e2(123);
    const Tensor a = e1.run(m1.graph).outputs.begin()->second;
    const Tensor b = e2.run(m2.graph).outputs.begin()->second;
    EXPECT_DOUBLE_EQ(Tensor::maxAbsDiff(a, b), 0.0);

    Executor e3(124);
    ModelInfo m3 = buildRankingModel(tinyParams());
    const Tensor c = e3.run(m3.graph).outputs.begin()->second;
    EXPECT_GT(Tensor::maxAbsDiff(a, c), 0.0);
}

TEST(Integration, FusionPreservesPredictionsOnWholeModel)
{
    ModelInfo plain = buildRankingModel(tinyParams());
    ModelInfo fused = buildRankingModel(tinyParams());
    const int rewrites = optimizeGraph(fused.graph);
    EXPECT_GT(rewrites, 0);

    Executor e1(55);
    Executor e2(55);
    const Tensor a = e1.run(plain.graph).outputs.begin()->second;
    const Tensor b = e2.run(fused.graph).outputs.begin()->second;
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_LT(Tensor::maxAbsDiff(a, b), 1e-5);
}

TEST(Integration, PredictionsAreProbabilities)
{
    ModelInfo model = buildRankingModel(tinyParams());
    Executor exec(77);
    const Tensor out = exec.run(model.graph).outputs.begin()->second;
    for (std::int64_t i = 0; i < out.numel(); ++i) {
        EXPECT_GE(out.at(i), 0.0f);
        EXPECT_LE(out.at(i), 1.0f);
    }
}

TEST(Integration, InjectedWeightErrorPropagatesToOutputs)
{
    // The Section 5.1 experiment, end to end through real math: flip
    // an exponent bit in a first-layer weight and watch the model
    // output corrupt or go non-finite.
    ModelInfo model = buildRankingModel(tinyParams());
    Executor clean_exec(99);
    const Tensor clean =
        clean_exec.run(model.graph).outputs.begin()->second;

    // Find the first FC and blast a high exponent bit of weight 0.
    for (int id : model.graph.topoOrder()) {
        auto *fc = dynamic_cast<FullyConnectedOp *>(
            model.graph.node(id).op.get());
        if (fc == nullptr)
            continue;
        Tensor &w = const_cast<Tensor &>(fc->weights());
        // FP16 weight: bit 14 is the exponent MSB.
        w.flipBit(14);
        break;
    }
    Executor dirty_exec(99);
    const Tensor dirty =
        dirty_exec.run(model.graph).outputs.begin()->second;
    // A single flipped exponent bit must visibly perturb predictions.
    EXPECT_GT(Tensor::maxAbsDiff(clean, dirty), 1e-4);
}

TEST(Integration, CostModelAndExecutorAgreeOnActivationFootprint)
{
    ModelInfo model = buildRankingModel(tinyParams());
    const LivenessReport live =
        analyzeLiveness(model.graph, naiveOrder(model.graph));
    Executor exec(11);
    const ExecutionResult run = exec.run(model.graph);
    // The executor runs FP32 (4 B) and keeps the weights out of its
    // accounting; the liveness model uses FP16 (2 B). Within 4x is a
    // real cross-check of the shared freeing discipline.
    EXPECT_LT(run.peak_bytes, live.peak_bytes * 4);
    EXPECT_GT(run.peak_bytes, live.peak_bytes / 4);
}

TEST(Integration, FullCoDesignLoopImprovesEveryKnob)
{
    // Build -> optimize -> place -> compare, asserting each knob
    // moves throughput the right way on the month-6 case study.
    Device dev(ChipConfig::mtia2i());
    dev.setFrequencyGhz(1.1); // pre-overclocking production clock
    GraphCostModel gcm(dev);

    ModelInfo model = buildCaseStudyModel(6);
    GraphCostOptions untuned;
    untuned.memory_aware_schedule = false;
    untuned.coordinated_loading = false;
    untuned.tuned_placement = false;
    const double q0 =
        gcm.evaluate(model.graph, model.batch, untuned).qps;

    GraphCostOptions tuned;
    const double q1 =
        gcm.evaluate(model.graph, model.batch, tuned).qps;
    EXPECT_GT(q1, q0 * 1.3);

    optimizeGraph(model.graph);
    const double q2 =
        gcm.evaluate(model.graph, model.batch, tuned).qps;
    EXPECT_GT(q2, q1);

    dev.setFrequencyGhz(1.35);
    GraphCostModel fast(dev);
    const double q3 =
        fast.evaluate(model.graph, model.batch, tuned).qps;
    EXPECT_GT(q3, q2);
}

TEST(Integration, ComparisonAndServingAgreeOnSloFeasibility)
{
    // The comparison harness says what one device sustains; the
    // serving simulator must be able to run that load within SLO
    // when the per-batch latency is mapped to gather and merge jobs.
    Device dev(ChipConfig::mtia2i());
    ComparisonHarness harness(dev);
    ModelInfo model = buildRankingModel(tinyParams());
    optimizeGraph(model.graph);
    const ModelComparison cmp = harness.compare(model);
    EXPECT_GT(cmp.mtia.qps, 0.0);
    EXPECT_GT(cmp.gpu.qps, 0.0);

    ClusterConfig cfg;
    cfg.replicas = 1;
    cfg.chips_per_replica = 1;
    cfg.embedding_shards = 1;
    cfg.batcher.capacity = 1;
    cfg.service.gather_base = fromMillis(1.0);
    cfg.service.gather_per_row = 0;
    cfg.service.merge_base = fromMillis(2.0);
    cfg.service.merge_per_row = 0;
    cfg.trace.users = 1000;
    const ClusterResult r =
        ClusterSimulator(cfg).simulate(50.0, fromSeconds(10.0));
    EXPECT_EQ(r.completed, r.arrivals);
    EXPECT_LE(r.p99_ms, toMillis(cfg.batcher.slo));
}

TEST(Integration, AbHarnessOnOptimizedGraphStillWithinTolerance)
{
    // Fusions change the kernel composition; A/B parity must survive.
    ModelInfo model = buildRankingModel(tinyParams());
    optimizeGraph(model.graph);
    AbTestHarness harness;
    const AbResult r = harness.compare(model.graph, 3);
    EXPECT_LT(std::abs(r.neDeltaPercent()), 1.0);
    EXPECT_LT(r.max_pred_diff, 0.02);
}

TEST(Integration, FirmwareLifecycleEndToEnd)
{
    // Build buggy firmware -> stress catches it -> fix -> verify ->
    // emergency rollout completes -> scenario clean afterwards.
    FirmwareManager mgr(2024, 5000);
    const FirmwareBundle buggy =
        mgr.build("candidate", ControlMemLocation::HostMemory);
    ASSERT_FALSE(mgr.stressTest(buggy, 3000).passed);

    const FirmwareBundle fix =
        mgr.build("hotfix", ControlMemLocation::DeviceSram);
    ASSERT_TRUE(mgr.stressTest(fix, 3000).passed);
    const RolloutResult rollout = mgr.rollout(
        fix, FirmwareManager::emergencyPlan(false), 400);
    EXPECT_TRUE(rollout.completed);

    ControlCore cc(ControlCoreConfig{.working_mem = fix.control_mem});
    EXPECT_FALSE(cc.buildHighLoadScenario().hasDeadlock());
}

TEST(Integration, OverclockOnlyHelpsComputeBoundModels)
{
    // The whole point of the 5-20% band: uplift moves on-chip rates
    // only, so DRAM-bound models barely move.
    auto gain = [](ModelInfo model) {
        optimizeGraph(model.graph);
        Device slow(ChipConfig::mtia2i());
        slow.setFrequencyGhz(1.1);
        Device fast(ChipConfig::mtia2i());
        fast.setFrequencyGhz(1.35);
        const double a = GraphCostModel(slow)
                             .evaluate(model.graph, model.batch)
                             .qps;
        const double b = GraphCostModel(fast)
                             .evaluate(model.graph, model.batch)
                             .qps;
        return b / a - 1.0;
    };
    const double compute_bound = gain(buildCaseStudyModel(6));
    const double dram_bound = gain(buildEarlyStageModel(2048));
    EXPECT_GT(compute_bound, dram_bound);
    EXPECT_LT(dram_bound, 0.15);
    EXPECT_GT(compute_bound, 0.05);
}

} // namespace
} // namespace mtia
