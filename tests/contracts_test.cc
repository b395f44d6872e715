/**
 * Precondition tests: every contract-bearing module fires a
 * MTIA_CHECK on invalid input. ScopedCheckThrow swaps the aborting
 * failure handler for one that throws CheckFailedError, so a fired
 * contract is observable with EXPECT_THROW.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "autotune/coalescing_tuner.h"
#include "autotune/sharding.h"
#include "autotune/surrogate.h"
#include "chip/device.h"
#include "cluster/cluster_sim.h"
#include "core/check.h"
#include "fleet/firmware.h"
#include "graph/graph.h"
#include "host/compression.h"
#include "host/pcie.h"
#include "mem/ecc.h"
#include "mem/llc.h"
#include "mem/lpddr.h"
#include "mem/sram.h"
#include "models/workload.h"
#include "noc/noc.h"
#include "ops/dense_ops.h"
#include "pe/mlu.h"
#include "pe/simd_engine.h"
#include "pe/work_queue_engine.h"
#include "serving/coalescer.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "tensor/quantize.h"
#include "tensor/tensor.h"

namespace mtia {
namespace {

/** Values every positive, finite config field must reject. */
constexpr double kNonPositiveOrNonFinite[] = {
    0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity()};

// ---------------------------------------------------------------- sim

TEST(ContractsSim, EventQueueRejectsScheduleInThePast)
{
    ScopedCheckThrow guard;
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_EQ(q.now(), 100u);
    EXPECT_THROW(q.schedule(99, [] {}), CheckFailedError);
}

TEST(ContractsSim, EventQueueRejectsNullCallback)
{
    ScopedCheckThrow guard;
    EventQueue q;
    EXPECT_THROW(q.schedule(1, nullptr), CheckFailedError);
}

TEST(ContractsSim, RngBelowRejectsEmptyRange)
{
    ScopedCheckThrow guard;
    Rng rng(42);
    EXPECT_THROW(rng.below(0), CheckFailedError);
}

TEST(ContractsSim, RngExponentialRejectsNonPositiveRate)
{
    ScopedCheckThrow guard;
    Rng rng(42);
    EXPECT_THROW(rng.exponential(0.0), CheckFailedError);
}

TEST(ContractsSim, ZipfSamplerRejectsEmptyItemSet)
{
    ScopedCheckThrow guard;
    EXPECT_THROW(ZipfSampler(0, 0.8), CheckFailedError);
}

TEST(ContractsSim, ZipfSamplerRejectsAlphaOne)
{
    // alpha == 1 hits the 1/(1-alpha) singularity of the
    // rejection-inversion sampler; it must fail loudly rather than
    // silently nudge the exponent.
    ScopedCheckThrow guard;
    EXPECT_THROW(ZipfSampler(100, 1.0), CheckFailedError);
}

TEST(ContractsSim, DiscreteSamplerRejectsEmptyWeights)
{
    ScopedCheckThrow guard;
    EXPECT_THROW(DiscreteSampler(std::vector<double>{}), CheckFailedError);
}

TEST(ContractsSim, DiscreteSamplerRejectsNegativeWeight)
{
    ScopedCheckThrow guard;
    EXPECT_THROW(DiscreteSampler({1.0, -0.5, 2.0}), CheckFailedError);
}

// ------------------------------------------------------------- tensor

TEST(ContractsTensor, ShapeDimRejectsOutOfRangeAxis)
{
    ScopedCheckThrow guard;
    Shape s{4, 8};
    EXPECT_THROW(s.dim(2), CheckFailedError);
}

TEST(ContractsTensor, FromFloatsRejectsMismatchedShape)
{
    ScopedCheckThrow guard;
    EXPECT_THROW(
        Tensor::fromFloats({1.0f, 2.0f, 3.0f}, Shape{2, 2}, DType::FP32),
        CheckFailedError);
}

TEST(ContractsTensor, QuantizedScaleForRejectsOutOfRangeRow)
{
#if MTIA_DCHECK_ENABLED
    ScopedCheckThrow guard;
    const Tensor act =
        Tensor::fromFloats({1.0f, -2.0f, 3.0f, -4.0f}, Shape{2, 2},
                           DType::FP32);
    const QuantizedTensor q =
        quantizeDynamic(act, QuantGranularity::PerRow);
    EXPECT_FLOAT_EQ(q.scaleFor(0), 2.0f / 127.0f);
    EXPECT_THROW(q.scaleFor(-1), CheckFailedError);
    EXPECT_THROW(q.scaleFor(2), CheckFailedError);
#else
    GTEST_SKIP() << "MTIA_DCHECK compiled out (NDEBUG build)";
#endif
}

// ---------------------------------------------------------------- mem

TEST(ContractsMem, EccFlipBitRejectsIndexPast72)
{
    ScopedCheckThrow guard;
    EccCodeword cw = EccCodec::encode(0xdeadbeefULL);
    EXPECT_THROW(cw.flipBit(72), CheckFailedError);
}

TEST(ContractsMem, LlcModelRejectsZeroLineSizeOrAssociativity)
{
    ScopedCheckThrow guard;
    LlcConfig no_line;
    no_line.line_size = 0;
    EXPECT_THROW(LlcModel{no_line}, CheckFailedError);
    LlcConfig no_ways;
    no_ways.associativity = 0;
    EXPECT_THROW(LlcModel{no_ways}, CheckFailedError);
}

TEST(ContractsMem, SramPartitionRejectsMoreLlsRegionsThanSram)
{
    ScopedCheckThrow guard;
    const SramConfig cfg; // 256 MiB in 32 MiB regions: 8 regions
    EXPECT_NO_THROW(SramPartition(cfg, 8));
    EXPECT_THROW(SramPartition(cfg, 9), CheckFailedError);
}

TEST(ContractsMem, LpddrChannelRejectsZeroAndNonFiniteBandwidth)
{
    ScopedCheckThrow guard;
    for (const double bw : kNonPositiveOrNonFinite) {
        LpddrConfig cfg;
        cfg.peak_bandwidth = bw;
        EXPECT_THROW(LpddrChannel{cfg}, CheckFailedError) << bw;
    }
}

// ---------------------------------------------------------------- noc

TEST(ContractsNoc, NocModelRejectsNonPositiveBisectionBandwidth)
{
    ScopedCheckThrow guard;
    NocConfig cfg;
    cfg.bisection_bandwidth = 0.0;
    EXPECT_THROW(NocModel{cfg}, CheckFailedError);
}

// --------------------------------------------------------------- chip

TEST(ContractsChip, DeviceRejectsZeroAndNonFiniteFrequency)
{
    ScopedCheckThrow guard;
    Device dev(ChipConfig::mtia2i());
    const double ref = dev.frequencyGhz();
    for (const double ghz : kNonPositiveOrNonFinite)
        EXPECT_THROW(dev.setFrequencyGhz(ghz), CheckFailedError) << ghz;
    EXPECT_EQ(dev.frequencyGhz(), ref);
}

// ------------------------------------------------------------- models

TEST(ContractsModels, GenerateTraceRejectsZeroAndNonFiniteQps)
{
    ScopedCheckThrow guard;
    for (const double qps : kNonPositiveOrNonFinite) {
        Rng rng(7);
        TrafficParams p;
        p.qps = qps;
        EXPECT_THROW(generateTrace(rng, p), CheckFailedError) << qps;
    }
}

// ----------------------------------------------------------------- pe

TEST(ContractsPe, WorkQueueEngineRejectsZeroControlCores)
{
    ScopedCheckThrow guard;
    WorkQueueConfig cfg;
    cfg.control_cores = 0;
    EXPECT_THROW(WorkQueueEngine{cfg}, CheckFailedError);
    // A chip built with that launch path fails at construction, not
    // with a division by zero on its first launch-charged kernel.
    ChipConfig chip = ChipConfig::mtia2i();
    chip.work_queue.control_cores = 0;
    EXPECT_THROW(Device{chip}, CheckFailedError);
}

TEST(ContractsPe, LookupTableRejectsEmptyRange)
{
    ScopedCheckThrow guard;
    EXPECT_THROW(
        LookupTable([](float x) { return x; }, 1.0f, 1.0f, 16),
        CheckFailedError);
}

TEST(ContractsPe, SimdEngineRejectsOneLutEntryAndCachesNothing)
{
    ScopedCheckThrow guard;
    const SimdConfig cfg{.lanes = 64, .lut_entries = 1};
    EXPECT_THROW(SimdEngine{cfg}, CheckFailedError);
    // The failed build left no shared table set behind: the second
    // engine fails the same check instead of reusing one.
    EXPECT_THROW(SimdEngine{cfg}, CheckFailedError);
}

TEST(ContractsPe, MluConcatRejectsMixedDtypes)
{
    ScopedCheckThrow guard;
    const Tensor a(Shape{2, 3}, DType::FP32);
    const Tensor b(Shape{2, 3}, DType::FP16);
    EXPECT_THROW(MemoryLayoutUnit::concat({a, b}, 1), CheckFailedError);
    EXPECT_THROW(MemoryLayoutUnit::concat({a, b}, 0), CheckFailedError);
}

// ---------------------------------------------------------------- ops

TEST(ContractsOps, ElementwiseRejectsInputsOffItsShape)
{
    ScopedCheckThrow guard;
    const ElementwiseOp add(Shape{4, 8}, ElementwiseOp::Kind::Add);
    // A smaller second input would be read past its end.
    EXPECT_THROW(add.outputShape({Shape{4, 8}, Shape{2, 8}}),
                 CheckFailedError);
    EXPECT_THROW(add.outputShape({Shape{4, 8}}), CheckFailedError);
    OpContext ctx;
    const Tensor a(Shape{4, 8}, DType::FP32);
    const Tensor small(Shape{2, 8}, DType::FP32);
    EXPECT_THROW(add.run({a, small}, ctx), CheckFailedError);
    EXPECT_THROW(add.run({small, a}, ctx), CheckFailedError);
    EXPECT_EQ(add.run({a, a}, ctx).shape(), (Shape{4, 8}));
}

TEST(ContractsOps, BatchedLayerNormRejectsInputsOffItsShape)
{
    ScopedCheckThrow guard;
    const LayerNormOp ln(4, 8, 2);
    // A wider or taller input would be written past the output.
    EXPECT_THROW(ln.outputShape({Shape{4, 8}, Shape{4, 9}}),
                 CheckFailedError);
    EXPECT_THROW(ln.outputShape({Shape{5, 8}, Shape{4, 8}}),
                 CheckFailedError);
    EXPECT_THROW(ln.outputShape({Shape{4, 8}}), CheckFailedError);
    OpContext ctx;
    const Tensor ok(Shape{4, 8}, DType::FP32);
    const Tensor wide(Shape{4, 16}, DType::FP32);
    const Tensor tall(Shape{8, 8}, DType::FP32);
    EXPECT_THROW(ln.run({ok, wide}, ctx), CheckFailedError);
    EXPECT_THROW(ln.run({tall, ok}, ctx), CheckFailedError);
    EXPECT_EQ(ln.run({ok, ok}, ctx).shape(), (Shape{4, 16}));
}

// ------------------------------------------------------------ serving

TEST(ContractsServing, CoalescerRejectsZeroBatchCapacity)
{
    ScopedCheckThrow guard;
    CoalescerConfig cfg;
    cfg.batch_capacity = 0;
    Coalescer c(cfg);
    EXPECT_THROW(c.coalesce({}), CheckFailedError);
}

TEST(ContractsServing, CoalescerRejectsUnsortedTrace)
{
    ScopedCheckThrow guard;
    Coalescer c{CoalescerConfig{}};
    std::vector<Request> trace;
    trace.push_back(Request{0, /*arrival=*/200, /*candidates=*/4});
    trace.push_back(Request{1, /*arrival=*/100, /*candidates=*/4});
    EXPECT_THROW(c.coalesce(trace), CheckFailedError);
}

// ------------------------------------------------------------ cluster

TEST(ContractsCluster, SimulatorRejectsZeroGatherJobs)
{
    ScopedCheckThrow guard;
    ClusterConfig cfg;
    cfg.service.gather_jobs = 0;
    EXPECT_THROW(ClusterSimulator{cfg}, CheckFailedError);
}

TEST(ContractsCluster, SimulatorRejectsNonPositiveBatchCapacity)
{
    ScopedCheckThrow guard;
    ClusterConfig cfg;
    cfg.batcher.capacity = 0;
    EXPECT_THROW(ClusterSimulator{cfg}, CheckFailedError);
    cfg.batcher.capacity = -1;
    EXPECT_THROW(ClusterSimulator{cfg}, CheckFailedError);
}

TEST(ContractsCluster, SimulatorRejectsZeroBatchWindow)
{
    ScopedCheckThrow guard;
    ClusterConfig cfg;
    cfg.batcher.window = 0;
    EXPECT_THROW(ClusterSimulator{cfg}, CheckFailedError);
}

TEST(ContractsCluster, SimulatorRejectsSloAtOrBelowServiceTime)
{
    // No request can finish faster than one gather plus one merge.
    ScopedCheckThrow guard;
    ClusterConfig cfg;
    cfg.batcher.slo = cfg.service.gather_base + cfg.service.merge_base;
    EXPECT_THROW(ClusterSimulator{cfg}, CheckFailedError);
    cfg.batcher.slo += 1;
    EXPECT_NO_THROW(ClusterSimulator{cfg});
}

// -------------------------------------------------------------- fleet

TEST(ContractsFleet, RolloutRejectsZeroConcurrentRestarts)
{
    ScopedCheckThrow guard;
    FirmwareManager mgr(/*seed=*/7, /*fleet_servers=*/100);
    FirmwareBundle bundle;
    bundle.version = "test";
    bundle.image = {1, 2, 3};
    bundle.sign();
    EXPECT_THROW(
        mgr.rollout(bundle, FirmwareManager::standardPlan(), 0),
        CheckFailedError);
}

TEST(ContractsFleet, RolloutRejectsNonMonotoneStageFractions)
{
    ScopedCheckThrow guard;
    FirmwareManager mgr(/*seed=*/7, /*fleet_servers=*/100);
    FirmwareBundle bundle;
    bundle.version = "test";
    bundle.image = {1, 2, 3};
    bundle.sign();
    std::vector<RolloutStage> plan = {
        {"wide", 0.5, fromSeconds(1.0)},
        {"narrow", 0.25, fromSeconds(1.0)}, // fraction went backwards
    };
    EXPECT_THROW(mgr.rollout(bundle, plan, 4), CheckFailedError);
}

// ----------------------------------------------------------- autotune

TEST(ContractsAutotune, CoalescingTunerRejectsZeroMaxWait)
{
    ScopedCheckThrow guard;
    EXPECT_THROW(CoalescingTuner(0), CheckFailedError);
    EXPECT_NO_THROW(CoalescingTuner(1));
}

TEST(ContractsAutotune, ShardingPlannerRejectsRuntimeBuffersFillingDram)
{
    ScopedCheckThrow guard;
    const ChipConfig chip = ChipConfig::mtia2i();
    const ShardingPlanner planner(chip);
    const Bytes dram = chip.lpddr.capacity;
    EXPECT_EQ(planner.shardsNeeded(dram, dram / 2), 2u);
    EXPECT_THROW(planner.shardsNeeded(1_GiB, dram), CheckFailedError);
    EXPECT_THROW(planner.plan(1_GiB, dram + 1,
                              std::vector<bool>(64, false)),
                 CheckFailedError);
}

TEST(ContractsAutotune, SurrogateFitRejectsNonFiniteFeaturesAndTargets)
{
    ScopedCheckThrow guard;
    std::vector<FeatureVec> x(4, FeatureVec{});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i][3] = static_cast<double>(i);
    const std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
    CostSurrogate model;
    EXPECT_NO_THROW(model.fit(x, y));
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
        std::vector<double> bad_y = y;
        bad_y[2] = bad;
        EXPECT_THROW(model.fit(x, bad_y), CheckFailedError);
        std::vector<FeatureVec> bad_x = x;
        bad_x[1][7] = bad;
        EXPECT_THROW(model.fit(bad_x, y), CheckFailedError);
    }
}

TEST(ContractsAutotune, SurrogateArgminRejectsNonFiniteRealCostByIndex)
{
    ScopedCheckThrow guard;
    const auto feature = [](std::size_t i) {
        FeatureVec f{};
        f[0] = static_cast<double>(i);
        return f;
    };
    // Index 0 is a seed, index 1 a verified candidate (the cost rises
    // with the index, so the model ranks the low indices first), and
    // top_k = n takes the exhaustive path.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto &[bad, value, n, top_k] :
         {std::tuple{std::size_t{0}, nan, std::size_t{100}, std::size_t{8}},
          std::tuple{std::size_t{1}, inf, std::size_t{100}, std::size_t{8}},
          std::tuple{std::size_t{3}, nan, std::size_t{10}, std::size_t{10}}}) {
        const auto cost = [&](std::size_t i) {
            return i == bad ? value : static_cast<double>(i);
        };
        try {
            (void)surrogateArgmin(n, feature, cost, {.top_k = top_k});
            ADD_FAILURE() << "non-finite cost at " << bad << " accepted";
        } catch (const CheckFailedError &err) {
            const std::string what = err.what();
            EXPECT_NE(what.find("real cost of candidate " +
                                std::to_string(bad) + " is"),
                      std::string::npos)
                << what;
        }
    }
}

// -------------------------------------------------------------- graph

TEST(ContractsGraph, GraphAddRejectsNullOp)
{
    ScopedCheckThrow guard;
    Graph g;
    EXPECT_THROW(g.add(nullptr), CheckFailedError);
}

// --------------------------------------------------------------- host

TEST(ContractsHost, RansDecompressRejectsTruncatedStream)
{
    ScopedCheckThrow guard;
    ByteBuffer truncated = {0x01, 0x02};
    EXPECT_THROW(RansCodec::decompress(truncated), CheckFailedError);
}

/** Overwrite the 32-bit little-endian word at @p at. */
void
poke32(ByteBuffer &b, std::size_t at, std::uint32_t v)
{
    for (int k = 0; k < 4; ++k)
        b[at + k] = static_cast<std::uint8_t>(v >> (8 * k));
}

TEST(ContractsHost, RansDecompressRejectsOversizedBlocks)
{
    // The first block's length word follows the container header: at
    // byte 4 in v1 (after the total), at byte 9 in v2 (sentinel,
    // version byte, total). A block may hold at most 64 KiB and no
    // more than the declared total has room for. With 64 KiB + 1
    // bytes, a first block claiming all of them fits the total, so
    // only the 64 KiB bound rejects it.
    ScopedCheckThrow guard;
    Rng rng(5);
    ByteBuffer big(64 * 1024 + 1), small(1000);
    for (auto &b : big)
        b = static_cast<std::uint8_t>(rng.below(16));
    for (auto &b : small)
        b = static_cast<std::uint8_t>(rng.below(16));
    for (const RansFormat format :
         {RansFormat::V1Scalar, RansFormat::V2Interleaved}) {
        const std::size_t at = format == RansFormat::V1Scalar ? 4 : 9;
        ByteBuffer over = RansCodec::compress(big, format);
        ASSERT_EQ(RansCodec::decompress(over), big);
        poke32(over, at, 64 * 1024 + 1);
        EXPECT_THROW((void)RansCodec::decompress(over), CheckFailedError);

        ByteBuffer past = RansCodec::compress(small, format);
        ASSERT_EQ(RansCodec::decompress(past), small);
        poke32(past, at, 1001);
        EXPECT_THROW((void)RansCodec::decompress(past), CheckFailedError);
    }
}

TEST(ContractsHost, LzDecompressRejectsRunsPastDeclaredLength)
{
    // A periodic body (one long match) and a 20-byte random tail (the
    // trailing literal run). Declaring 1 byte less than the stream
    // encodes ends the output inside that literal run, 30 bytes less
    // inside the match; either run would write past the presized
    // output.
    ScopedCheckThrow guard;
    Rng rng(11);
    ByteBuffer data(5020);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = i < 5000 ? static_cast<std::uint8_t>((i % 37) * 7)
                           : static_cast<std::uint8_t>(rng.below(256));
    for (const ByteBuffer &stream :
         {LzCodec::compress(data), LzCodec::compressGreedy(data)}) {
        ASSERT_EQ(LzCodec::decompress(stream), data);
        for (const std::size_t cut : {1, 30}) {
            ByteBuffer shorter = stream;
            poke32(shorter, 0,
                   static_cast<std::uint32_t>(data.size() - cut));
            EXPECT_THROW((void)LzCodec::decompress(shorter),
                         CheckFailedError)
                << cut;
        }
    }
}

TEST(ContractsHost, PcieConfigRejectsUnsupportedGeneration)
{
    ScopedCheckThrow guard;
    PcieConfig cfg;
    cfg.generation = 4;
    EXPECT_NO_THROW(cfg.bandwidth());
    cfg.generation = 3;
    EXPECT_THROW(cfg.bandwidth(), CheckFailedError);
}

// ------------------------------------------------------------- macros

TEST(ContractsMacros, StreamedMessageReachesHandler)
{
    ScopedCheckThrow guard;
    try {
        MTIA_CHECK_EQ(2 + 2, 5) << ": arithmetic still works";
        FAIL() << "check did not fire";
    } catch (const CheckFailedError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("MTIA_CHECK_EQ"), std::string::npos) << what;
        EXPECT_NE(what.find("arithmetic still works"), std::string::npos)
            << what;
        EXPECT_NE(what.find("4 vs. 5"), std::string::npos) << what;
    }
}

TEST(ContractsMacros, PassingChecksEvaluateOperandsOnce)
{
    ScopedCheckThrow guard;
    int evals = 0;
    auto once = [&evals] { return ++evals; };
    MTIA_CHECK_GE(once(), 1);
    EXPECT_EQ(evals, 1);
    MTIA_CHECK(once() == 2);
    EXPECT_EQ(evals, 2);
}

TEST(ContractsMacros, HandlerIsRestoredAfterScopeExit)
{
    const auto before = getCheckFailureHandler();
    {
        ScopedCheckThrow guard;
        EXPECT_NE(getCheckFailureHandler(), before);
    }
    EXPECT_EQ(getCheckFailureHandler(), before);
}

} // namespace
} // namespace mtia
