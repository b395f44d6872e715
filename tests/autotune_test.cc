/**
 * @file
 * Tests for the autotuning framework: KD-tree ANN vs brute force
 * (property sweep), k-nearest queries with deterministic tie-breaks,
 * kernel tuning (1000x cheaper within 5%, and the streaming fallback
 * for an adopted variant too big for the LLC), batch tuning,
 * coalescing tuning (>95% fill), NUMA-aware sharding, and the
 * surrogate-guided explore -> predict -> verify loop: batch vs
 * per-row prediction, monotone-feature sanity, warm-start
 * equivalence, held-out accuracy, the exhaustive fallback a full
 * verify budget (top_k = grid size) takes, and a digest pin of
 * tuneSurrogate over the Figure 6 FC shapes. The fit and batch predict
 * against the direct reference on every SIMD tier is a row of
 * conformance_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "autotune/autotune_stats.h"
#include "autotune/batch_tuner.h"
#include "autotune/coalescing_tuner.h"
#include "autotune/kernel_tuner.h"
#include "autotune/perf_database.h"
#include "autotune/sharding.h"
#include "autotune/surrogate.h"
#include "host/sha256.h"
#include "models/model_zoo.h"
#include "ops/dense_ops.h"
#include "sim/random.h"

namespace mtia {
namespace {

TEST(KdTreeTest, NearestMatchesBruteForceOnRandomSets)
{
    Rng rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.below(200);
        std::vector<ShapeKey> pts(n);
        for (auto &p : pts)
            for (auto &x : p)
                x = rng.uniform(0.0, 16.0);
        KdTree tree(pts);
        for (int q = 0; q < 20; ++q) {
            ShapeKey query;
            for (auto &x : query)
                x = rng.uniform(-1.0, 17.0);
            const std::size_t got = tree.nearest(query);
            double best = KdTree::dist2(pts[got], query);
            for (const auto &p : pts)
                EXPECT_GE(KdTree::dist2(p, query) + 1e-12, best);
        }
    }
}

TEST(KdTreeTest, NearestKMatchesBruteForceOnRandomSets)
{
    Rng rng(53);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 1 + rng.below(150);
        std::vector<ShapeKey> pts(n);
        for (auto &p : pts)
            for (auto &x : p)
                x = rng.uniform(0.0, 16.0);
        KdTree tree(pts);
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{5}, n, n + 3}) {
            ShapeKey query;
            for (auto &x : query)
                x = rng.uniform(-1.0, 17.0);
            // Brute-force reference: sort every index by
            // (distance, index) and truncate.
            std::vector<std::size_t> want(n);
            std::iota(want.begin(), want.end(), std::size_t{0});
            std::sort(want.begin(), want.end(),
                      [&](std::size_t a, std::size_t b) {
                          const double da = KdTree::dist2(pts[a], query);
                          const double db = KdTree::dist2(pts[b], query);
                          if (da != db)
                              return da < db;
                          return a < b;
                      });
            want.resize(std::min(k, n));
            EXPECT_EQ(tree.nearestK(query, k), want);
        }
    }
}

TEST(KdTreeTest, EqualDistanceTiesPreferLowestIndex)
{
    // Four copies of the same point plus a far one: every query tie
    // must resolve to the lowest index, in every result slot.
    std::vector<ShapeKey> pts = {{1.0, 1.0, 1.0},
                                 {1.0, 1.0, 1.0},
                                 {1.0, 1.0, 1.0},
                                 {1.0, 1.0, 1.0},
                                 {9.0, 9.0, 9.0}};
    KdTree tree(pts);
    const ShapeKey q{1.5, 1.0, 1.0};
    EXPECT_EQ(tree.nearest(q), 0u);
    const std::vector<std::size_t> want = {0, 1, 2, 3};
    EXPECT_EQ(tree.nearestK(q, 4), want);
}

TEST(KdTreeTest, QueriesInvariantToInsertionOrderOfDuplicates)
{
    // Regression for the KD-tree build tie-break: nth_element's
    // partitioning of equal keys is unspecified, so without the
    // index tie-break in the build comparator, permuting duplicate
    // points could reshape the tree and change which tied index a
    // query returns. Queries over any permutation must return the
    // same coordinates.
    Rng rng(59);
    std::vector<ShapeKey> pts;
    for (int i = 0; i < 40; ++i) {
        // Coarse grid: plenty of duplicate coordinates.
        pts.push_back(ShapeKey{static_cast<double>(rng.below(4)),
                               static_cast<double>(rng.below(4)),
                               static_cast<double>(rng.below(4))});
    }
    std::vector<ShapeKey> reversed(pts.rbegin(), pts.rend());
    KdTree a(pts);
    KdTree b(reversed);
    for (int t = 0; t < 40; ++t) {
        const ShapeKey q{rng.uniform(-0.5, 4.5), rng.uniform(-0.5, 4.5),
                         rng.uniform(-0.5, 4.5)};
        const std::vector<std::size_t> ka = a.nearestK(q, 6);
        const std::vector<std::size_t> kb = b.nearestK(q, 6);
        ASSERT_EQ(ka.size(), kb.size());
        for (std::size_t i = 0; i < ka.size(); ++i)
            EXPECT_EQ(pts[ka[i]], reversed[kb[i]]);
    }
}

TEST(PerfDatabaseTest, LookupReturnsNearestShape)
{
    PerfDatabase db;
    db.insert({FcShape{128, 256, 256}, FcOptions{}, 100});
    db.insert({FcShape{2048, 2048, 2048}, FcOptions{}, 200});
    const auto hit = db.lookup(FcShape{1900, 2100, 2000});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->shape.m, 2048);
    const auto hit2 = db.lookup(FcShape{100, 300, 200});
    ASSERT_TRUE(hit2.has_value());
    EXPECT_EQ(hit2->shape.m, 128);
}

TEST(PerfDatabaseTest, LookupKReturnsNeighboursClosestFirst)
{
    PerfDatabase db;
    db.insert({FcShape{128, 256, 256}, FcOptions{}, 100});
    db.insert({FcShape{256, 512, 512}, FcOptions{}, 150});
    db.insert({FcShape{2048, 2048, 2048}, FcOptions{}, 200});
    const auto near = db.lookupK(FcShape{128, 256, 256}, 2);
    ASSERT_EQ(near.size(), 2u);
    EXPECT_EQ(near[0].shape.m, 128);
    EXPECT_EQ(near[1].shape.m, 256);
    // k beyond the database size clamps; empty database yields empty.
    EXPECT_EQ(db.lookupK(FcShape{64, 64, 64}, 10).size(), 3u);
    EXPECT_TRUE(PerfDatabase{}.lookupK(FcShape{64, 64, 64}, 4).empty());
}

TEST(PerfDatabaseTest, LookupKBreaksDistanceTiesByInsertionOrder)
{
    // Two identical shapes with different recorded variants: the
    // first inserted must come back first, whatever the tree layout.
    PerfDatabase db;
    FcOptions first;
    first.weights = Placement::Llc;
    FcOptions second;
    second.weights = Placement::Dram;
    db.insert({FcShape{512, 512, 512}, first, 100});
    db.insert({FcShape{512, 512, 512}, second, 200});
    const auto near = db.lookupK(FcShape{512, 512, 512}, 2);
    ASSERT_EQ(near.size(), 2u);
    EXPECT_EQ(near[0].best_time, 100u);
    EXPECT_EQ(near[1].best_time, 200u);
}

class KernelTunerTest : public ::testing::Test
{
  protected:
    KernelTunerTest()
        : dev_(ChipConfig::mtia2i()), km_(dev_), tuner_(km_) {}

    std::vector<FcShape>
    corpus() const
    {
        std::vector<FcShape> shapes;
        Rng rng(37);
        for (int i = 0; i < 60; ++i) {
            shapes.push_back(FcShape{
                static_cast<std::int64_t>(32u << rng.below(6)),
                static_cast<std::int64_t>(128u << rng.below(6)),
                static_cast<std::int64_t>(128u << rng.below(5))});
        }
        return shapes;
    }

    Device dev_;
    KernelCostModel km_;
    KernelTuner tuner_;
};

TEST_F(KernelTunerTest, ExhaustivePicksFeasibleBest)
{
    const TuneResult r = tuner_.tuneExhaustive(FcShape{512, 512, 512});
    EXPECT_GT(r.kernel_time, 0u);
    // Small weights: the cached (LLC) variant must win over DRAM.
    EXPECT_EQ(r.variant.weights, Placement::Llc);
}

TEST_F(KernelTunerTest, HugeWeightsForceStreamingVariant)
{
    // 26592 x 20480 fp16 ~ 1 GB: cannot be LLC-resident.
    const TuneResult r =
        tuner_.tuneExhaustive(FcShape{512, 26592, 20480});
    EXPECT_EQ(r.variant.weights, Placement::Dram);
    EXPECT_TRUE(r.variant.coordinated_loading);
}

TEST_F(KernelTunerTest, ApproximateStreamsWeightsTooBigForTheLlc)
{
    // The database's only entry is an LLC-resident winner; a ~1 GB
    // query adopts it and must fall back to streaming its weights.
    PerfDatabase db = tuner_.buildDatabase({FcShape{512, 512, 512}});
    ASSERT_EQ(db.lookup(FcShape{512, 512, 512})->best_variant.weights,
              Placement::Llc);
    const FcShape shape{512, 26592, 20480};
    const TuneResult r = tuner_.tuneApproximate(shape, db);
    EXPECT_EQ(r.variant.weights, Placement::Dram);
    EXPECT_EQ(r.kernel_time, km_.fc(shape, r.variant).total);
    EXPECT_EQ(r.tuning_cost, fromMillis(20.0));
    EXPECT_EQ(db.size(), 1u);
}

TEST_F(KernelTunerTest, AnnWithinFivePercentAndOrdersOfMagnitudeCheaper)
{
    // Section 4.1: ANN tuning cut FC tuning time by up to 1000x while
    // staying within 5% of exhaustive kernel performance.
    PerfDatabase db = tuner_.buildDatabase(corpus());
    Rng rng(41);
    double worst_ratio = 1.0;
    double total_exhaustive_cost = 0.0;
    double total_ann_cost = 0.0;
    for (int i = 0; i < 40; ++i) {
        // Query shapes near (but not equal to) the corpus.
        const FcShape q{
            static_cast<std::int64_t>(24u << rng.below(6)),
            static_cast<std::int64_t>(96u << rng.below(6)),
            static_cast<std::int64_t>(160u << rng.below(5))};
        const TuneResult ex = tuner_.tuneExhaustive(q);
        const TuneResult ann = tuner_.tuneApproximate(q, db);
        worst_ratio = std::max(
            worst_ratio, static_cast<double>(ann.kernel_time) /
                static_cast<double>(ex.kernel_time));
        total_exhaustive_cost += static_cast<double>(ex.tuning_cost);
        total_ann_cost += static_cast<double>(ann.tuning_cost);
    }
    EXPECT_LT(worst_ratio, 1.05);
    EXPECT_GT(total_exhaustive_cost / total_ann_cost, 1000.0);
}

TEST(BatchTunerTest, PrefersLargerBatchUnderSlo)
{
    Device dev(ChipConfig::mtia2i());
    BatchSizeTuner tuner(dev);
    auto builder = [](std::int64_t batch) {
        RankingModelParams p;
        p.batch = batch;
        p.tbe = TbeTableSpec{.tables = 16,
                             .rows_per_table = 1 << 20,
                             .dim = 64,
                             .dtype = DType::FP16,
                             .zipf_alpha = 0.9};
        p.dhen_layers = 1;
        p.dhen_width = 256;
        return buildRankingModel(p);
    };
    std::size_t winner = 0;
    const auto snaps = tuner.evaluate(builder, {128, 512, 2048},
                                      fromMillis(100.0), winner);
    ASSERT_EQ(snaps.size(), 3u);
    // Bigger batches amortize launches: throughput grows.
    EXPECT_GT(snaps[2].cost.qps, snaps[0].cost.qps);
    EXPECT_EQ(snaps[winner].batch, 2048);
}

TEST(CoalescingTunerTest, TunedConfigFillsBatches)
{
    Rng rng(43);
    TrafficParams t;
    t.qps = 4000.0;
    t.duration = fromSeconds(5.0);
    t.candidates_mean = 64;
    const auto trace = generateTrace(rng, t);

    CoalescingTuner tuner(fromMillis(10.0));
    const auto candidates = tuner.sweep(
        trace, /*batch_capacity=*/512,
        {fromMillis(0.5), fromMillis(2.0), fromMillis(8.0),
         fromMillis(32.0)},
        {1, 2, 4});
    ASSERT_FALSE(candidates.empty());
    // Section 4.1: with effective autotuning, >95% fill is typical.
    EXPECT_GT(candidates.front().stats.mean_fill, 0.95);
    EXPECT_LE(candidates.front().stats.mean_wait, fromMillis(40.0));
    // The sweep must actually discriminate configurations.
    EXPECT_GT(candidates.front().score, candidates.back().score);
}

TEST(ShardingTest, ShardCountFromMemoryFootprint)
{
    ShardingPlanner planner(ChipConfig::mtia2i()); // 128 GB LPDDR
    EXPECT_EQ(planner.shardsNeeded(40_GiB, 8_GiB), 1u);
    EXPECT_EQ(planner.shardsNeeded(200_GiB, 8_GiB), 2u);
    EXPECT_EQ(planner.shardsNeeded(1024_GiB, 8_GiB), 9u);
}

TEST(ShardingTest, NumaAwarePlacementStaysOnOneSocket)
{
    ShardingPlanner planner(ChipConfig::mtia2i());
    std::vector<bool> occupied(24, false);
    // Occupy most of socket 0 (chips 0..11): only 2 free there.
    for (unsigned c = 0; c < 10; ++c)
        occupied[c] = true;
    const ShardingPlan plan =
        planner.plan(300_GiB, 8_GiB, occupied); // needs 3 shards
    ASSERT_EQ(plan.shards, 3u);
    ASSERT_EQ(plan.chips.size(), 3u);
    ServerTopology topo;
    // Socket 0 has only 2 free chips: the plan must use socket 1.
    for (unsigned chip : plan.chips)
        EXPECT_EQ(topo.socketOf(chip), 1u);
}

TEST(ShardingTest, FailsCleanlyWhenNoSocketFits)
{
    ShardingPlanner planner(ChipConfig::mtia2i());
    std::vector<bool> occupied(24, true);
    occupied[0] = occupied[12] = false; // one free chip per socket
    const ShardingPlan plan = planner.plan(300_GiB, 8_GiB, occupied);
    EXPECT_TRUE(plan.chips.empty());
}

// ---------------------------------------------------------- surrogate

/** Smooth synthetic cost over a 1-D index grid (pure per index). */
double
syntheticCost(std::size_t i)
{
    const double x = static_cast<double>(i) / 40.0;
    return 50.0 + 30.0 * (x - 4.0) * (x - 4.0) + 5.0 * std::sin(3.0 * x);
}

FeatureVec
syntheticFeatures(std::size_t i)
{
    FeatureVec f{};
    f[0] = static_cast<double>(i) / 40.0;
    f[1] = std::log2(static_cast<double>(i + 1));
    return f;
}

TEST(SurrogateTest, PredictAllIsBitEqualToPerRowPredict)
{
    std::vector<FeatureVec> x;
    std::vector<double> y;
    for (std::size_t i = 0; i < 48; ++i) {
        x.push_back(syntheticFeatures(i * 7));
        y.push_back(syntheticCost(i * 7));
    }
    CostSurrogate fitted;
    fitted.fit(x, y);
    // A constant target converges before its first stump.
    CostSurrogate flat;
    flat.fit(x, std::vector<double>(x.size(), 3.5));
    ASSERT_EQ(flat.describe().find('['), std::string::npos)
        << flat.describe();

    std::vector<FeatureVec> grid = x;
    for (std::size_t i = 0; i < 400; ++i)
        grid.push_back(syntheticFeatures(i));
    for (const CostSurrogate *model : {&fitted, &flat}) {
        EXPECT_TRUE(model->predictAll({}).empty());
        const std::vector<double> all = model->predictAll(grid);
        ASSERT_EQ(all.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(all[i]),
                      std::bit_cast<std::uint64_t>(
                          model->predict(grid[i])))
                << "row " << i;
        }
    }
}

TEST(SurrogateTest, MonotoneCostLearnsMonotonePredictions)
{
    // Cost strictly increasing in feature 0: the fitted model must
    // rank a far-right candidate above a far-left one.
    std::vector<FeatureVec> x;
    std::vector<double> y;
    for (std::size_t i = 0; i < 64; ++i) {
        FeatureVec f{};
        f[0] = static_cast<double>(i);
        x.push_back(f);
        y.push_back(10.0 + 3.0 * static_cast<double>(i));
    }
    CostSurrogate model;
    model.fit(x, y);
    FeatureVec lo{};
    lo[0] = 4.0;
    FeatureVec mid{};
    mid[0] = 32.0;
    FeatureVec hi{};
    hi[0] = 60.0;
    EXPECT_LT(model.predict(lo), model.predict(mid));
    EXPECT_LT(model.predict(mid), model.predict(hi));
}

TEST(SurrogateTest, HeldOutAccuracyOnSmoothSyntheticCost)
{
    // Train on a 48-sample stride, score on held-out indices: the
    // relative MAE must clear a loose bound (the synthetic landscape
    // spans ~[50, 530]).
    std::vector<FeatureVec> x;
    std::vector<double> y;
    for (std::size_t i = 0; i < 400; i += 8) {
        x.push_back(syntheticFeatures(i));
        y.push_back(syntheticCost(i));
    }
    CostSurrogate model;
    model.fit(x, y);
    double abs_err = 0.0;
    double mean = 0.0;
    for (std::size_t i = 3; i < 400; i += 8) {
        abs_err += std::abs(model.predict(syntheticFeatures(i)) -
                            syntheticCost(i));
        mean += syntheticCost(i);
    }
    EXPECT_LT(abs_err / mean * 100.0, 10.0);
}

TEST(SurrogateTest, DisabledSweepIsExhaustiveAndFindsTrueArgmin)
{
    // A verify budget as large as the grid leaves the model nothing
    // to prune: the sweep is the exhaustive reference.
    const SurrogateSweepResult r = surrogateArgmin(
        400, syntheticFeatures, syntheticCost, {.top_k = 400});
    EXPECT_FALSE(r.used_surrogate);
    EXPECT_EQ(r.real_evals, 400u);
    EXPECT_EQ(r.surrogate_evals, 0u);
    EXPECT_TRUE(r.predicted.empty());
    ASSERT_EQ(r.measured.size(), 400u);
    // True argmin with lowest-index tie-breaking.
    std::size_t want = 0;
    for (std::size_t i = 1; i < 400; ++i)
        if (syntheticCost(i) < syntheticCost(want))
            want = i;
    EXPECT_EQ(r.best_index, want);
    EXPECT_EQ(r.best_cost, syntheticCost(want));
}

TEST(SurrogateTest, SmallGridFallsBackToExhaustiveEvenWhenEnabled)
{
    SurrogateSweepOptions o;
    o.seed_count = 8;
    o.top_k = 4;
    const SurrogateSweepResult r =
        surrogateArgmin(12, syntheticFeatures, syntheticCost, o);
    EXPECT_FALSE(r.used_surrogate);
    EXPECT_EQ(r.real_evals, 12u);
}

TEST(SurrogateTest, SurrogateSweepFindsNearOptimalWithFewEvals)
{
    const SurrogateSweepResult r = surrogateArgmin(
        400, syntheticFeatures, syntheticCost);
    EXPECT_TRUE(r.used_surrogate);
    EXPECT_LT(r.real_evals, 40u); // seeds + top-k, not 400
    EXPECT_EQ(r.surrogate_evals, 400u);
    // The smooth landscape's optimum must be recovered exactly.
    std::size_t want = 0;
    for (std::size_t i = 1; i < 400; ++i)
        if (syntheticCost(i) < syntheticCost(want))
            want = i;
    EXPECT_EQ(r.best_index, want);
}

TEST(SurrogateTest, MaxVerifyBudgetIsExhaustiveWithoutOverflow)
{
    // seed_count + SIZE_MAX wraps; the fallback rule must not add
    // them, or this sweep would take the surrogate path and try to
    // reserve SIZE_MAX verify slots.
    const SurrogateSweepResult r = surrogateArgmin(
        400, syntheticFeatures, syntheticCost,
        {.top_k = std::numeric_limits<std::size_t>::max()});
    const SurrogateSweepResult ref = surrogateArgmin(
        400, syntheticFeatures, syntheticCost, {.top_k = 400});
    EXPECT_FALSE(r.used_surrogate);
    EXPECT_EQ(r.real_evals, 400u);
    EXPECT_EQ(r.best_index, ref.best_index);
    EXPECT_EQ(r.best_cost, ref.best_cost);
    EXPECT_EQ(r.measured_cost, ref.measured_cost);
}

TEST(SurrogateTest, StatsCountEvalsAndErrors)
{
    autotune::resetStats();
    SurrogateSweepOptions o;
    o.seed_count = 16;
    o.top_k = 8;
    const SurrogateSweepResult r =
        surrogateArgmin(300, syntheticFeatures, syntheticCost, o);
    EXPECT_EQ(autotune::surrogateEvals(), 300u);
    EXPECT_EQ(autotune::realEvals(), r.real_evals);
    EXPECT_EQ(autotune::surrogateMae(), r.mae);
    autotune::resetStats();
    EXPECT_EQ(autotune::surrogateEvals(), 0u);
    EXPECT_EQ(autotune::realEvals(), 0u);
    EXPECT_EQ(autotune::surrogateMae(), 0.0);
}

TEST_F(KernelTunerTest, SurrogateDisabledMatchesExhaustiveGridSweep)
{
    // With a verify budget as large as the grid, tuneSurrogate must
    // price every variant for real and pick the first minimum of the
    // extended grid.
    const FcShape q{384, 1536, 768};
    const std::size_t grid = KernelTuner::extendedVariantSpace().size();
    const KernelSurrogateResult r =
        tuner_.tuneSurrogate(q, nullptr, {.top_k = grid});
    EXPECT_FALSE(r.loop.used_surrogate);
    EXPECT_EQ(r.loop.real_evals, r.grid_size);
    const std::vector<double> &cost = r.loop.measured_cost;
    ASSERT_EQ(cost.size(), grid);
    const auto best = std::min_element(cost.begin(), cost.end());
    EXPECT_EQ(r.loop.best_index,
              static_cast<std::size_t>(best - cost.begin()));
    EXPECT_EQ(r.loop.best_cost, *best);
}

TEST_F(KernelTunerTest, SurrogateZeroRegretOnReferenceShapes)
{
    // Verify budget sized at the tie-cluster width (see tuneSurrogate
    // docs): the surrogate winner must match the exhaustive winner of
    // the same extended grid bit-exactly.
    SurrogateSweepOptions o;
    o.top_k = 24;
    const std::size_t grid = KernelTuner::extendedVariantSpace().size();
    for (const FcShape q : {FcShape{256, 1024, 512},
                            FcShape{768, 768, 384}}) {
        const KernelSurrogateResult ex =
            tuner_.tuneSurrogate(q, nullptr, {.top_k = grid});
        const KernelSurrogateResult sg = tuner_.tuneSurrogate(q, nullptr, o);
        EXPECT_TRUE(sg.loop.used_surrogate);
        EXPECT_LT(sg.loop.real_evals, ex.loop.real_evals / 4);
        EXPECT_EQ(sg.loop.best_index, ex.loop.best_index);
        EXPECT_EQ(sg.result.kernel_time, ex.result.kernel_time);
        EXPECT_EQ(sg.loop.best_cost, ex.loop.best_cost);
    }
}

TEST_F(KernelTunerTest, WarmStartFromDatabaseEqualsManualWarmSamples)
{
    // tuneSurrogate's KD-tree warm start must be exactly "prepend the
    // k nearest entries as training rows": running the raw loop with
    // manually assembled warm vectors reproduces it byte-for-byte.
    PerfDatabase db = tuner_.buildDatabase(corpus());
    const FcShape q{192, 1152, 576};
    SurrogateSweepOptions o;
    o.top_k = 24;

    const KernelSurrogateResult via_db = tuner_.tuneSurrogate(q, &db, o);

    SurrogateSweepOptions manual = o;
    for (const PerfEntry &e : db.lookupK(q, 8)) {
        manual.warm_features.push_back(
            KernelTuner::variantFeatures(e.shape, e.best_variant));
        manual.warm_costs.push_back(static_cast<double>(e.best_time));
    }
    const std::vector<FcOptions> space =
        KernelTuner::extendedVariantSpace();
    const Bytes llc = dev_.sramPartition().llcBytes();
    const SurrogateSweepResult raw = surrogateArgmin(
        space.size(),
        [&](std::size_t i) {
            return KernelTuner::variantFeatures(q, space[i]);
        },
        [&](std::size_t i) -> double {
            const FcOptions &variant = space[i];
            if (variant.weights == Placement::Llc &&
                q.weightBytes(variant.dtype) > llc) {
                return 1e18;
            }
            const Device dev = dev_.cloneConfigured();
            const KernelCostModel km(dev);
            return static_cast<double>(km.fc(q, variant).total);
        },
        manual);

    EXPECT_EQ(via_db.loop.best_index, raw.best_index);
    EXPECT_EQ(via_db.loop.best_cost, raw.best_cost);
    EXPECT_EQ(via_db.loop.predicted, raw.predicted);
    EXPECT_EQ(via_db.loop.measured, raw.measured);
    EXPECT_EQ(via_db.loop.measured_cost, raw.measured_cost);
    EXPECT_EQ(via_db.loop.mae, raw.mae);
}

// ------------------------------------------------------ surrogate pin

/** Every field of a tuneSurrogate result, bit for bit, into @p sha. */
void
absorb(Sha256 &sha, const KernelSurrogateResult &r)
{
    std::string s;
    auto put = [&s](auto v) {
        const auto bits = std::bit_cast<
            std::array<char, sizeof(v)>>(v);
        s.append(bits.data(), bits.size());
    };
    put(r.loop.best_index);
    put(r.loop.best_cost);
    for (double p : r.loop.predicted)
        put(p);
    for (std::size_t m : r.loop.measured)
        put(m);
    for (double c : r.loop.measured_cost)
        put(c);
    put(r.loop.surrogate_evals);
    put(r.loop.real_evals);
    put(r.loop.mae);
    put(r.loop.used_surrogate);
    put(r.result.kernel_time);
    put(r.result.tuning_cost);
    put(r.grid_size);
    sha.update(s);
}

TEST_F(KernelTunerTest, TuneSurrogateOnFigure6FcShapesIsPinned)
{
    // Every distinct FC (n, k) of the nine Figure 6 models, at six
    // batch rungs of perfbench codesign_sweep's 16..4096 grid, tuned
    // cold; then the first FC of each model warm-started from a
    // KD-tree database. The digest was recorded before the boundary
    // scan and the block predict kernel replaced the direct loops.
    Sha256 sha;
    std::size_t results = 0;
    const PerfDatabase db = tuner_.buildDatabase(corpus());
    for (const ModelInfo &m : figure6Models()) {
        std::set<std::pair<std::int64_t, std::int64_t>> shapes;
        for (int id : m.graph.topoOrder()) {
            const auto *fc = dynamic_cast<const FullyConnectedOp *>(
                m.graph.node(id).op.get());
            if (fc != nullptr)
                shapes.emplace(fc->shape().n, fc->shape().k);
        }
        for (const auto &[n, k] : shapes) {
            for (std::int64_t batch : {16, 48, 256, 1024, 2048, 4096}) {
                absorb(sha, tuner_.tuneSurrogate(FcShape{batch, n, k}));
                ++results;
            }
        }
        const auto &[n, k] = *shapes.begin();
        absorb(sha, tuner_.tuneSurrogate(FcShape{m.batch, n, k}, &db));
        ++results;
    }
    EXPECT_EQ(results, 447u);
    EXPECT_EQ(Sha256::hex(sha.finish()),
              "43f76493d96e541dc21a266489afd670"
              "ae953d9da96d81d932cec45738b4082b");
}

TEST(BatchTunerTest, SurrogateWinnerRuleMatchesEvaluate)
{
    Device dev(ChipConfig::mtia2i());
    BatchSizeTuner tuner(dev);
    auto builder = [](std::int64_t batch) {
        RankingModelParams p;
        p.batch = batch;
        p.tbe = TbeTableSpec{.tables = 16,
                             .rows_per_table = 1 << 20,
                             .dim = 64,
                             .dtype = DType::FP16,
                             .zipf_alpha = 0.9};
        p.dhen_layers = 1;
        p.dhen_width = 256;
        return buildRankingModel(p);
    };
    const std::vector<std::int64_t> grid = {128, 256, 512, 1024, 2048};
    std::size_t winner = 0;
    const auto snaps =
        tuner.evaluate(builder, grid, fromMillis(100.0), winner);
    // Small grid: the loop falls back to exhaustive at the default
    // budget, and its cost encoding must reproduce evaluate()'s
    // highest-QPS-under-SLO winner rule exactly.
    const BatchSurrogateResult r =
        tuner.tuneSurrogate(builder, grid, fromMillis(100.0));
    EXPECT_FALSE(r.loop.used_surrogate);
    EXPECT_EQ(r.loop.best_index, winner);
    EXPECT_EQ(r.best.batch, snaps[winner].batch);
    EXPECT_EQ(r.best.cost.qps, snaps[winner].cost.qps);
    EXPECT_EQ(r.grid_size, grid.size());
}

TEST(CoalescingTunerTest, SurrogateFallbackMatchesSweepFront)
{
    Rng rng(47);
    TrafficParams t;
    t.qps = 3000.0;
    t.duration = fromSeconds(2.0);
    t.candidates_mean = 64;
    const auto trace = generateTrace(rng, t);
    CoalescingTuner tuner(fromMillis(10.0));
    const std::vector<Tick> windows = {fromMillis(0.5), fromMillis(2.0),
                                       fromMillis(8.0),
                                       fromMillis(32.0)};
    const std::vector<unsigned> parallel = {1, 2, 4};
    const auto ranked = tuner.sweep(trace, 512, windows, parallel);
    const CoalescingSurrogateResult r = tuner.sweepSurrogate(
        trace, 512, windows, parallel,
        {.top_k = windows.size() * parallel.size()});
    EXPECT_FALSE(r.loop.used_surrogate);
    EXPECT_EQ(r.best.score, ranked.front().score);
    EXPECT_EQ(r.best.config.window, ranked.front().config.window);
    EXPECT_EQ(r.best.config.parallel_windows,
              ranked.front().config.parallel_windows);
    EXPECT_EQ(r.grid_size, windows.size() * parallel.size());
}

} // namespace
} // namespace mtia
