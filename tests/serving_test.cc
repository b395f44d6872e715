/**
 * @file
 * Tests for the serving stack: coalescer conservation and fill
 * properties, and the A/B harness with normalized entropy. The
 * serving simulator's tests live with it in cluster_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "models/model_zoo.h"
#include "models/workload.h"
#include "ops/dense_ops.h"
#include "serving/ab_testing.h"
#include "serving/coalescer.h"

namespace mtia {
namespace {

std::vector<Request>
makeTrace(double qps, double seconds, std::uint64_t seed = 51)
{
    Rng rng(seed);
    TrafficParams p;
    p.qps = qps;
    p.duration = fromSeconds(seconds);
    p.candidates_mean = 64;
    return generateTrace(rng, p);
}

TEST(CoalescerTest, ConservesEveryRequest)
{
    const auto trace = makeTrace(3000.0, 3.0);
    Coalescer c(CoalescerConfig{fromMillis(2.0), 2, 512});
    const auto batches = c.coalesce(trace);
    std::size_t total = 0;
    for (const auto &b : batches)
        total += b.requests.size();
    EXPECT_EQ(total, trace.size());
}

TEST(CoalescerTest, WindowBoundsWait)
{
    const auto trace = makeTrace(500.0, 3.0);
    const Tick window = fromMillis(4.0);
    Coalescer c(CoalescerConfig{window, 2, 1 << 20});
    const auto batches = c.coalesce(trace);
    for (const auto &b : batches)
        for (const Request &r : b.requests)
            EXPECT_LE(b.dispatch_time - r.arrival, window);
}

TEST(CoalescerTest, LargerWindowsFillBetter)
{
    const auto trace = makeTrace(4000.0, 3.0);
    const CoalescerConfig small{fromMillis(0.25), 2, 512};
    const CoalescerConfig large{fromMillis(8.0), 2, 512};
    const auto s = Coalescer::stats(Coalescer(small).coalesce(trace));
    const auto l = Coalescer::stats(Coalescer(large).coalesce(trace));
    EXPECT_GT(l.mean_fill, s.mean_fill);
    EXPECT_GT(l.mean_requests_per_batch, s.mean_requests_per_batch);
}

TEST(CoalescerTest, DeadlineForcesEarlyClose)
{
    // Two small requests, then silence. Without a deadline the batch
    // waits out the full 10 ms window; with a 3 ms deadline the
    // oldest member's slack forces dispatch at its arrival + 3 ms
    // even though the batch has plenty of room left.
    Request a;
    a.id = 0;
    a.arrival = fromMillis(1.0);
    a.candidates = 4;
    Request b = a;
    b.id = 1;
    b.arrival = fromMillis(2.0);
    const std::vector<Request> trace = {a, b};

    CoalescerConfig cfg{fromMillis(10.0), 2, 512};
    const auto lazy = Coalescer(cfg).coalesce(trace);
    ASSERT_EQ(lazy.size(), 1u);
    EXPECT_EQ(lazy[0].dispatch_time, fromMillis(11.0));

    cfg.deadline = fromMillis(3.0);
    const auto eager = Coalescer(cfg).coalesce(trace);
    ASSERT_EQ(eager.size(), 1u);
    EXPECT_EQ(eager[0].requests.size(), 2u);
    EXPECT_EQ(eager[0].dispatch_time, fromMillis(4.0));
}

TEST(CoalescerTest, SlackRichQueueStillFillsToCapacity)
{
    // A hot queue with an SLO-sized deadline closes batches full (or
    // at the window) before any deadline binds: the deadline is a
    // backstop, not the operating point. The schedule is identical to
    // the no-deadline run, and every member's wait stays within the
    // deadline bound regardless.
    const auto trace = makeTrace(8000.0, 2.0);
    CoalescerConfig cfg{fromMillis(4.0), 2, 256};
    const auto no_deadline = Coalescer(cfg).coalesce(trace);
    cfg.deadline = fromMillis(50.0);
    const auto with_deadline = Coalescer(cfg).coalesce(trace);

    ASSERT_EQ(with_deadline.size(), no_deadline.size());
    for (std::size_t i = 0; i < with_deadline.size(); ++i) {
        EXPECT_EQ(with_deadline[i].dispatch_time,
                  no_deadline[i].dispatch_time);
        EXPECT_EQ(with_deadline[i].rows, no_deadline[i].rows);
        for (const Request &r : with_deadline[i].requests)
            EXPECT_LE(with_deadline[i].dispatch_time - r.arrival,
                      cfg.deadline);
    }
    EXPECT_GT(Coalescer::stats(with_deadline).mean_fill, 0.9);
}

TEST(CoalescerTest, BatchesRecordTheirOwnCapacity)
{
    // Regression for the old stats(batches, cfg) footgun: fill was
    // computed against a caller-supplied config, so scoring batches
    // with a different config than the one that coalesced them gave
    // silently wrong fills. Capacity now rides on each batch.
    const auto trace = makeTrace(4000.0, 2.0);
    const CoalescerConfig narrow{fromMillis(2.0), 2, 256};
    const CoalescerConfig wide{fromMillis(2.0), 2, 1024};
    const auto narrow_batches = Coalescer(narrow).coalesce(trace);
    const auto wide_batches = Coalescer(wide).coalesce(trace);
    for (const auto &b : narrow_batches) {
        EXPECT_EQ(b.capacity, 256);
        EXPECT_LE(b.rows, b.capacity);
    }
    for (const auto &b : wide_batches)
        EXPECT_EQ(b.capacity, 1024);

    // Mixing batches from differently-configured coalescers now
    // aggregates each batch against its own capacity: the mean fill
    // lands strictly between the two homogeneous means.
    const double narrow_fill = Coalescer::stats(narrow_batches).mean_fill;
    const double wide_fill = Coalescer::stats(wide_batches).mean_fill;
    std::vector<CoalescedBatch> mixed = narrow_batches;
    mixed.insert(mixed.end(), wide_batches.begin(), wide_batches.end());
    const auto stats = Coalescer::stats(mixed);
    EXPECT_GT(stats.mean_fill, std::min(narrow_fill, wide_fill));
    EXPECT_LT(stats.mean_fill, std::max(narrow_fill, wide_fill));
    EXPECT_EQ(stats.batches, narrow_batches.size() + wide_batches.size());
}

TEST(NormalizedEntropyTest, PerfectAndBasePredictors)
{
    // A predictor matching the empirical CTR exactly scores NE ~ 1.
    std::vector<double> base(1000, 0.3);
    std::vector<int> labels(1000, 0);
    for (int i = 0; i < 300; ++i)
        labels[static_cast<std::size_t>(i * 3)] = 1;
    EXPECT_NEAR(normalizedEntropy(base, labels), 1.0, 0.01);

    // A sharper correct predictor scores below 1.
    std::vector<double> sharp;
    sharp.reserve(1000);
    for (int i = 0; i < 1000; ++i)
        sharp.push_back(labels[static_cast<std::size_t>(i)] == 1
                            ? 0.9
                            : 0.05);
    EXPECT_LT(normalizedEntropy(sharp, labels), 0.6);
}

TEST(AbTest, MtiaArmMatchesGpuArmWithinTolerance)
{
    // Section 5.6: A/B tests confirmed comparable model quality. The
    // arms differ only by the LUT approximation, so NE deltas must be
    // far below the ~0.1% launch-blocking threshold used in practice.
    RankingModelParams p;
    p.batch = 64;
    p.dense_features = 32;
    p.bottom_mlp = {32};
    p.tbe = TbeTableSpec{.tables = 4,
                         .rows_per_table = 4096,
                         .dim = 16,
                         .dtype = DType::FP16,
                         .zipf_alpha = 0.9};
    p.tbe_pooling = 8;
    p.top_mlp = {64, 1};
    p.dhen_layers = 1;
    p.dhen_width = 64;
    ModelInfo model = buildRankingModel(p);

    AbTestHarness harness;
    const AbResult r = harness.compare(model.graph, 4);
    EXPECT_GT(r.samples, 0u);
    EXPECT_GT(r.max_pred_diff, 0.0);          // a real numeric delta
    EXPECT_LT(r.max_pred_diff, 0.01);          // but a small one
    EXPECT_LT(std::abs(r.neDeltaPercent()), 0.5);
    EXPECT_NEAR(r.mean_pred_candidate, r.mean_pred_reference, 0.002);
}

} // namespace
} // namespace mtia
