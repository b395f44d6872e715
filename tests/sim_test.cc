/**
 * @file
 * Unit and property tests for the simulation foundation: tick math,
 * RNG distributions, Zipf sampling, and the event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "sim/event_queue.h"
#include "sim/parallel_des.h"
#include "sim/random.h"
#include "sim/types.h"
#include "telemetry/metrics.h"

namespace mtia {
namespace {

TEST(Types, TickConversionsRoundTrip)
{
    EXPECT_EQ(fromSeconds(1.0), kTicksPerSec);
    EXPECT_EQ(fromMillis(1.0), kTicksPerMs);
    EXPECT_EQ(fromMicros(1.0), kTicksPerUs);
    EXPECT_EQ(fromNanos(1.0), kTicksPerNs);
    EXPECT_DOUBLE_EQ(toSeconds(fromSeconds(2.5)), 2.5);
    EXPECT_DOUBLE_EQ(toMillis(fromMillis(99.0)), 99.0);
}

TEST(Types, ByteLiteralsAndTransfer)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(256_MiB, 256ull << 20);
    EXPECT_EQ(64_GiB, 64ull << 30);
    // 1 GB at 1 GB/s takes one second.
    EXPECT_EQ(transferTicks(1000000000ull, gbPerSec(1.0)), kTicksPerSec);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, PoissonMean)
{
    Rng rng(13);
    for (double mean : {0.5, 5.0, 50.0}) {
        double sum = 0.0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(rng.poisson(mean));
        EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << mean;
    }
}

TEST(Rng, ExponentialMean)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

class ZipfAlpha : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfAlpha, RankFrequenciesFollowPowerLaw)
{
    const double alpha = GetParam();
    Rng rng(23);
    const std::uint64_t n = 1000;
    ZipfSampler zipf(n, alpha);
    std::vector<std::uint64_t> counts(n, 0);
    const int draws = 400000;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t k = zipf.sample(rng);
        ASSERT_LT(k, n);
        ++counts[k];
    }
    // Frequency ratio between rank 1 and rank 10 should be ~10^alpha.
    const double expected = std::pow(10.0, alpha);
    const double observed =
        static_cast<double>(counts[0]) / static_cast<double>(counts[9]);
    EXPECT_NEAR(observed / expected, 1.0, 0.25) << "alpha=" << alpha;
    // Monotone-decreasing on average: head rank dominates the tail.
    EXPECT_GT(counts[0], counts[n - 1]);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfAlpha,
                         ::testing::Values(0.6, 0.8, 1.05, 1.2));

TEST(DiscreteSampler, MatchesWeights)
{
    Rng rng(29);
    DiscreteSampler s({1.0, 2.0, 7.0});
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[s.sample(rng)];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksCanScheduleMore)
{
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 10)
            q.scheduleAfter(5, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(q.now(), 45u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(100, [&] { ++fired; });
    q.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ClearDropsPending)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.clear();
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, MoveOnlyCallbackIsNeverCopied)
{
    // Regression for the seed queue's closure deep-copy on dispatch:
    // a callback owning unique_ptr state must compile and run.
    EventQueue q;
    auto payload = std::make_unique<int>(41);
    int got = 0;
    q.schedule(5, [p = std::move(payload), &got] { got = *p + 1; });
    q.run();
    EXPECT_EQ(got, 42);
}

TEST(EventQueue, MoveOnlyStateThreadsThroughReschedules)
{
    EventQueue q;
    int final_count = 0;
    struct Hop
    {
        EventQueue *q;
        std::unique_ptr<int> token;
        int *out;
        void
        operator()()
        {
            ++*token;
            if (*token < 3)
                q->scheduleAfter(7, Hop{q, std::move(token), out});
            else
                *out = *token;
        }
    };
    static_assert(EventQueue::Callback::storesInline<Hop>());
    q.schedule(0, Hop{&q, std::make_unique<int>(0), &final_count});
    q.run();
    EXPECT_EQ(final_count, 3);
    EXPECT_EQ(q.now(), 14u);
}

TEST(EventQueue, ClearTenThousandEventsIsAStructuralReset)
{
    EventQueue q;
    int fired = 0;
    q.schedule(3, [&] { ++fired; });
    q.run();
    const Tick before = q.now();
    // Spread events over both the sorted run and the heap: ticks
    // alternate between rising from the front and falling from the back.
    for (int i = 0; i < 10000; ++i)
        q.scheduleAfter(static_cast<Tick>(i % 2 == 0 ? i : 10000 - i) * 7,
                        [&] { ++fired; });
    EXPECT_EQ(q.pending(), 10000u);
    q.clear();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.now(), before);
    EXPECT_EQ(q.executed(), 1u);
    // The queue stays usable and its slots are recycled.
    q.scheduleAfter(1, [&] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilEventExactlyAtLimitFires)
{
    EventQueue q;
    int fired = 0;
    q.schedule(50, [&] { ++fired; });
    q.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunUntilCallbackSchedulingAtNowRunsInSameCall)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(20, [&] {
        order.push_back(1);
        q.schedule(q.now(), [&] { order.push_back(2); });
    });
    q.runUntil(20);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, RunUntilEarlyExitLeavesWindowConsistent)
{
    // An early-exiting runUntil() must leave the queue as it found it
    // apart from now(). The event at 900 opens the sorted run; after
    // the early exit, 1900 extends the run and 500 (below the run's
    // back, but >= now()) lands in the heap. Each must fire at its own
    // tick, in tick order across the two.
    EventQueue q;
    std::vector<Tick> ticks;
    auto record = [&] { ticks.push_back(q.now()); };
    q.schedule(900, record);
    q.runUntil(100); // exits early: earliest event is past the limit
    EXPECT_EQ(q.now(), 100u);
    EXPECT_EQ(q.pending(), 1u);
    q.schedule(1900, record);
    q.schedule(500, record);
    EXPECT_EQ(q.nextEventTick(), 500u);
    q.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{500, 900, 1900}));
    EXPECT_EQ(q.now(), 1900u);
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, RunUntilEarlyExitThenScheduleBelowPendingTick)
{
    // After an early exit, an event between now() and the pending tick
    // goes to the heap and must still run first.
    EventQueue q;
    std::vector<Tick> ticks;
    const Tick far = 3072;
    q.schedule(far, [&] { ticks.push_back(q.now()); });
    q.runUntil(10);
    EXPECT_EQ(q.now(), 10u);
    q.schedule(20, [&] { ticks.push_back(q.now()); });
    q.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{20, far}));
}

TEST(EventQueue, RunUntilDrainingEarlyAdvancesToLimit)
{
    EventQueue q;
    q.runUntil(1234);
    EXPECT_EQ(q.now(), 1234u);
    q.schedule(2000, [] {});
    q.runUntil(5000);
    EXPECT_EQ(q.now(), 5000u);
}

TEST(EventQueue, RunEventPrecedesLaterHeapEventAtSameTick)
{
    // Same tick on both sides of the run/heap boundary: 1700 opens the
    // run, 1800 extends it, and a second 1700 (below the run's back)
    // goes to the heap with a later sequence number. The tie breaks on
    // seq, so the run's event fires first, and the heap's event fires
    // before the run's later tick.
    EventQueue q;
    std::vector<int> order;
    q.schedule(1700, [&] { order.push_back(1); }); // run, seq 0
    q.schedule(1800, [&] { order.push_back(3); }); // run, seq 1
    q.schedule(1700, [&] { order.push_back(2); }); // heap, seq 2
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 1800u);
}

TEST(EventQueue, HeapEventDispatchesBeforeLaterRunTicks)
{
    // 2000 opens the run; 600 and the 1300 it schedules land in the
    // heap (below the run's back), 2500 extends the run. Dispatch
    // interleaves the two sources in tick order.
    EventQueue q;
    std::vector<int> order;
    q.schedule(2000, [&] { order.push_back(3); });
    q.schedule(600, [&] {
        order.push_back(1);
        q.schedule(1300, [&] { order.push_back(2); });
    });
    q.schedule(2500, [&] { order.push_back(4); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, FarFutureJumpsPreserveOrderAcrossGaps)
{
    EventQueue q;
    std::vector<std::uint64_t> order;
    // Descending ticks far apart: the first opens the run, every later
    // one sorts before the run's back and goes to the heap.
    const Tick gap = 51200;
    for (std::uint64_t i = 0; i < 64; ++i)
        q.schedule(static_cast<Tick>(64 - i) * gap,
                   [&order, i] { order.push_back(i); });
    q.run();
    std::vector<std::uint64_t> want(64);
    for (std::uint64_t i = 0; i < 64; ++i)
        want[i] = 63 - i;
    EXPECT_EQ(order, want);
    EXPECT_EQ(q.executed(), 64u);
    EXPECT_EQ(q.now(), 64 * gap);
}

TEST(EventQueue, TelemetryCountersAndPublish)
{
    EventQueue q;
    for (int i = 0; i < 4; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.schedule(2, [] {}); // below the run's back: the heap
    EXPECT_EQ(q.scheduledCount(), 5u);
    EXPECT_EQ(q.inlineCallbackCount(), 5u);
    EXPECT_EQ(q.pending(), 5u);

    telemetry::MetricRegistry reg;
    q.publishMetrics(reg);
    EXPECT_EQ(reg.counter("event_queue.scheduled").value(), 5u);
    EXPECT_EQ(reg.counter("event_queue.inline_callbacks").value(), 5u);
    EXPECT_EQ(reg.seriesCount(), 2u); // the two counters, nothing else

    q.run();
    EXPECT_EQ(q.executed(), 5u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, OversizedCaptureFallsBackToHeapBox)
{
    EventQueue q;
    std::array<std::uint64_t, 16> big{};
    big[15] = 7;
    std::uint64_t got = 0;
    auto cb = [big, &got] { got = big[15]; };
    static_assert(!EventQueue::Callback::storesInline<decltype(cb)>());
    q.schedule(1, std::move(cb));
    EXPECT_EQ(q.scheduledCount(), 1u);
    EXPECT_EQ(q.inlineCallbackCount(), 0u);
    q.run();
    EXPECT_EQ(got, 7u);
}

TEST(EventQueue, RunUntilLimitIsInclusiveOnBothExitPaths)
{
    // Epoch-barrier contract pin-down (release-mode: pure EXPECTs, no
    // DCHECK reliance). An epoch runs runUntil(epoch_end) on every
    // partition; the barrier then delivers messages at epoch_end + 1.
    // That is only sound if (a) an event landing exactly on epoch_end
    // runs INSIDE the epoch — not held over — and (b) every partition
    // clock reads exactly epoch_end afterwards, whether it dispatched
    // events up to the limit or exited early with work beyond it.
    EventQueue busy;
    std::vector<Tick> fired;
    busy.schedule(99, [&] { fired.push_back(busy.now()); });
    busy.schedule(100, [&] { fired.push_back(busy.now()); }); // at limit
    busy.schedule(101, [&] { fired.push_back(busy.now()); }); // beyond
    busy.runUntil(100);
    EXPECT_EQ(fired, (std::vector<Tick>{99, 100}));
    EXPECT_EQ(busy.now(), 100u);
    EXPECT_EQ(busy.pending(), 1u);

    EventQueue idle; // early exit: earliest pending is past the limit
    idle.schedule(500, [] {});
    idle.runUntil(100);
    EXPECT_EQ(idle.now(), 100u);

    // Both clocks agree at the epoch end, so a cross-partition message
    // delivered at epoch_end + 1 is schedulable on either queue.
    busy.schedule(101, [] {});
    idle.schedule(101, [] {});
    busy.run();
    idle.run();
    EXPECT_EQ(busy.executed(), 4u);
    EXPECT_EQ(idle.executed(), 2u);
}

TEST(EventQueue, RunUntilAtLimitFiresWhenParkedInFarHeap)
{
    // The at-the-limit event must dispatch inside the epoch even when
    // it sits in the heap rather than the run: limit + 1 opens the run
    // and the limit event sorts before its back.
    EventQueue q;
    const Tick limit = 4096;
    int fired = 0;
    q.schedule(limit + 1, [&] { ++fired; });
    q.schedule(limit, [&] { ++fired; });
    q.runUntil(limit);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), limit);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, NextEventTickSeesRunAndHeap)
{
    EventQueue q;
    q.schedule(2048, [] {}); // opens the run
    EXPECT_EQ(q.nextEventTick(), 2048u);
    q.schedule(7, [] {}); // heap event below the run's front
    EXPECT_EQ(q.nextEventTick(), 7u);
    q.runUntil(7);
    EXPECT_EQ(q.nextEventTick(), 2048u);
}

TEST(EventQueue, SameTickFifoDeterministicAcrossLaneCounts)
{
    // Property: the dispatch trace of a same-tick-heavy workload is a
    // pure function of the shard seed, independent of how many worker
    // lanes the surrounding harness runs shards on.
    constexpr std::size_t kShards = 16;
    auto trace = [](std::size_t shard) {
        EventQueue q;
        Rng rng(1000 + static_cast<std::uint64_t>(shard));
        std::vector<std::uint64_t> order;
        std::uint64_t id = 0;
        for (int round = 0; round < 50; ++round) {
            const Tick t = q.now() + rng.below(4);
            for (int k = 0; k < 8; ++k) {
                const std::uint64_t my = id++;
                q.schedule(t, [&order, my] { order.push_back(my); });
            }
            q.runUntil(t);
        }
        q.run();
        return order;
    };
    const auto traces = [&](unsigned lanes) {
        ScopedParallelism scope(lanes);
        std::vector<std::vector<std::uint64_t>> out(kShards);
        parallelFor(kShards, [&](std::size_t s) { out[s] = trace(s); });
        return out;
    };
    const auto base = traces(1);
    for (const unsigned lanes : {2u, 8u})
        EXPECT_EQ(traces(lanes), base)
            << "dispatch trace changed at " << lanes << " lanes";
}

TEST(ParallelDes, CrossPartitionLatencyAndCountsAreExact)
{
    ParallelDes des(2, 10);
    std::vector<Tick> arrivals;
    des.queue(0).schedule(5, [&] {
        des.post(0, 1, des.queue(0).now() + 10, [&] {
            arrivals.push_back(des.queue(1).now());
        });
    });
    des.run();
    // Delivery lands at exactly send + latency, not rounded to the
    // barrier grid.
    EXPECT_EQ(arrivals, (std::vector<Tick>{15}));
    EXPECT_EQ(des.messagesDelivered(), 1u);
    EXPECT_EQ(des.executed(), 2u);
    EXPECT_EQ(des.epochsRun(), 2u);
}

TEST(ParallelDes, IdleEpochsAreSkipped)
{
    // A sparse timeline must not grind through every empty window:
    // each epoch anchors at the globally earliest pending event.
    ParallelDes des(4, 100);
    int early = 0;
    int late = 0;
    des.queue(3).schedule(5, [&] { ++early; });
    des.queue(2).schedule(1000000, [&] { ++late; });
    des.run();
    EXPECT_EQ(early, 1);
    EXPECT_EQ(late, 1);
    EXPECT_EQ(des.epochsRun(), 2u);
}

TEST(ParallelDes, MailboxFifoPreservesSendOrderAtSameTick)
{
    ParallelDes des(2, 10);
    std::vector<int> order;
    des.queue(0).schedule(3, [&] {
        des.post(0, 1, 13, [&] { order.push_back(1); });
        des.post(0, 1, 13, [&] { order.push_back(2); });
    });
    des.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ParallelDes, BarrierDrainOrdersSourcesByIndex)
{
    // Both sources post to partition 0 at the same delivery tick; the
    // barrier drains mailboxes in (dst, src, FIFO) index order, so
    // source 1 precedes source 2 no matter which lane finished its
    // epoch first.
    ParallelDes des(3, 10);
    std::vector<int> order;
    des.queue(2).schedule(0, [&] {
        des.post(2, 0, 10, [&] { order.push_back(2); });
    });
    des.queue(1).schedule(0, [&] {
        des.post(1, 0, 10, [&] { order.push_back(1); });
    });
    des.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ParallelDes, DeliveryIsSrcFifoForSetupAndRunTimePosts)
{
    // Setup posts from sources 2, 1, 0 (in that call order) and
    // run-time posts from three sources all deliver to partition 3 at
    // one tick. Each group must fire in (src, FIFO) order.
    ParallelDes des(4, 10);
    std::vector<int> order;
    const auto rec = [&order](int tag) {
        return [&order, tag] { order.push_back(tag); };
    };
    des.post(2, 3, 5, rec(20));
    des.post(1, 3, 5, rec(10));
    des.post(2, 3, 5, rec(21));
    des.post(0, 3, 5, rec(0));
    des.post(1, 3, 5, rec(11));
    for (unsigned src : {2u, 0u, 1u}) {
        des.queue(src).schedule(20, [&des, &rec, src] {
            const int tag = 100 + 10 * static_cast<int>(src);
            des.post(src, 3, 40, rec(tag));
            des.post(src, 3, 40, rec(tag + 1));
        });
    }
    des.run();
    EXPECT_EQ(order, (std::vector<int>{0, 10, 11, 20, 21, 100, 101, 110,
                                       111, 120, 121}));
    EXPECT_EQ(des.messagesDelivered(), 11u);
}

TEST(DesMailboxDeathTest, RunTimePostFromAnotherPartitionAborts)
{
    // During run() a post must name the partition whose event sends
    // it; otherwise the mailbox's (src, FIFO) order would not hold.
    EXPECT_DEATH(
        {
            ParallelDes des(3, 10);
            des.queue(1).schedule(0, [&des] {
                des.post(2, 0, 10, [] {});
            });
            des.run();
        },
        "run-time post must name the running partition");
}

} // namespace
} // namespace mtia
