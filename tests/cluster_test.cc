/**
 * @file
 * Tests for the cluster serving layer: trace sharding, routing
 * policies, the deadline-aware dynamic batcher, controller health
 * transitions, chaos timelines, and the end-to-end cluster simulator
 * — including the chaos determinism bar (byte-identical sweeps at
 * MTIA_THREADS 1 vs 8 and across same-seed runs) and the Figure 5
 * TBE-consolidation effect on a one-replica config.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/cluster_sim.h"
#include "cluster/cluster_trace.h"
#include "cluster/controller.h"
#include "cluster/dynamic_batcher.h"
#include "cluster/routing.h"
#include "core/parallel.h"
#include "sim/event_queue.h"
#include "tbe_serving.h"
#include "telemetry/telemetry.h"

namespace mtia {
namespace {

ClusterTraceParams
smallTraceParams(double qps, double seconds)
{
    ClusterTraceParams p;
    p.traffic.qps = qps;
    p.traffic.duration = fromSeconds(seconds);
    p.traffic.candidates_mean = 64;
    p.users = 100'000;
    p.embedding_shards = 8;
    return p;
}

TEST(ClusterTraceTest, DeterministicAndShardSkewed)
{
    const auto params = smallTraceParams(2000.0, 2.0);
    Rng rng_a(7);
    Rng rng_b(7);
    const auto a = generateClusterTrace(rng_a, params);
    const auto b = generateClusterTrace(rng_b, params);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].user, b[i].user);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].home_shard, b[i].home_shard);
        EXPECT_LT(a[i].home_shard, params.embedding_shards);
        EXPECT_LT(a[i].user, params.users);
    }

    // Range-partitioned Zipf users: the head lands on shard 0, so the
    // trace itself is skewed before any routing happens.
    const auto rows = shardRowLoad(a, params.embedding_shards);
    ASSERT_EQ(rows.size(), params.embedding_shards);
    const auto hottest =
        std::max_element(rows.begin(), rows.end()) - rows.begin();
    EXPECT_EQ(hottest, 0);
    EXPECT_GT(shardSkew(rows), 1.5);
}

TEST(RoutingTest, LeastLoadedPicksLightestAndBreaksTiesLow)
{
    LeastLoadedPolicy policy;
    ClusterRequest req;
    std::vector<ReplicaLoadView> view(4);
    view[0].outstanding_rows = 10;
    view[1].outstanding_rows = 3;
    view[2].outstanding_rows = 3;
    view[3].outstanding_rows = 7;
    EXPECT_EQ(policy.route(req, view), 1u); // tie 1 vs 2 -> lowest
    view[1].routable = false;
    EXPECT_EQ(policy.route(req, view), 2u);
}

TEST(RoutingTest, ShardHashIsStickyAndRemapsMinimally)
{
    const unsigned replicas = 4;
    ShardHashPolicy policy(replicas);
    std::vector<ReplicaLoadView> view(replicas);

    // Same shard always lands on the same replica.
    std::vector<unsigned> owner(16);
    std::set<unsigned> used;
    for (unsigned s = 0; s < 16; ++s) {
        ClusterRequest req;
        req.home_shard = s;
        owner[s] = policy.route(req, view);
        EXPECT_EQ(policy.route(req, view), owner[s]);
        used.insert(owner[s]);
    }
    EXPECT_GT(used.size(), 1u); // vnodes spread shards around

    // Killing one replica only remaps the shards it owned.
    const unsigned dead = owner[0];
    view[dead].routable = false;
    for (unsigned s = 0; s < 16; ++s) {
        ClusterRequest req;
        req.home_shard = s;
        const unsigned now_on = policy.route(req, view);
        EXPECT_NE(now_on, dead);
        if (owner[s] != dead) {
            EXPECT_EQ(now_on, owner[s]);
        }
    }
}

TEST(DynamicBatcherTest, ClosesFullDeadlineAndWindow)
{
    EventQueue eq;
    BatcherConfig cfg;
    cfg.capacity = 100;
    cfg.window = fromMillis(2.0);
    cfg.slo = fromMillis(50.0);
    cfg.close_slack = fromMillis(5.0);
    std::vector<ClusterBatch> dispatched;
    DynamicBatcher batcher(eq, cfg, [&](ClusterBatch &&b) {
        dispatched.push_back(std::move(b));
    });

    // Full: two 50-row requests hit capacity exactly and dispatch
    // synchronously inside the second add().
    ClusterRequest r;
    r.candidates = 50;
    eq.schedule(fromMillis(1.0), [&]() {
        batcher.add(r);
        batcher.add(r);
    });
    // Window: a lone small request with slack to spare waits out the
    // full window.
    ClusterRequest small;
    small.candidates = 5;
    small.arrival = fromMillis(10.0);
    eq.schedule(small.arrival, [&]() { batcher.add(small); });
    // Deadline: a request that already waited most of its SLO budget
    // upstream closes the batch well before the window expires.
    ClusterRequest old_req;
    old_req.candidates = 5;
    old_req.arrival = fromMillis(20.0);
    eq.schedule(fromMillis(66.0), [&]() { batcher.add(old_req); });
    eq.run();

    ASSERT_EQ(dispatched.size(), 3u);
    EXPECT_EQ(dispatched[0].reason, BatchClose::Full);
    EXPECT_EQ(dispatched[0].dispatch_time, fromMillis(1.0));
    EXPECT_EQ(dispatched[1].reason, BatchClose::Window);
    EXPECT_EQ(dispatched[1].dispatch_time,
              small.arrival + cfg.window);
    EXPECT_EQ(dispatched[2].reason, BatchClose::Deadline);
    // Slack at add time: (20 + 50) - 66 = 4 ms, already inside
    // close_slack + service estimate -> closes immediately.
    EXPECT_EQ(dispatched[2].dispatch_time, fromMillis(66.0));
    EXPECT_EQ(batcher.stats().batches, 3u);
    EXPECT_EQ(batcher.stats().closed_full, 1u);
    EXPECT_EQ(batcher.stats().closed_window, 1u);
    EXPECT_EQ(batcher.stats().closed_deadline, 1u);
    EXPECT_EQ(batcher.stats().requests, 4u);
}

TEST(RoutingTest, ShardHashWrapsPastLastVnodeToSoleSurvivor)
{
    // Regression guard for the ring wrap-around: keys hashing past the
    // last vnode must wrap to position 0 (that is the normal clockwise
    // step, not a miss), and the failover walk must be able to reach
    // EVERY vnode — including the ring's first — when all but one
    // replica are Down. A wrap bug here either drops routable keys or
    // never terminates; with thousands of keys some are guaranteed to
    // hash into the wrap gap above the highest vnode.
    const unsigned replicas = 4;
    ShardHashPolicy policy(replicas);
    for (unsigned survivor = 0; survivor < replicas; ++survivor) {
        std::vector<ReplicaLoadView> view(replicas);
        for (unsigned r = 0; r < replicas; ++r)
            view[r].routable = (r == survivor);
        for (unsigned s = 0; s < 10000; ++s) {
            ClusterRequest req;
            req.home_shard = s;
            ASSERT_EQ(policy.route(req, view), survivor)
                << "shard " << s << " missed survivor " << survivor;
        }
    }
}

TEST(DynamicBatcherTest, FailoverReroutedOldRequestTightensDeadline)
{
    // Regression: the deadline close used requests.front().arrival as
    // the batch's oldest member. After a failover re-route, an OLD
    // request (original arrival preserved) joins a YOUNGER open batch
    // as a later member, so front() understated the deadline pressure
    // and the old request could blow its SLO budget while the batch
    // idled toward the window close.
    EventQueue eq;
    BatcherConfig cfg;
    cfg.capacity = 1000;
    cfg.window = fromMillis(100.0); // window close out of the picture
    cfg.slo = fromMillis(50.0);
    cfg.close_slack = fromMillis(5.0);
    std::vector<ClusterBatch> dispatched;
    DynamicBatcher batcher(eq, cfg, [&](ClusterBatch &&b) {
        dispatched.push_back(std::move(b));
    });

    ClusterRequest young;
    young.candidates = 5;
    young.arrival = fromMillis(100.0);
    eq.schedule(young.arrival, [&]() { batcher.add(young); });

    // Re-routed survivor of a dead replica: admitted at 101 ms but
    // carrying its original 60 ms arrival, with 9 ms of SLO left.
    ClusterRequest old_req;
    old_req.candidates = 5;
    old_req.arrival = fromMillis(60.0);
    eq.schedule(fromMillis(101.0), [&]() { batcher.add(old_req); });
    eq.run();

    ASSERT_EQ(dispatched.size(), 1u);
    EXPECT_EQ(dispatched[0].reason, BatchClose::Deadline);
    EXPECT_EQ(dispatched[0].oldest_arrival, old_req.arrival);
    // The close keys off the OLDEST member: arrival + slo minus the
    // service estimate and slack — ~104 ms, not ~144 ms (front()) and
    // not 200 ms (window).
    const Tick estimated = cfg.service_base + cfg.service_per_row * 10;
    EXPECT_EQ(dispatched[0].dispatch_time,
              old_req.arrival + cfg.slo - estimated - cfg.close_slack);
    EXPECT_LT(dispatched[0].dispatch_time, old_req.arrival + cfg.slo);
}

TEST(DynamicBatcherTest, DrainEmptiesWithoutDispatch)
{
    EventQueue eq;
    BatcherConfig cfg;
    std::uint64_t dispatches = 0;
    DynamicBatcher batcher(eq, cfg,
                           [&](ClusterBatch &&) { ++dispatches; });
    ClusterRequest r;
    r.candidates = 8;
    eq.schedule(fromMillis(1.0), [&]() {
        batcher.add(r);
        batcher.add(r);
        const auto drained = batcher.drain();
        EXPECT_EQ(drained.size(), 2u);
        EXPECT_FALSE(batcher.hasOpenBatch());
        EXPECT_EQ(batcher.pendingRows(), 0);
    });
    eq.run(); // the stale close timer must not fire a dispatch
    EXPECT_EQ(dispatches, 0u);
}

TEST(ControllerTest, HealthTransitionsAndFailoverRecord)
{
    HealthConfig cfg;
    cfg.heartbeat_interval = fromMillis(5.0);
    cfg.miss_threshold = 3;
    ClusterController ctl(
        2, cfg, makeRoutingPolicy(RoutingPolicyKind::LeastLoaded, 2));

    // Both ack at 5 ms; replica 1 then goes silent.
    ctl.heartbeat(0, fromMillis(5.0));
    ctl.heartbeat(1, fromMillis(5.0));
    ctl.noteDeath(1, fromMillis(6.0));

    ctl.heartbeat(0, fromMillis(10.0));
    EXPECT_TRUE(ctl.checkHealth(fromMillis(12.5)).empty());
    EXPECT_EQ(ctl.health(1), ReplicaHealth::Suspect);

    ctl.heartbeat(0, fromMillis(15.0));
    ctl.heartbeat(0, fromMillis(20.0));
    const auto down = ctl.checkHealth(fromMillis(22.5));
    ASSERT_EQ(down.size(), 1u);
    EXPECT_EQ(down[0], 1u);
    EXPECT_EQ(ctl.health(1), ReplicaHealth::Down);
    EXPECT_TRUE(ctl.anyRoutable());

    // Down replicas never route; restart completes the record.
    ClusterRequest req;
    EXPECT_EQ(ctl.route(req, {0, 0}), 0u);
    ctl.markWarmingUp(1, fromMillis(200.0));
    EXPECT_EQ(ctl.health(1), ReplicaHealth::WarmingUp);
    ctl.markHealthy(1, fromMillis(300.0));
    EXPECT_EQ(ctl.health(1), ReplicaHealth::Healthy);

    ASSERT_EQ(ctl.failovers().size(), 1u);
    const FailoverRecord &rec = ctl.failovers()[0];
    EXPECT_EQ(rec.replica, 1u);
    EXPECT_EQ(rec.died, fromMillis(6.0));
    EXPECT_EQ(rec.detected, fromMillis(22.5));
    EXPECT_EQ(rec.restored, fromMillis(300.0));
}

TEST(ControllerTest, SuspectRecoversOnAck)
{
    HealthConfig cfg;
    cfg.heartbeat_interval = fromMillis(5.0);
    ClusterController ctl(
        1, cfg, makeRoutingPolicy(RoutingPolicyKind::LeastLoaded, 1));
    ctl.heartbeat(0, fromMillis(5.0));
    ctl.checkHealth(fromMillis(12.5));
    EXPECT_EQ(ctl.health(0), ReplicaHealth::Suspect);
    ctl.heartbeat(0, fromMillis(13.0));
    EXPECT_EQ(ctl.health(0), ReplicaHealth::Healthy);
    EXPECT_TRUE(ctl.failovers().empty());
}

TEST(ChaosTest, TimelineIsDeterministicSortedAndComplete)
{
    ChaosParams params;
    params.enabled = true;
    params.mean_kill_interval_s = 0.5;
    params.mean_storm_interval_s = 0.4;
    const Tick dur = fromSeconds(4.0);
    const auto a = buildChaosTimeline(params, 4, dur, Rng(11));
    const auto b = buildChaosTimeline(params, 4, dur, Rng(11));
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    bool any_kill = false;
    bool any_ecc = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].replica, b[i].replica);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].outcome, b[i].outcome);
        EXPECT_LT(a[i].time, dur);
        EXPECT_LT(a[i].replica, 4u);
        if (i > 0) {
            EXPECT_GE(a[i].time, a[i - 1].time);
        }
        any_kill = any_kill || a[i].kind == ChaosKind::ReplicaKill;
        any_ecc = any_ecc || a[i].kind == ChaosKind::EccError;
    }
    EXPECT_TRUE(any_kill);
    EXPECT_TRUE(any_ecc);

    // Disabled chaos is empty; the caller's rng is pass-by-value so
    // two identical calls cannot perturb each other.
    ChaosParams off;
    EXPECT_TRUE(buildChaosTimeline(off, 4, dur, Rng(11)).empty());
}

ClusterConfig
testClusterConfig()
{
    ClusterConfig cfg;
    cfg.replicas = 4;
    cfg.chips_per_replica = 2;
    cfg.embedding_shards = 8;
    cfg.trace = smallTraceParams(0.0, 0.0); // qps/duration per run
    return cfg;
}

TEST(ClusterSimTest, QuietClusterMeetsSloAndConservesRequests)
{
    ClusterConfig cfg = testClusterConfig();
    const ClusterSimulator sim(cfg);
    const ClusterResult r = sim.simulate(500.0, fromSeconds(2.0));
    EXPECT_GT(r.arrivals, 0u);
    // No chaos: every arrival completes, none re-route or drop.
    EXPECT_EQ(r.completed, r.arrivals);
    EXPECT_EQ(r.rerouted, 0u);
    EXPECT_EQ(r.dropped, 0u);
    EXPECT_EQ(r.kills, 0u);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_GT(r.slo_attainment, 0.99);
    EXPECT_GT(r.batches, 0u);
    EXPECT_EQ(r.batches,
              r.batches_full + r.batches_deadline + r.batches_window);
    EXPECT_GT(r.shard_skew, 1.0);
    ASSERT_EQ(r.shard_rows.size(), cfg.embedding_shards);
    std::int64_t gathered = 0;
    for (const std::int64_t rows : r.shard_rows)
        gathered += rows;
    EXPECT_GT(gathered, 0);
}

TEST(ClusterSimTest, ChaosFailoverRecoversAndConserves)
{
    ClusterConfig cfg = testClusterConfig();
    cfg.chaos.enabled = true;
    cfg.chaos.mean_kill_interval_s = 1.0;
    const ClusterSimulator sim(cfg);
    const ClusterResult r = sim.simulate(500.0, fromSeconds(4.0));
    ASSERT_GT(r.kills, 0u);
    ASSERT_GT(r.failovers, 0u);
    EXPECT_GT(r.rerouted, 0u);
    // Every arrival is accounted for: completed or dropped (dropping
    // requires a total outage, so usually none).
    EXPECT_EQ(r.completed + r.dropped, r.arrivals);
    // Detection needs miss_threshold heartbeats; recovery adds
    // restart + warm-up. Both are bounded by the health config.
    const double hb_ms = toMillis(cfg.health.heartbeat_interval);
    EXPECT_GT(r.mean_detection_ms, hb_ms);
    const double recovery_floor = toMillis(cfg.health.restart_delay) +
        toMillis(cfg.health.warmup);
    if (r.mean_recovery_ms > 0) {
        EXPECT_GT(r.mean_recovery_ms,
                  r.mean_detection_ms + recovery_floor * 0.99);
        EXPECT_GE(r.max_recovery_ms, r.mean_recovery_ms);
    }
    // Chaos hurts the SLO but the cluster keeps serving.
    EXPECT_GT(r.slo_attainment, 0.5);
}

TEST(ClusterSimTest, EccStormsLandAndClassify)
{
    ClusterConfig cfg = testClusterConfig();
    cfg.chaos.enabled = true;
    cfg.chaos.mean_kill_interval_s = 0; // storms only
    cfg.chaos.mean_storm_interval_s = 0.5;
    const ClusterSimulator sim(cfg);
    const ClusterResult r = sim.simulate(200.0, fromSeconds(4.0));
    ASSERT_GT(r.ecc_errors, 0u);
    EXPECT_EQ(r.ecc_errors, r.ecc_benign + r.ecc_corrupted +
                  r.ecc_retries + r.ecc_crashes);
    // Section 5.1: the overwhelming majority of injected flips are
    // benign; crashes come only from OutOfBounds consequences.
    EXPECT_GT(r.ecc_benign, r.ecc_crashes);
    EXPECT_EQ(r.kills, r.ecc_crashes);
}

TEST(ClusterSimTest, RoutingPoliciesTradeSkewForAffinity)
{
    ClusterConfig cfg = testClusterConfig();
    const ClusterSimulator least(cfg);
    cfg.routing = RoutingPolicyKind::ShardHash;
    const ClusterSimulator hash(cfg);
    const ClusterResult a = least.simulate(500.0, fromSeconds(2.0));
    const ClusterResult b = hash.simulate(500.0, fromSeconds(2.0));
    EXPECT_EQ(a.policy, "least_loaded");
    EXPECT_EQ(b.policy, "shard_hash");
    EXPECT_EQ(a.arrivals, b.arrivals); // same trace replayed
    EXPECT_EQ(a.completed, a.arrivals);
    EXPECT_EQ(b.completed, b.arrivals);
}

TEST(ClusterSimTest, ChaosRunByteIdenticalAcrossLaneCountsAndRuns)
{
    // The determinism bar for the whole stack: a chaos run (replica
    // kills + ECC storms) must render byte-identical summaries across
    // MTIA_THREADS lane counts and across same-seed runs. sweep()
    // exercises the parallel harness; the scenario exercises failover,
    // re-routing, retries, and crash-kills.
    ClusterConfig cfg = testClusterConfig();
    cfg.chaos.enabled = true;
    cfg.chaos.mean_kill_interval_s = 1.0;
    const ClusterSimulator sim(cfg);
    const std::vector<double> points = {200.0, 500.0, 800.0};
    const Tick dur = fromSeconds(3.0);

    std::string lane1;
    std::string lane8;
    {
        ScopedParallelism serial(1);
        for (const ClusterResult &r : sim.sweep(points, dur))
            lane1 += r.summary();
    }
    {
        ScopedParallelism wide(8);
        for (const ClusterResult &r : sim.sweep(points, dur))
            lane8 += r.summary();
    }
    EXPECT_EQ(lane1, lane8);

    // Same seed, second run of the same process: byte-identical.
    std::string again;
    {
        ScopedParallelism wide(8);
        for (const ClusterResult &r : sim.sweep(points, dur))
            again += r.summary();
    }
    EXPECT_EQ(lane8, again);

    // A different seed is a genuinely different experiment.
    std::string reseeded;
    {
        ScopedParallelism serial(1);
        for (const ClusterResult &r : sim.sweep(points, dur, 1234))
            reseeded += r.summary();
    }
    EXPECT_NE(lane1, reseeded);
}

TEST(ClusterSimTest, ZeroPerRowGatherCompletesEveryArrival)
{
    // Chips are marked as gathering by rows, not by time: with
    // gather_per_row = 0 every touched chip still runs its gather_base
    // job, so every batch reaches its merge instead of being lost.
    ClusterConfig cfg = testClusterConfig();
    cfg.service.gather_per_row = 0;
    const ClusterResult r =
        ClusterSimulator(cfg).simulate(500.0, fromSeconds(2.0));
    ASSERT_GT(r.arrivals, 0u);
    EXPECT_EQ(r.completed, r.arrivals);
}

// ClusterSimulator is the one serving simulator; these are its
// serving-level properties on the Figure 5 scenario (tbe_serving.h).
using bench::tbeServingConfig;

const telemetry::LogHistogram &
latencySeries(telemetry::Telemetry &tel, const char *cls)
{
    return tel.metrics.histogram("cluster.latency_ms", {{"class", cls}});
}

TEST(ServingSimTest, LowLoadMeetsSlo)
{
    const ClusterConfig cfg = tbeServingConfig(2);
    const ClusterResult r =
        ClusterSimulator(cfg).simulate(10.0, fromSeconds(20.0));
    EXPECT_EQ(r.completed, r.arrivals);
    EXPECT_LE(r.p99_ms, toMillis(cfg.batcher.slo));
    // Unloaded latency: the admission hop, two 3 ms gathers with a
    // dispatch gap, then the 12 ms merge after another gap ~ 22 ms.
    EXPECT_NEAR(r.p50_ms, 22.0 + toMillis(cfg.fabric.latency()), 4.0);
}

TEST(ServingSimTest, OverloadViolatesSlo)
{
    const ClusterConfig cfg = tbeServingConfig(2);
    // 24 ms of chip time per request saturates the chip at ~41 QPS.
    const ClusterResult r =
        ClusterSimulator(cfg).simulate(120.0, fromSeconds(20.0));
    EXPECT_GT(r.p99_ms, toMillis(cfg.batcher.slo));
    EXPECT_LT(r.completed_qps, 100.0);
}

TEST(ServingSimTest, SweepPercentilesAreScopedPerLoadPoint)
{
    // With telemetry attached, per-call results must still come from
    // per-call histograms: a later load point's p99 must not smear in
    // an earlier point's samples. The registry series accumulate every
    // sample across calls.
    ClusterSimulator sim(tbeServingConfig(2));
    const Tick dur = fromSeconds(10.0);
    const ClusterResult detached = sim.simulate(10.0, dur);

    telemetry::Telemetry tel;
    sim.setTelemetry(&tel);
    const ClusterResult hot = sim.simulate(120.0, dur); // pollutes
    const ClusterResult low = sim.simulate(10.0, dur);
    sim.setTelemetry(nullptr);

    EXPECT_GT(hot.p99_ms, detached.p99_ms); // distinct load points
    EXPECT_EQ(low.summary(), detached.summary());
    for (const char *cls : {"total", "remote", "merge"})
        EXPECT_EQ(latencySeries(tel, cls).count(),
                  hot.completed + low.completed)
            << cls;
}

TEST(ServingSimTest, ConsolidationRaisesThroughputAtSlo)
{
    // Figure 5: merging weighted and unweighted TBE instances halves
    // the gather job count; total gather/merge execution time is
    // unchanged, yet throughput at the P99 SLO improves and P99 drops
    // because merges stop queueing behind later requests' gathers.
    ClusterSimulator split(tbeServingConfig(2));
    ClusterSimulator merged(tbeServingConfig(1));
    const Tick dur = bench::kTbeRunDuration;
    const double qps_split =
        split.maxQpsAtSlo(bench::kTbeQpsLo, bench::kTbeQpsHi, dur);
    const double qps_merged =
        merged.maxQpsAtSlo(bench::kTbeQpsLo, bench::kTbeQpsHi, dur);
    EXPECT_GT(qps_split, bench::kTbeQpsLo);
    EXPECT_GT(qps_merged, qps_split * 1.05);

    // At the split system's sustainable load, consolidation lowers
    // P99 and the merge component's P99.
    telemetry::Telemetry tel_split;
    telemetry::Telemetry tel_merged;
    split.setTelemetry(&tel_split);
    merged.setTelemetry(&tel_merged);
    const ClusterResult a = split.simulate(qps_split, dur);
    const ClusterResult b = merged.simulate(qps_split, dur);
    EXPECT_LT(b.p99_ms, a.p99_ms);
    EXPECT_LT(latencySeries(tel_merged, "merge").percentile(99),
              latencySeries(tel_split, "merge").percentile(99));
}

} // namespace
} // namespace mtia
