/**
 * @file
 * Fleet-scale serving cluster under chaos (Sections 3.4, 5.1, 6): six
 * replicas x two chips serve a replayable million-user trace while
 * chaos kills replicas and ECC storms inject the Section 5.1
 * consequence mix. Reports cluster-wide P99 and SLO attainment per
 * routing policy, per-shard load skew, and failover detection /
 * recovery times; the qps sweep doubles as the serial-vs-parallel
 * wall-clock harness.
 *
 * Emits BENCH_cluster_serving.json. Everything in it except
 * "wall_clock" derives from simulated state and is byte-identical at
 * any MTIA_THREADS count (the ctest bench_cluster_serving_determinism
 * checks it against the committed golden at 1 and 8 lanes).
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "cluster/cluster_sim.h"
#include "core/parallel.h"

namespace {

using namespace mtia;

ClusterConfig
chaosClusterConfig(RoutingPolicyKind routing)
{
    ClusterConfig cfg;
    cfg.replicas = 6;
    cfg.chips_per_replica = 2;
    cfg.embedding_shards = 8;
    cfg.routing = routing;
    cfg.trace.users = 1'000'000;
    cfg.trace.user_zipf_alpha = 1.1;
    cfg.trace.traffic.candidates_mean = 64;
    cfg.chaos.enabled = true;
    cfg.chaos.mean_kill_interval_s = 2.0;
    cfg.chaos.mean_storm_interval_s = 2.0;
    return cfg;
}

void
printSweepRow(const ClusterResult &r)
{
    std::printf("  %8.0f %10.1f %9.2f %9.2f %8.3f %7.2f %6" PRIu64
                " %6" PRIu64 " %5u %5u\n",
                r.offered_qps, r.completed_qps, r.p50_ms, r.p99_ms,
                r.slo_attainment, r.shard_skew, r.rerouted, r.dropped,
                r.kills, r.failovers);
}

} // namespace

int
main()
{
    bench::banner(
        "Cluster serving under chaos (Sections 3.4, 5.1, 6)",
        "6 replicas x 2 chips, sharded embeddings, deadline-aware "
        "batching, failover + ECC storms");

    bench::Report report("cluster_serving");
    const std::vector<double> qps = {500.0, 1500.0, 3000.0};
    const Tick duration = fromSeconds(4.0);
    const double nominal = qps[1];

    ClusterResult nominal_by_policy[2];
    const RoutingPolicyKind kinds[2] = {RoutingPolicyKind::LeastLoaded,
                                        RoutingPolicyKind::ShardHash};
    double sweep_seconds = 0.0;
    for (int k = 0; k < 2; ++k) {
        const ClusterSimulator sim(chaosClusterConfig(kinds[k]));
        bench::section(std::string("qps sweep, policy = ") +
                       routingPolicyKindName(kinds[k]));
        std::printf("  %8s %10s %9s %9s %8s %7s %6s %6s %5s %5s\n",
                    "offered", "completed", "p50_ms", "p99_ms",
                    "slo_att", "skew", "rert", "drop", "kill",
                    "fail");
        const bench::WallTimer timer;
        const std::vector<ClusterResult> sweep =
            sim.sweep(qps, duration);
        sweep_seconds += timer.seconds();
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            printSweepRow(sweep[i]);
            if (qps[i] == nominal)
                nominal_by_policy[k] = sweep[i];
        }
    }

    bench::section("nominal load, per policy");
    for (int k = 0; k < 2; ++k) {
        const ClusterResult &r = nominal_by_policy[k];
        const std::string tag = r.policy;
        bench::row(tag + " SLO attainment (chaos on)", "0.80..1.00",
                   bench::fmt("%.3f", r.slo_attainment));
        bench::row(tag + " cluster P99", "<= 50 ms",
                   bench::fmt("%.2f ms", r.p99_ms));
        bench::row(tag + " per-shard load skew (max/mean)",
                   "Zipf-headed", bench::fmt("%.2fx", r.shard_skew));
        bench::row(tag + " mean failover detection", "~15 ms",
                   bench::fmt("%.1f ms", r.mean_detection_ms));
        bench::row(tag + " mean failover recovery", "~315 ms",
                   bench::fmt("%.1f ms", r.mean_recovery_ms));
        // A hard band in the golden check: chaos costs some attainment,
        // but the cluster must keep serving the overwhelming majority
        // in SLO.
        report.metric(tag + "_slo_attainment",
                      r.slo_attainment, 0.80, 1.00, "fraction");
        report.metric(tag + "_p99_ms", r.p99_ms, "ms");
        report.metric(tag + "_shard_skew", r.shard_skew, "x");
        report.metric(tag + "_mean_detection_ms", r.mean_detection_ms,
                      "ms");
        report.metric(tag + "_mean_recovery_ms", r.mean_recovery_ms,
                      "ms");
        report.metric(tag + "_max_recovery_ms", r.max_recovery_ms,
                      "ms");
        report.metric(tag + "_kills", r.kills);
        report.metric(tag + "_failovers", r.failovers);
        report.metric(tag + "_rerouted",
                      static_cast<double>(r.rerouted));
        report.metric(tag + "_dropped",
                      static_cast<double>(r.dropped));
        report.metric(tag + "_ecc_errors",
                      static_cast<double>(r.ecc_errors));
        report.metric(tag + "_ecc_crashes",
                      static_cast<double>(r.ecc_crashes));
        report.metric(tag + "_batches_deadline_closed",
                      static_cast<double>(r.batches_deadline));
    }

    // Serial re-run of one sweep for the sanctioned wall-clock
    // speedup number (excluded from byte-identical guarantees).
    {
        const ClusterSimulator sim(
            chaosClusterConfig(RoutingPolicyKind::LeastLoaded));
        const unsigned lanes = parallelLanes();
        const bench::WallTimer timer;
        ScopedParallelism serial(1);
        (void)sim.sweep(qps, duration);
        // The parallel section above ran two policy sweeps; the serial
        // rerun covers one, so scale it before forming the ratio.
        const double serial_seconds = timer.seconds() * 2.0;
        report.wallClock("lanes", lanes, "lanes");
        if (sweep_seconds > 0.0)
            report.wallClock("parallel_speedup",
                             serial_seconds / sweep_seconds, "x");
    }

    report.write();
    std::printf("\nreport: %s\n", report.path().c_str());
    return 0;
}
