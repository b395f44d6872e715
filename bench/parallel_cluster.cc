/**
 * @file
 * The partitioned multi-chip DES on a 64-chip cluster: one simulation
 * of 32 replicas x 2 chips under replica kills + ECC storms, split
 * into the controller plane plus one partition per replica and
 * synchronized at epoch barriers of one fabric latency (see DESIGN.md
 * "Parallel multi-chip DES"). The partitions run serially on the
 * calling thread.
 *
 * The same scenario runs twice with the same seed; the two summaries
 * must match byte for byte (the results_match metric is a hard [1, 1]
 * band), and ctest bench_parallel_cluster_determinism checks the whole
 * report against its golden at MTIA_THREADS 1 and 8.
 *
 * Emits BENCH_parallel_cluster.json, derived entirely from simulated
 * state.
 */

#include <cstdio>
#include <string>

#include "bench_report.h"
#include "bench_util.h"
#include "cluster/cluster_sim.h"

namespace {

using namespace mtia;

ClusterConfig
sixtyFourChipConfig()
{
    ClusterConfig cfg;
    cfg.replicas = 32;
    cfg.chips_per_replica = 2; // 64 chips
    cfg.embedding_shards = 16;
    cfg.routing = RoutingPolicyKind::LeastLoaded;
    cfg.trace.users = 1'000'000;
    cfg.trace.user_zipf_alpha = 1.1;
    cfg.trace.traffic.candidates_mean = 64;
    cfg.chaos.enabled = true;
    cfg.chaos.mean_kill_interval_s = 1.0;
    cfg.chaos.mean_storm_interval_s = 0.5;
    return cfg;
}

} // namespace

int
main()
{
    bench::banner(
        "Partitioned multi-chip DES, 64-chip cluster under chaos",
        "32 replicas x 2 chips, controller + one partition per replica; "
        "epoch-barrier sync, byte-identical for a seed");

    bench::Report report("parallel_cluster");
    const ClusterSimulator sim(sixtyFourChipConfig());
    const double qps = 12000.0;
    const Tick duration = fromSeconds(2.0);

    bench::section("chaos run");
    const ClusterResult run = sim.simulate(qps, duration);
    std::printf("%s", run.summary().c_str());
    const ClusterResult rerun = sim.simulate(qps, duration);

    const bool match = run.summary() == rerun.summary();
    bench::section("results");
    bench::row("summary bytes, same-seed rerun", "identical",
               match ? "identical" : "DIVERGED");
    bench::row("cluster SLO attainment (chaos on)", "0.80..1.00",
               bench::fmt("%.3f", run.slo_attainment));
    bench::row("failovers detected", ">= 1",
               bench::fmt("%.0f", static_cast<double>(run.failovers)));

    // The hard gate: a same-seed rerun must not change one byte of the
    // simulated outcome.
    report.metric("results_match", match ? 1.0 : 0.0, 1.0, 1.0, "bool");
    report.metric("chips", 64.0);
    report.metric("partitions",
                  static_cast<double>(sim.config().replicas) + 1.0);
    report.metric("slo_attainment", run.slo_attainment, 0.80, 1.00,
                  "fraction");
    report.metric("p99_ms", run.p99_ms, "ms");
    report.metric("arrivals", static_cast<double>(run.arrivals));
    report.metric("completed", static_cast<double>(run.completed));
    report.metric("rerouted", static_cast<double>(run.rerouted));
    report.metric("dropped", static_cast<double>(run.dropped));
    report.metric("kills", run.kills);
    report.metric("failovers", run.failovers);
    report.metric("ecc_errors", static_cast<double>(run.ecc_errors));

    report.write();
    std::printf("\nreport: %s\n", report.path().c_str());
    return match ? 0 : 1;
}
